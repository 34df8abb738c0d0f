"""Reverse-mode autodiff over float64 numpy arrays, plus Adam.

A Value wraps an array and records how it was produced; backward() walks the
tape in reverse topological order accumulating gradients, and releases each
computed node as soon as its own backward has run: afterwards only leaves
hold gradients, and a second backward through a used node raises ValueError.
A gradient is allocated only when the first one arrives: that array is
stored as it comes, and later ones are added out of place, so arrays shared
between nodes are never written into. `.grad` reads the stored gradient as a
read-only view, never a copy. Only what is differentiated is a Value: raw
arrays and floats handed to a primitive are not parents of its result, and
one with no Value operand returns its raw result, in the operands' dtype.
The primitive set is the model's: dense (one network layer, h @ w + b with
an optional tanh), broadcasting add and multiply, softplus, log, reciprocal,
sqrt, sum, square, mix (stacked fixed linear combinations, the barycentric
kernel's one primitive) and weighted_loglik, a fused weighted log-likelihood
that takes the likelihood's elementwise terms and their slope as functions.
matmul, tanh, exp and concat are unused by the model; they stay because
perfbench's per-primitive trace patches them by name.

fork_sum sums independent branches of one Value, each run backward on a
tape of its own as soon as it is built, from the gradient the caller says
the sum will receive; once the input has FORK_THREAD_ROWS rows, on one
pool thread per CPU (_map_in_order, which evaluation uses too). Its
gradients equal those of one tape bit for bit. Everything is
deterministic, whatever the CPU count; randomness is drawn outside the
graph from counter-based Philox streams and passed in as raw arrays.

keep_heap_mapped sets glibc's allocator so that the large arrays of one
training step or evaluation, once freed, stay mapped and serve the next,
instead of going back to the OS and being faulted in again. The settings
hold for the whole process, and its resident memory is not returned to the
OS after the peak.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading

import numpy as np

# fork_sum runs its branches on threads only when its input has at least this
# many rows. Measured on the toy5 decoders (hidden [128, 128]) with two CPUs,
# the median training step on two threads took 1.18x the one-thread time at
# 64 rows, 1.01-1.03x at 128, 0.86-0.97x at 256 and 0.78-0.88x at 384 to
# 512: below a few hundred rows the threads cost more than they overlap.
FORK_THREAD_ROWS = 256

# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# glibc mallopt parameters and the values keep_heap_mapped gives them: arrays
# up to 32 MiB (the largest threshold glibc takes) come from the heap, not
# from fresh zero-filled mmaps; the heap top is trimmed only past 1 GiB; and
# one arena serves every thread, so memory freed on one thread serves another.
_MALLOPT_SETTINGS = (
    (-3, 32 << 20),  # M_MMAP_THRESHOLD
    (-1, 1 << 30),  # M_TRIM_THRESHOLD
    (-8, 1),  # M_ARENA_MAX
)
_heap_kept_mapped = None


def keep_heap_mapped() -> bool:
    """Keep freed heap memory mapped, for the whole process; True if set.

    Sets glibc's allocator once per process (_MALLOPT_SETTINGS); later calls
    return the first call's answer. Where the C library has no `mallopt`,
    it does nothing and returns False. Values are unchanged either way; the
    process's resident memory is not returned to the OS after its peak.
    """
    global _heap_kept_mapped
    if _heap_kept_mapped is None:
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
            _heap_kept_mapped = False
        else:
            _heap_kept_mapped = all([mallopt(p, v) == 1 for p, v in _MALLOPT_SETTINGS])
    return _heap_kept_mapped


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """A Philox generator for (seed, key...); distinct keys never collide."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Value:
    """A node in the computation graph: array data, gradient, provenance.

    Leaves, such as parameters, and the results of primitives with a Value
    operand are Values; a result's parents are its Value operands alone.
    """

    __slots__ = ("data", "_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self._parents = parents
        self._backward = backward

    @property
    def grad(self):
        """The accumulated gradient, as a read-only view: zeros before any
        has arrived. A gradient array may be shared with other nodes, so it
        is never written into, and reading it never copies."""
        grad = np.zeros_like(self.data) if self._grad is None else self._grad
        view = np.asarray(grad).view()
        view.flags.writeable = False
        return view

    def _accumulate(self, g):
        """Add g to the gradient without writing into any array: the first
        gradient is stored as it comes, and later ones add out of place."""
        if self._grad is None:
            self._grad = g
        else:
            self._grad = self._grad + g

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Value(shape={self.data.shape})"

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's .grad, releasing the
        graph as it runs (_run_tape); self is scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.data.shape}")
        order = _tape(self)
        self._grad = np.ones_like(self.data)
        _run_tape(order)


def _tape(root: Value) -> list:
    """The nodes `root` depends on, each after its parents; none released."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is _RELEASED:
            raise ValueError("backward has already run through a node of this graph")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


class _Released(tuple):
    """The parents of a node that _run_tape has released: empty, like a
    leaf's, but told apart from them by identity."""


_RELEASED = _Released()


def _run_tape(order: list) -> None:
    """Run the backward of every node in `order` that holds a gradient, last
    node first, emptying `order` as it runs.

    Each computed node is popped and, once its backward has run, detached:
    its gradient and backward are dropped and its parents set to _RELEASED.
    The arrays only it kept, its parents' and its own data, are then freed
    before the nodes before it run. Leaves keep their gradients.
    """
    while order:
        node = order.pop()
        if node._backward is not None:
            if node._grad is not None:
                node._backward(node._grad)
            node._grad = node._backward = None
            node._parents = _RELEASED


def _unwrap(operands):
    """The operands' arrays, and those operands that are Values, in order."""
    arrays, parents = [], []
    for x in operands:
        if isinstance(x, Value):
            parents.append(x)
            x = x.data
        arrays.append(x)
    return arrays, tuple(parents)


def _node(data, parents, backward):
    """A primitive's result: a Value over its Value operands, if any, else raw."""
    return Value(data, parents, backward) if parents else data


def add(a, b):
    (x, y), parents = _unwrap((a, b))

    def backward(g):
        if isinstance(a, Value):
            a._accumulate(_unbroadcast(g, x.shape))
        if isinstance(b, Value):
            b._accumulate(_unbroadcast(g, y.shape))

    return _node(x + y, parents, backward)


def mul(a, b):
    (x, y), parents = _unwrap((a, b))

    def backward(g):
        if isinstance(a, Value):
            a._accumulate(_unbroadcast(g * y, x.shape))
        if isinstance(b, Value):
            b._accumulate(_unbroadcast(g * x, y.shape))

    return _node(x * y, parents, backward)


def matmul(a, b):
    (x, y), parents = _unwrap((a, b))

    def backward(g):
        if isinstance(a, Value):
            a._accumulate(g @ y.T)
        if isinstance(b, Value):
            b._accumulate(x.T @ g)

    return _node(x @ y, parents, backward)


def dense(h, w, b, tanh=False):
    """One network layer: h @ w + b, passed through tanh when `tanh` is set.

    One node and one array where the composed layer takes three. Value and
    gradients equal, bit for bit, those of tanh(add(matmul(h, w), b)), or
    add(matmul(h, w), b) without tanh.
    """
    (hd, wd, bd), parents = _unwrap((h, w, b))
    y = hd @ wd
    y += bd
    if tanh:
        np.tanh(y, out=y)

    def backward(g):
        if tanh:
            g = g * (1.0 - y * y)
        if isinstance(b, Value):
            b._accumulate(_unbroadcast(g, bd.shape))
        if isinstance(h, Value):
            h._accumulate(g @ wd.T)
        if isinstance(w, Value):
            w._accumulate(hd.T @ g)

    return _node(y, parents, backward)


def _unary(a, fn, grad):
    """fn(a); grad(g, x, y) maps the result's gradient g to a's, given a's
    array x and the result y."""
    if not isinstance(a, Value):
        return fn(a)
    x = a.data
    y = fn(x)
    return Value(y, (a,), lambda g: a._accumulate(grad(g, x, y)))


def tanh(a):
    return _unary(a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def _softplus(x):
    """log(1 + exp(x)) without overflow."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x):
    """1 / (1 + exp(-x)) without overflow."""
    e = np.exp(-np.abs(x))
    # the mask is 1 for x >= 0, where e <= 1, and 0 otherwise, where e >= 0:
    # the maximum picks 1 or e, as np.where(x >= 0, 1.0, e) would, bit for bit
    return np.maximum(e, x >= 0) / (1.0 + e)


def softplus(a):
    return _unary(a, _softplus, lambda g, x, y: g * _sigmoid(x))


def exp(a):
    return _unary(a, np.exp, lambda g, x, y: g * y)


def log(a):
    return _unary(a, np.log, lambda g, x, y: g * (1.0 / x))


def square(a):
    return _unary(a, np.square, lambda g, x, y: g * (2.0 * x))


def vsum(a):
    return _unary(a, np.sum, lambda g, x, y: np.broadcast_to(g, x.shape))


def concat(values, axis: int = 0):
    arrays, parents = _unwrap(values)

    def backward(g):
        lo = 0
        for v, x in zip(values, arrays):
            hi = lo + x.shape[axis]
            if isinstance(v, Value):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                v._accumulate(g[tuple(sl)])
            lo = hi

    return _node(np.concatenate(arrays, axis=axis), parents, backward)


def mix(rows, values):
    """Stacked linear combinations of equal-shape values by a fixed table.

    Component k folds rows[k, j] * values[j] over the nonzero entries of row
    k, in column order, so a one-hot row copies its value bit for bit. The K
    components are stacked component-major along the first axis: n x d
    values give a (K n) x d result, in the values' dtype. Backward gives
    values[j] the sum over k of rows[k, j] times component k's gradient.
    """
    rows = np.asarray(rows, dtype=np.float64)
    arrays, parents = _unwrap(values)
    if rows.ndim != 2 or rows.shape[1] != len(arrays):
        raise ValueError(f"rows shape {rows.shape} does not match {len(arrays)} values")
    shape = arrays[0].shape
    if any(x.shape != shape for x in arrays):
        raise ValueError("mix needs values of one shape")
    # np.nonzero lists the entries row by row, in column order within a row
    ks, js = np.nonzero(rows)
    entries = list(zip(ks.tolist(), js.tolist(), rows[ks, js].tolist()))
    if len(set(ks.tolist())) < rows.shape[0]:
        raise ValueError(f"row {np.flatnonzero(~rows.any(axis=1))[0]} has no nonzero entry")
    out = np.empty((rows.shape[0], *shape), dtype=np.result_type(*arrays))
    first = -1
    for k, j, c in entries:
        if k != first:
            np.multiply(c, arrays[j], out=out[k])
            first = k
        else:
            out[k] += c * arrays[j]

    def backward(g):
        per_value = rows.T @ g.reshape(rows.shape[0], -1)
        for v, grad in zip(values, per_value):
            if isinstance(v, Value):
                v._accumulate(grad.reshape(shape))

    return _node(out.reshape(rows.shape[0] * shape[0], *shape[1:]), parents, backward)


def reciprocal(a):
    """1/x."""
    return _unary(a, lambda x: 1.0 / x, lambda g, x, y: g * -(y * y))


def sqrt(a):
    """sqrt(x) for positive x."""
    return _unary(a, np.sqrt, lambda g, x, y: g * (0.5 / y))


def weighted_loglik(x, out, weights, terms, slope):
    """Weighted log-likelihood sum(weights * terms(x, out)), as one node.

    `terms(x, out)` is the elementwise log density of data x given decoder
    output out, and `slope(gw, x, out)` its derivative in out times gw, the
    incoming gradient times the weights. `x` and `weights` are data, so the
    gradient flows into `out` only. `out` stacks k blocks of x's rows: x is
    b x ... and out (k b) x ..., read as a k x b x ... view, so that one x
    serves every block without being copied; weights with a row per out row
    are read the same way. The sum runs in the flat order of the stacked
    rows. Backward is slope(g * weights, x, out) on that view, so it keeps
    nothing from forward but the view.
    """
    if isinstance(x, Value) or isinstance(weights, Value):
        raise ValueError("weighted_loglik differentiates through out only")
    (z,), parents = _unwrap((out,))
    x = np.asarray(x)
    weights = np.asarray(weights)
    b = len(x) if x.ndim else 0
    k = len(z) // b if b and z.ndim else 0
    if not x.ndim or z.shape != (k * b, *x.shape[1:]):
        raise ValueError(f"output shape {z.shape} is not a stack of x's shape {x.shape}")
    stacked = (k, b, *x.shape[1:])
    zk = z.reshape(stacked)
    if weights.ndim == z.ndim and len(weights) == len(z):
        weights = weights.reshape(stacked[:2] + weights.shape[1:])

    def backward(g):
        grad = _unbroadcast(slope(g * weights, x, zk), stacked)
        out._accumulate(grad.reshape(z.shape))

    return _node(np.sum(terms(x, zk) * weights), parents, backward)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_in_order(task, items) -> list:
    """[task(item) for item in items], on a pool of one thread per CPU; with
    one CPU no thread is started.

    numpy releases the interpreter lock in its array loops and BLAS, so the
    threads overlap. Each call runs in its own copy of the caller's context:
    a new thread does not inherit context variables such as np.errstate. The
    pool starts the items in order and, once a call has raised, starts no
    further call, so the earliest item's error is the one raised, as the
    serial loop would raise it. On an error or an interrupt, the items not
    yet started are cancelled and the running ones finish first.
    """
    workers = min(len(items), _cpu_count())
    if workers <= 1:
        return [task(item) for item in items]
    # imported here: it costs about 10 ms, which aggregate need not pay
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()

    def run(context, item):
        if failed.is_set():
            return None  # never read: map raises an earlier item's error
        try:
            return context.run(task, item)
        except BaseException:
            failed.set()
            raise

    contexts = [contextvars.copy_context() for _ in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, contexts, items))


def fork_sum(x, branches, grad):
    """The sum of branch(x) over `branches`, each branch differentiated on a
    tape of its own as soon as it is built.

    Returns (sum node, [branch outputs]). x is a Value. Each branch is called
    with a private leaf over x's data, not a copy, and returns a Value; all
    outputs have one shape, and the sum folds them left to right as a chain
    of `add` would. A branch may read its leaf, raw arrays and leaves such
    as parameters, but no other node of the caller's tape: every node it
    computes must derive from its leaf. No two branches may share a node.
    A raw x, and a branch that breaks these rules, raise ValueError; a rule
    that spans two branches is checked once all have run, so leaf gradients
    may have changed by then.

    `grad` is the gradient the sum will receive in backward, in every entry;
    the caller knows it when the loss is linear in the sum. Each branch's
    output is seeded with it and its tape run backward at once, releasing
    each computed node, the output included, as every backward does, so a
    branch's activations are freed layer by layer before the next branch
    starts. Leaves, the private one included, keep their gradients. A branch
    whose output is not finite is not run backward. When x has at least
    FORK_THREAD_ROWS rows, the branches are built and differentiated by
    _map_in_order, on one pool thread per CPU, so each thread holds one
    branch at a time; smaller forks run on the calling thread.

    The sum's backward checks that the incoming gradient equals `grad` bit
    for bit, and that no branch was skipped, raising ValueError otherwise;
    it then adds the private leaves' gradients into x in branch order. The
    sum, the branch outputs and every leaf gradient then equal, bit for bit,
    those of the branches built on one tape, for leaves that only the
    branches read.
    """
    if not isinstance(x, Value):
        raise ValueError("fork_sum needs a Value input")
    grad = float(grad)

    def differentiate(branch):
        leaf = Value(x.data)
        out = branch(leaf)
        if not isinstance(out, Value):
            raise ValueError("a fork branch must return a Value")
        order = _tape(out)
        # the tape's leaves, kept alive until every branch is checked, so
        # that no id compared across branches is reused by a new node
        leaves = []
        derived = {id(leaf)}
        for node in order:
            if node is x:
                raise ValueError("a fork branch reaches x or another branch's node")
            if node._parents:
                if not any(id(parent) in derived for parent in node._parents):
                    raise ValueError(
                        "a fork branch reads a computed node not derived from its input"
                    )
                derived.add(id(node))
            else:
                leaves.append(node)
        finite = bool(np.isfinite(out.data).all())
        if finite:  # else the sum's backward raises
            out._accumulate(np.full(out.data.shape, grad))
            _run_tape(order)
        return leaf, out, leaves, finite

    if x.data.ndim and len(x.data) >= FORK_THREAD_ROWS:
        results = _map_in_order(differentiate, list(branches))
    else:
        results = [differentiate(branch) for branch in branches]
    private, outs, leaves, finite = zip(*results)
    seen = set()
    for out, branch_leaves in zip(outs, leaves):
        if out.data.shape != outs[0].data.shape:
            raise ValueError("fork branches must return one shape")
        ids = {id(node) for node in branch_leaves}
        if not seen.isdisjoint(ids):
            raise ValueError("a fork branch reaches x or another branch's node")
        seen |= ids
    total = outs[0].data
    for out in outs[1:]:
        total = total + out.data
    expected = np.full(total.shape, grad)
    skipped = [i for i, ok in enumerate(finite) if not ok]

    def backward(g):
        g = np.asarray(g)
        if g.shape != expected.shape or g.astype(np.float64).tobytes() != expected.tobytes():
            got = g.item() if g.size == 1 else g
            raise ValueError(
                f"fork_sum's branches were differentiated for gradient {grad!r}, "
                f"but the sum received {got!r}"
            )
        if skipped:
            raise ValueError(f"fork branch {skipped[0]} was not differentiated: not finite")
        for leaf in private:
            if leaf._grad is not None:
                x._accumulate(leaf._grad)

    return Value(total, (x,), backward), list(outs)


class ParamStore:
    """Named float64 parameter tensors with Adam moment buffers."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, array: np.ndarray) -> None:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.asarray(array, dtype=np.float64)
        self.params[name] = arr
        self.moment1[name] = np.zeros_like(arr)
        self.moment2[name] = np.zeros_like(arr)

    def names(self):
        return list(self.params)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    def as_values(self) -> dict:
        """Leaf Values over the stored arrays themselves, not copies: the
        tape never writes into a Value's data, and adam_step updates the
        store only after backward()."""
        return {name: Value(arr) for name, arr in self.params.items()}


def adam_step(store: ParamStore, gradients: dict, lr: float = 1e-3) -> ParamStore:
    """Bias-corrected Adam update applied in place, with ADAM_BETA1,
    ADAM_BETA2 and ADAM_EPS; returns the store."""
    for name in store.names():
        if name not in gradients:
            raise ValueError(f"missing gradient for parameter {name!r}")
    store.step += 1
    t = store.step
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    for name in store.names():
        g = np.asarray(gradients[name], dtype=np.float64)
        m = store.moment1[name]
        v = store.moment2[name]
        # In place, with the operands of m = beta1 m + (1 - beta1) g,
        # v = beta2 v + (1 - beta2) g g and lr m_hat / (sqrt(v_hat) + eps) in
        # that order, so every bit is as those formulas give it.
        buf = g * (1.0 - beta1)
        m *= beta1
        m += buf
        np.multiply(g, 1.0 - beta2, out=buf)
        buf *= g
        v *= beta2
        v += buf
        np.divide(v, 1.0 - beta2**t, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        step = m / (1.0 - beta1**t)
        step *= lr
        step /= buf
        store.params[name] -= step
    return store
