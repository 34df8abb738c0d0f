"""Reverse-mode autodiff over float64 numpy arrays, plus Adam.

A Value wraps an array and records how it was produced; backward() walks the
tape in reverse topological order accumulating gradients. A gradient is
allocated only when the first one arrives: that array is stored as it comes,
and later ones are added out of place, so arrays shared between nodes are
never written into. Raw arrays and floats handed to a primitive are constants:
they receive no gradient, and backward() neither visits nor differentiates
them, nor any result computed from constants alone. The primitive set is the
model's: dense (one network layer, h @ w + b with an optional tanh),
broadcasting add and multiply, softplus, log, reciprocal, sqrt, sum, square,
mix (stacked fixed linear combinations, the barycentric kernel's one
primitive) and a fused weighted Bernoulli log-likelihood, bernoulli_loglik.
matmul, tanh, exp and concat are unused by the model; they stay because
perfbench's per-primitive trace patches them by name.

fork_sum sums independent branches of one input, each built and run backward
on a tape of its own; once the input has FORK_THREAD_ROWS rows, on the
calling thread plus one thread per further CPU (_map_in_order, which
evaluation uses too). Its gradients equal those of one tape bit for bit.
Everything is deterministic, whatever the CPU count; randomness is drawn
outside the graph from counter-based Philox streams and injected as
constants.
"""

from __future__ import annotations

import contextvars
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

    A constant holds data the loss is not differentiated by: it gets no
    gradient buffer and backward() never visits it. Raw arrays and floats
    handed to a primitive become constants, and so does the result of a
    primitive whose operands are all constants.
    """

    __slots__ = ("data", "constant", "_grad", "_owns_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, constant=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.constant = constant
        self._grad = None
        self._owns_grad = False
        self._parents = parents
        self._backward = backward

    @property
    def grad(self):
        """The accumulated gradient: None for a constant, zeros before any.

        The array returned belongs to this node alone, so `node.grad += g`
        in a custom primitive's backward cannot reach another node.
        """
        if self.constant:
            return None
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        elif not self._owns_grad:
            self._grad = np.array(self._grad)
        self._owns_grad = True
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value
        self._owns_grad = True

    def _accumulate(self, g, owned=False):
        """Add g to the gradient without writing into any array.

        The first gradient is stored as it comes, so it may be shared with
        another node or be a read-only view, unless the caller passes
        `owned` for an array it made for this node alone; later ones add
        out of place.
        """
        if self._grad is None:
            self._grad = g
            self._owns_grad = owned
        else:
            self._grad = self._grad + g
            self._owns_grad = True

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Value(shape={self.data.shape})"

    def backward(self):
        """Accumulate d(self)/d(node) into every node's .grad; self is scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.data.shape}")
        if self.constant:
            return
        self.grad = np.ones_like(self.data)
        _run_tape(_tape(self))


def _tape(root: Value) -> list:
    """The non-constant nodes `root` depends on, each after its parents."""
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
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if not parent.constant and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _run_tape(order: list, release=False) -> None:
    """Run the backward of every node in `order` that holds a gradient, last
    node first; with `release`, each such gradient is dropped once passed on."""
    for node in reversed(order):
        if node._backward is not None and node._grad is not None:
            node._backward(node._grad)
            if release:
                node._grad = None
            else:
                # the parents may now hold views of this gradient
                node._owns_grad = False


def _as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x, constant=True)


def _node(data, parents, backward) -> Value:
    """A primitive's result: a constant unless some operand is not."""
    if all(p.constant for p in parents):
        return Value(data, constant=True)
    return Value(data, parents, backward)


def add(a, b) -> Value:
    a, b = _as_value(a), _as_value(b)

    def backward(g):
        if not a.constant:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if not b.constant:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), backward)


def mul(a, b) -> Value:
    a, b = _as_value(a), _as_value(b)

    def backward(g):
        if not a.constant:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if not b.constant:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), backward)


def matmul(a, b) -> Value:
    a, b = _as_value(a), _as_value(b)

    def backward(g):
        if not a.constant:
            a._accumulate(g @ b.data.T)
        if not b.constant:
            b._accumulate(a.data.T @ g)

    return _node(a.data @ b.data, (a, b), backward)


def dense(h, w, b, tanh=False) -> Value:
    """One network layer: h @ w + b, passed through tanh when `tanh` is set.

    One node and one array where the composed layer takes three. Value and
    gradients equal, bit for bit, those of tanh(add(matmul(h, w), b)), or
    add(matmul(h, w), b) without tanh.
    """
    h, w, b = _as_value(h), _as_value(w), _as_value(b)
    y = h.data @ w.data
    y += b.data
    if tanh:
        np.tanh(y, out=y)

    def backward(g):
        if tanh:
            g = g * (1.0 - y * y)
        # the weight product, and the bias sum over a batch, are new arrays
        if not b.constant:
            b._accumulate(_unbroadcast(g, b.data.shape), owned=g.ndim > b.data.ndim)
        if not h.constant:
            h._accumulate(g @ w.data.T)
        if not w.constant:
            w._accumulate(h.data.T @ g, owned=True)

    return _node(y, (h, w, b), backward)


def _unary(a, fn, dfn) -> Value:
    a = _as_value(a)
    y = fn(a.data)

    def backward(g):
        a._accumulate(g * dfn(a.data, y))

    return _node(y, (a,), backward)


def tanh(a) -> Value:
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y)


def _softplus(x, e=None):
    """log(1 + exp(x)) without overflow; `e` is exp(-|x|) when already known."""
    if e is None:
        e = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(e)


def _sigmoid(x, e=None):
    """1 / (1 + exp(-x)) without overflow; `e` is exp(-|x|) when already known."""
    if e is None:
        e = np.exp(-np.abs(x))
    # the mask is 1 for x >= 0, where e <= 1, and 0 otherwise, where e >= 0:
    # the maximum picks 1 or e, as np.where(x >= 0, 1.0, e) would, bit for bit
    return np.maximum(e, x >= 0) / (1.0 + e)


def softplus(a) -> Value:
    return _unary(a, _softplus, lambda x, y: _sigmoid(x))


def exp(a) -> Value:
    return _unary(a, np.exp, lambda x, y: y)


def log(a) -> Value:
    return _unary(a, np.log, lambda x, y: 1.0 / x)


def square(a) -> Value:
    return _unary(a, np.square, lambda x, y: 2.0 * x)


def vsum(a) -> Value:
    a = _as_value(a)

    def backward(g):
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _node(np.sum(a.data), (a,), backward)


def concat(values, axis: int = 0) -> Value:
    values = [_as_value(v) for v in values]
    sizes = [v.data.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for v, lo, hi in zip(values, offsets[:-1], offsets[1:]):
            if not v.constant:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                v._accumulate(g[tuple(sl)])

    data = np.concatenate([v.data for v in values], axis=axis)
    return _node(data, tuple(values), backward)


def mix(rows, values) -> Value:
    """Stacked linear combinations of equal-shape values by a fixed table.

    Component k folds rows[k, j] * values[j] over the nonzero entries of row
    k, in column order, so a one-hot row copies its value bit for bit. The K
    components are stacked component-major along the first axis: n x d
    values give a (K n) x d result. Backward gives values[j] the sum over k
    of rows[k, j] times component k's gradient.
    """
    rows = np.asarray(rows, dtype=np.float64)
    values = [_as_value(v) for v in values]
    if rows.ndim != 2 or rows.shape[1] != len(values):
        raise ValueError(f"rows shape {rows.shape} does not match {len(values)} values")
    shape = values[0].data.shape
    if any(v.data.shape != shape for v in values):
        raise ValueError("mix needs values of one shape")
    # np.nonzero lists the entries row by row, in column order within a row
    ks, js = np.nonzero(rows)
    entries = list(zip(ks.tolist(), js.tolist(), rows[ks, js].tolist()))
    if len(set(ks.tolist())) < rows.shape[0]:
        raise ValueError(f"row {np.flatnonzero(~rows.any(axis=1))[0]} has no nonzero entry")
    out = np.empty((rows.shape[0], *shape))
    first = -1
    for k, j, c in entries:
        if k != first:
            np.multiply(c, values[j].data, out=out[k])
            first = k
        else:
            out[k] += c * values[j].data

    def backward(g):
        per_value = rows.T @ g.reshape(rows.shape[0], -1)
        for v, grad in zip(values, per_value):
            if not v.constant:
                v._accumulate(grad.reshape(shape))

    return _node(out.reshape(rows.shape[0] * shape[0], *shape[1:]), tuple(values), backward)


def reciprocal(a) -> Value:
    """1/x."""
    return _unary(a, lambda x: 1.0 / x, lambda x, y: -(y * y))


def sqrt(a) -> Value:
    """sqrt(x) for positive x."""
    return _unary(a, np.sqrt, lambda x, y: 0.5 / y)


def bernoulli_loglik(x, logits, weights) -> Value:
    """Weighted Bernoulli log-likelihood sum(weights * (x*logits - softplus(logits))).

    `x` and `weights` are data, so the gradient flows into `logits` only.
    One exp(-|logits|) pass serves both the softplus and its derivative, the
    sigmoid. Value and gradient equal, bit for bit, those of
    vsum(mul(add(mul(x, logits), mul(softplus(logits), -1.0)), weights)).
    """
    x, logits, weights = _as_value(x), _as_value(logits), _as_value(weights)
    if not (x.constant and weights.constant):
        raise ValueError("bernoulli_loglik differentiates through logits only")
    z = logits.data
    e = np.exp(-np.abs(z))

    def backward(g):
        gw = g * weights.data
        logits._accumulate(_unbroadcast(gw * x.data - gw * _sigmoid(z, e), z.shape))

    ll = x.data * z - _softplus(z, e)
    return _node(np.sum(ll * weights.data), (logits,), backward)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_in_order(task, items) -> list:
    """[task(item) for item in items], on the calling thread plus one pool
    thread per further CPU; with one CPU no thread is started.

    numpy releases the interpreter lock in its array loops and BLAS, so the
    threads overlap. Each call runs in its own copy of the caller's context:
    a new thread does not inherit context variables such as np.errstate. If
    calls raise, the earliest item's error is raised, as the serial loop
    would; items after a failed one are not started.
    """
    workers = min(len(items), _cpu_count())
    if workers <= 1:
        return [task(item) for item in items]
    # imported here: it costs about 10 ms, which aggregate need not pay
    from concurrent.futures import ThreadPoolExecutor

    contexts = [contextvars.copy_context() for _ in items]
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    next_item, stop = 0, len(items)

    def drain():
        nonlocal next_item, stop
        while True:
            with lock:
                i = next_item
                if i >= stop:
                    return
                next_item += 1
            try:
                results[i] = contexts[i].run(task, items[i])
            except Exception as err:  # raised below, in item order
                with lock:
                    errors[i] = err
                    stop = min(stop, i)

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(drain) for _ in range(workers - 1)]
        try:
            drain()
        except BaseException:
            # interrupted: the workers finish their current item and stop
            with lock:
                stop = 0
            raise
        for future in futures:
            future.result()
    if errors:
        raise errors[min(errors)]
    return results


def _map_serial(task, items) -> list:
    return [task(item) for item in items]


def fork_sum(x, branches):
    """The sum of branch(x) over `branches`, each branch on a tape of its own.

    Returns (sum node, [branch outputs]). Each branch is called with a
    private leaf over x's data, not a copy, and returns a Value; all outputs
    have one shape, and the sum folds them left to right as a chain of `add`
    would. A branch may read its leaf, constants and leaves such as
    parameters, but no other node of the caller's tape: every node it
    computes must derive from its leaf. No two branches may share a node.
    A branch that breaks these rules raises ValueError.

    Backward seeds every branch's tape with the incoming gradient, then adds
    the private leaves' gradients into x in branch order, so the sum, the
    branch outputs and every leaf gradient equal, bit for bit, those of the
    branches built on one tape. Each computed node of a branch, its output
    included, drops its gradient once passed on, so that branches running
    at once hold less memory: afterwards their .grad reads zeros. When x
    has at least FORK_THREAD_ROWS rows, the branches are built, and their
    tapes run backward, by _map_in_order: on the calling thread plus one
    thread per further CPU; smaller forks run on the calling thread.
    """
    x = _as_value(x)
    if x.data.ndim and len(x.data) >= FORK_THREAD_ROWS:
        run = _map_in_order
    else:
        run = _map_serial

    def build(branch):
        leaf = Value(x.data, constant=x.constant)
        out = branch(leaf)
        return leaf, out, [] if out.constant else _tape(out)

    forks = run(build, list(branches))
    outs = [out for _, out, _ in forks]
    seen = {id(x)}
    for out, (leaf, _, order) in zip(outs, forks):
        if out.data.shape != outs[0].data.shape:
            raise ValueError("fork branches must return one shape")
        derived = {id(leaf)}
        for node in order:
            if id(node) in seen:
                raise ValueError("a fork branch reaches x or another branch's node")
            seen.add(id(node))
            if node._parents:
                if not any(id(parent) in derived for parent in node._parents):
                    raise ValueError(
                        "a fork branch reads a computed node not derived from its input"
                    )
                derived.add(id(node))
    total = outs[0].data
    for out in outs[1:]:
        total = total + out.data

    def backward(g):
        def propagate(fork):
            _, out, order = fork
            if order:
                out._accumulate(g)
                _run_tape(order, release=True)

        run(propagate, forks)
        if not x.constant:
            for leaf, _, _ in forks:
                if leaf._grad is not None:
                    x._accumulate(leaf._grad)

    if x.constant and all(out.constant for out in outs):
        return Value(total, constant=True), outs
    return Value(total, (x,), backward), outs


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


def adam_step(
    store: ParamStore,
    gradients: dict,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamStore:
    """Bias-corrected Adam update applied in place; returns the store."""
    for name in store.names():
        if name not in gradients:
            raise ValueError(f"missing gradient for parameter {name!r}")
    store.step += 1
    t = store.step
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
