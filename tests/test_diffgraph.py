import math
import platform
import re
import sys
import threading

import numpy as np
import pytest

import baryvae.diffgraph as dg
import baryvae.mmvae as mm
from baryvae.errors import NumericError

from gradcheck import forward_backward, grad_check
from oracles import masked_sigmoid


BERN_X = (np.random.default_rng(59).uniform(size=(4, 3)) < 0.5).astype(np.float64)
BERN_W = np.array([[0.5], [1.0], [0.25], [2.0]])
GAUSS_X = np.random.default_rng(65).standard_normal((4, 3))
# (terms, slope) of each decoder likelihood, as training passes them
BERNOULLI = mm.DECODER_LIKELIHOODS["bernoulli"][:2]
GAUSSIAN = mm.DECODER_LIKELIHOODS["gaussian"][:2]
# two components over two parameters and a raw column, with a zero entry
MIX_ROWS = np.array([[0.3, 0.0, 1.0], [1.5, -0.7, 0.2]])
MIX_CONST = np.random.default_rng(60).standard_normal((4, 3))


def assert_grads_read_only(*nodes):
    """Each node's .grad is its stored gradient, not a copy, and writing into
    it raises without changing any node's gradient."""
    before = [node.grad.tobytes() for node in nodes]
    for node in nodes:
        assert np.shares_memory(node.grad, node._grad)
        with pytest.raises(ValueError):
            node.grad += 1.0
        assert [other.grad.tobytes() for other in nodes] == before


def make_store(**arrays):
    store = dg.ParamStore()
    for name, arr in arrays.items():
        store.add(name, np.asarray(arr, dtype=np.float64))
    return store


class TestForwardBackward:
    def test_sum_of_squares(self):
        store = make_store(x=[1.0, 2.0])
        loss, grads = forward_backward(lambda v: dg.vsum(dg.square(v["x"])), store)
        assert loss == 5.0
        assert np.array_equal(grads["x"], [2.0, 4.0])

    def test_constant_loss_zero_grads(self):
        store = make_store(x=[1.0, -1.0])
        loss, grads = forward_backward(
            lambda v: dg.add(dg.mul(dg.vsum(v["x"]), 0.0), 3.0), store
        )
        assert loss == 3.0
        assert np.array_equal(grads["x"], [0.0, 0.0])

    def test_two_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        store = make_store(
            w1=0.4 * rng.standard_normal((3, 6)),
            b1=0.1 * rng.standard_normal(6),
            w2=0.4 * rng.standard_normal((6, 2)),
            b2=0.1 * rng.standard_normal(2),
        )
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 2))

        def build(v):
            h = dg.dense(x, v["w1"], v["b1"], tanh=True)
            out = dg.dense(h, v["w2"], v["b2"])
            return dg.mul(dg.vsum(dg.square(dg.add(out, -y))), 1.0 / y.size)

        assert grad_check(build, store, 1e-5) < 1e-6

    def test_non_scalar_loss_rejected(self):
        store = make_store(x=[1.0, 2.0])
        with pytest.raises(ValueError):
            forward_backward(lambda v: dg.square(v["x"]), store)

    def test_reused_node_accumulates(self):
        store = make_store(x=[3.0])

        def build(v):
            # x appears twice: d/dx (x*x + x) = 2x + 1
            return dg.vsum(dg.add(dg.mul(v["x"], v["x"]), v["x"]))

        _, grads = forward_backward(build, store)
        assert np.array_equal(grads["x"], [7.0])


class TestBackwardConsumesGraph:
    """backward releases every computed node as it runs: only leaves keep
    gradients, and a second pass through a used node raises."""

    def test_second_backward_raises_and_keeps_leaf_gradients(self):
        x = dg.Value([1.0, 2.0])
        loss = dg.vsum(dg.square(dg.mul(x, 2.0)))
        loss.backward()
        assert np.array_equal(x.grad, [8.0, 16.0])
        with pytest.raises(ValueError, match="backward has already run through a node"):
            loss.backward()
        assert np.array_equal(x.grad, [8.0, 16.0])

    def test_backward_through_a_used_node_raises(self):
        x = dg.Value([1.0, 2.0])
        y = dg.mul(x, 2.0)
        dg.vsum(dg.square(y)).backward()
        # the forward still computes on y's data; differentiating it does not
        reused = dg.vsum(dg.mul(dg.add(y, x), 3.0))
        assert float(reused.data) == 27.0
        with pytest.raises(ValueError, match="backward has already run through a node"):
            reused.backward()
        assert np.array_equal(x.grad, [8.0, 16.0])

    def test_only_leaves_keep_gradients(self):
        store = make_store(w=[[1.0, -2.0], [0.5, 3.0]], b=[0.25, -1.0])
        values = store.as_values()
        h = dg.dense(np.array([[1.0, 2.0]]), values["w"], values["b"], tanh=True)
        loss = dg.vsum(dg.mul(dg.softplus(h), dg.square(h)))
        computed = [node for node in dg._tape(loss) if node._parents]
        assert len(computed) == 5
        loss.backward()
        for node in computed:
            assert node._parents == () and node._backward is None
            assert node.grad.shape == node.shape and not node.grad.any()
        assert values["w"].grad.any() and values["b"].grad.any()


class TestPrimitives:
    """Every primitive's backward is covered by the central-difference check."""

    @pytest.mark.parametrize(
        "name,build",
        [
            ("matmul", lambda v: dg.vsum(dg.matmul(v["a2"], v["b2"]))),
            ("add", lambda v: dg.vsum(dg.add(v["a2"], v["c2"]))),
            ("broadcast_add", lambda v: dg.vsum(dg.add(v["a2"], v["row"]))),
            ("mul", lambda v: dg.vsum(dg.mul(v["a2"], v["c2"]))),
            ("tanh", lambda v: dg.vsum(dg.tanh(v["a2"]))),
            ("dense", lambda v: dg.vsum(dg.square(dg.dense(v["b2"], v["a2"], v["row"])))),
            ("dense_tanh", lambda v: dg.vsum(dg.dense(v["b2"], v["a2"], v["row"], tanh=True))),
            ("softplus", lambda v: dg.vsum(dg.softplus(v["a2"]))),
            ("exp", lambda v: dg.vsum(dg.exp(v["a2"]))),
            ("log", lambda v: dg.vsum(dg.log(dg.add(dg.square(v["a2"]), 0.5)))),
            ("sum", lambda v: dg.vsum(v["a2"])),
            ("square", lambda v: dg.vsum(dg.square(v["a2"]))),
            ("concat", lambda v: dg.vsum(dg.concat([v["a2"], v["c2"]], axis=0))),
            ("concat_axis1", lambda v: dg.vsum(dg.square(dg.concat([v["a2"], v["c2"]], axis=1)))),
            ("reciprocal", lambda v: dg.vsum(dg.reciprocal(dg.add(dg.square(v["a2"]), 1.0)))),
            ("sqrt", lambda v: dg.vsum(dg.sqrt(dg.add(dg.square(v["a2"]), 1.0)))),
            ("reciprocal_negative", lambda v: dg.vsum(dg.reciprocal(dg.add(v["a2"], -4.0)))),
            ("sqrt_small", lambda v: dg.vsum(dg.sqrt(dg.add(dg.square(v["a2"]), 0.05)))),
            (
                "bernoulli_loglik",
                lambda v: dg.weighted_loglik(BERN_X, dg.mul(v["a2"], 3.0), BERN_W, *BERNOULLI),
            ),
            (
                "gaussian_loglik",
                lambda v: dg.weighted_loglik(GAUSS_X, dg.mul(v["a2"], 3.0), BERN_W, *GAUSSIAN),
            ),
            (
                "mix",
                lambda v: dg.vsum(dg.square(dg.mix(MIX_ROWS, [v["a2"], v["c2"], MIX_CONST]))),
            ),
        ],
    )
    def test_grad_check(self, name, build):
        rng = np.random.default_rng(52)
        store = make_store(
            a2=rng.standard_normal((4, 3)),
            b2=rng.standard_normal((3, 4)),
            c2=rng.standard_normal((4, 3)),
            row=rng.standard_normal(3),
        )
        assert grad_check(build, store, 1e-5) < 1e-6


def composed_bernoulli(x, logits, weights):
    return dg.vsum(
        dg.mul(dg.add(dg.mul(dg.Value(x), logits), dg.mul(dg.softplus(logits), -1.0)), weights)
    )


def composed_gaussian(x, out, weights):
    """The Gaussian log-likelihood as training composed it before the fused
    primitive: x tiled over the stacked blocks, seven nodes, and the
    normalizing constant added once, which is right for weights summing to 1."""
    sigma = mm.GAUSSIAN_LIK_SIGMA
    x_rep = np.tile(x, (len(out.data) // len(x), 1))
    sq = dg.square(dg.add(x_rep, dg.mul(out, -1.0)))
    const = -x.shape[1] * (math.log(sigma) + 0.5 * math.log(2.0 * math.pi))
    return dg.add(dg.vsum(dg.mul(dg.mul(sq, -0.5 / sigma**2), weights)), const)


TAPE_DIET_C = np.random.default_rng(66).standard_normal((3, 3))


def dense_hw(p, q):
    """dense with p as the input and q as the weight, over a raw bias."""
    return dg.dense(p, q, TAPE_DIET_C)


def dense_wb(p, q):
    """dense with p as the weight and q as the bias, over a raw input."""
    return dg.dense(TAPE_DIET_C, p, q, tanh=True)


def mix_columns(p, q):
    """mix with p and q as its first two columns and a raw third."""
    return dg.mix(MIX_ROWS, [p, q, TAPE_DIET_C])


class TestTapeDiet:
    """Raw arrays stay raw; fused and direct primitives keep the numbers."""

    @pytest.mark.parametrize("op", [dg.matmul, dg.mul, dg.add, dense_hw, dense_wb, mix_columns])
    @pytest.mark.parametrize("raw_first", [True, False])
    def test_raw_operand_gets_no_gradient(self, op, raw_first):
        # dense_hw and dense_wb between them make h, w and b raw in turn
        rng = np.random.default_rng(55)
        store = make_store(w=rng.standard_normal((3, 3)))
        x = rng.standard_normal((3, 3))
        outs = []

        def build(wrap):
            def loss(v):
                operand = dg.Value(x) if wrap else x
                pair = (operand, v["w"]) if raw_first else (v["w"], operand)
                out = op(*pair)
                # the parents as built: backward releases them
                outs.append((out._parents, operand, v["w"]))
                return dg.vsum(dg.square(dg.tanh(out)))

            return loss

        _, raw_grads = forward_backward(build(False), store)
        parents, _, leaf = outs[-1]
        assert parents == (leaf,)
        _, leaf_grads = forward_backward(build(True), store)
        parents, operand, leaf = outs[-1]
        assert parents == ((operand, leaf) if raw_first else (leaf, operand))
        assert operand._grad is not None
        assert raw_grads["w"].tobytes() == leaf_grads["w"].tobytes()

    def test_raw_operands_give_raw_result(self):
        x = np.arange(3.0)
        out = dg.add(dg.mul(np.ones(3), 2.0), dg.square(x))
        assert type(out) is np.ndarray
        assert out.tobytes() == (np.ones(3) * 2.0 + np.square(x)).tobytes()
        loss = dg.vsum(out)
        assert type(loss) is np.float64 and float(loss) == 11.0
        # a Python float operand keeps a float32 array's dtype
        half = np.ones((2, 3), dtype=np.float32)
        assert dg.add(dg.softplus(half), 1e-6).dtype == np.float32
        assert dg.dense(half, half.T, np.zeros(2, np.float32), tanh=True).dtype == np.float32

    def test_gradient_buffers_are_lazy_and_private(self):
        store = make_store(x=[1.0, 2.0], y=[3.0, 4.0])
        values = store.as_values()
        s = dg.add(values["x"], values["y"])
        assert np.array_equal(s.grad, [0.0, 0.0]) and not s.grad.flags.writeable
        assert s._grad is None and values["x"]._grad is None
        dg.vsum(dg.square(s)).backward()
        # add hands x and y the same array; neither may write into it
        assert np.shares_memory(values["x"]._grad, values["y"]._grad)
        assert_grads_read_only(values["x"], values["y"])
        with pytest.raises(AttributeError):
            values["x"].grad = np.zeros(2)
        assert np.array_equal(values["x"].grad, [8.0, 12.0])
        assert np.array_equal(values["y"].grad, [8.0, 12.0])

    def test_writing_an_intermediate_gradient_keeps_parents(self):
        # s hands its own gradient array on to x and y; it holds it until its
        # backward has run, so it is checked there
        store = make_store(x=[1.0, 2.0], y=[3.0, 4.0])
        values = store.as_values()
        s = dg.add(values["x"], values["y"])
        backward, checked = s._backward, []

        def check_after(g):
            backward(g)
            assert_grads_read_only(s, values["x"], values["y"])
            with pytest.raises(ValueError):
                s.grad[:] = 0.0
            checked.append(s.grad.tolist())

        s._backward = check_after
        dg.vsum(dg.mul(s, s)).backward()
        assert checked == [[8.0, 12.0]]
        assert np.array_equal(values["x"].grad, [8.0, 12.0])
        assert np.array_equal(values["y"].grad, [8.0, 12.0])

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_later_accumulation_keeps_shared_gradients(self, shared_first):
        # add hands x and y one array; x's second gradient must not reach y
        store = make_store(x=[1.0, -1.0], y=[0.5, 2.0])
        c, d = np.array([3.0, 5.0]), np.array([7.0, 11.0])

        def build(v):
            terms = [dg.vsum(dg.mul(dg.add(v["x"], v["y"]), c)), dg.vsum(dg.mul(v["x"], d))]
            if not shared_first:
                terms.reverse()
            return dg.add(*terms)

        _, grads = forward_backward(build, store)
        assert np.array_equal(grads["x"], c + d)
        assert np.array_equal(grads["y"], c)

    @pytest.mark.parametrize("custom_first", [True, False])
    def test_custom_inplace_backward_keeps_shared_gradients(self, custom_first):
        # d/dx [sum(c * (x + y)) + sum(2x)] = c + 2, d/dy = c
        store = make_store(x=[1.0, -1.0], y=[0.5, 2.0])
        c = np.array([3.0, 5.0])

        def doubled(a):
            out = dg.Value(2.0 * a.data, parents=(a,))

            def backward(g):
                a._accumulate(2.0 * g)

            out._backward = backward
            return out

        def build(v):
            terms = [dg.vsum(dg.mul(dg.add(v["x"], v["y"]), c)), dg.vsum(doubled(v["x"]))]
            if custom_first:
                terms.reverse()
            return dg.add(*terms)

        values = store.as_values()
        build(values).backward()
        assert np.array_equal(values["x"].grad, c + 2.0)
        assert np.array_equal(values["y"].grad, c)
        assert_grads_read_only(values["x"], values["y"])

    def test_bernoulli_loglik_matches_composed_chain_bitwise(self):
        rng = np.random.default_rng(56)
        x = (rng.uniform(size=(64, 20)) < 0.4).astype(np.float64)
        weights = rng.uniform(0.1, 1.0, size=(64, 1))
        store = make_store(logits=8.0 * rng.standard_normal((64, 20)))
        fused_loss, fused = forward_backward(
            lambda v: dg.weighted_loglik(x, v["logits"], weights, *BERNOULLI), store
        )
        chain_loss, chain = forward_backward(
            lambda v: composed_bernoulli(x, v["logits"], weights), store
        )
        assert fused_loss.hex() == chain_loss.hex()
        assert fused["logits"].tobytes() == chain["logits"].tobytes()

    @pytest.mark.parametrize("tanh", [True, False])
    @pytest.mark.parametrize("raw_input", [True, False])
    def test_dense_matches_composed_layer_bitwise(self, tanh, raw_input):
        rng = np.random.default_rng(64)
        x = rng.standard_normal((64, 20))
        weights = rng.standard_normal((64, 16))
        store = make_store(
            h=x, w=0.5 * rng.standard_normal((20, 16)), b=rng.standard_normal(16)
        )

        def composed(h, w, b):
            y = dg.add(dg.matmul(h, w), b)
            return dg.tanh(y) if tanh else y

        def fused(h, w, b):
            out = dg.dense(h, w, b, tanh=tanh)
            assert out._parents == ((w, b) if raw_input else (h, w, b))
            return out

        def loss(layer):
            return lambda v: dg.vsum(
                dg.mul(layer(x if raw_input else v["h"], v["w"], v["b"]), weights)
            )

        fused_loss, fused_grads = forward_backward(loss(fused), store)
        chain_loss, chain_grads = forward_backward(loss(composed), store)
        assert fused_loss.hex() == chain_loss.hex()
        for name in ("h", "w", "b"):
            assert fused_grads[name].tobytes() == chain_grads[name].tobytes()
        if raw_input:
            assert not fused_grads["h"].any()

    @pytest.mark.parametrize("k", [1, 2, 32])
    def test_bernoulli_loglik_broadcasts_x_over_stacked_logits_bitwise(self, k):
        rng = np.random.default_rng(67)
        x = (rng.uniform(size=(64, 20)) < 0.4).astype(np.float64)
        weights = rng.uniform(0.1, 1.0, size=(k * 64, 1))
        store = make_store(logits=8.0 * rng.standard_normal((k * 64, 20)))
        once_loss, once = forward_backward(
            lambda v: dg.weighted_loglik(x, v["logits"], weights, *BERNOULLI), store
        )
        tiled_loss, tiled = forward_backward(
            lambda v: dg.weighted_loglik(np.tile(x, (k, 1)), v["logits"], weights, *BERNOULLI),
            store,
        )
        assert once_loss.hex() == tiled_loss.hex()
        assert once["logits"].tobytes() == tiled["logits"].tobytes()

    @pytest.mark.parametrize("k", [1, 2, 32])
    def test_gaussian_loglik_matches_composed_chain(self, k):
        # Dual route: the fused Gaussian against the composed chain, over
        # training's row weights (component weights over k blocks of b rows,
        # divided by b, so they sum to 1). Both take x - out the same way, so
        # each gradient entry differs by a few roundings of a product of
        # four factors: within 1e-14 relative, about 45 ulps. Every term of
        # the value has one sign (the constant and -sq/(2 sigma^2) are both
        # negative), so the two summation orders agree within 1e-13
        # relative. Measured worst over 600 draws: 2.4e-16 and 4.4e-16.
        rng = np.random.default_rng(68)
        x = rng.standard_normal((64, 20))
        weights = np.repeat(rng.dirichlet(np.ones(k)), 64)[:, None] / 64
        store = make_store(out=np.tile(x, (k, 1)) + rng.standard_normal((k * 64, 20)))
        fused_loss, fused = forward_backward(
            lambda v: dg.weighted_loglik(x, v["out"], weights, *GAUSSIAN), store
        )
        chain_loss, chain = forward_backward(
            lambda v: composed_gaussian(x, v["out"], weights), store
        )
        assert fused_loss == pytest.approx(chain_loss, rel=1e-13, abs=0.0)
        np.testing.assert_allclose(fused["out"], chain["out"], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("logits_shape", [(10, 3), (8, 4), (8,)])
    def test_bernoulli_loglik_rejects_logits_not_stacking_x(self, logits_shape):
        message = f"output shape {logits_shape} is not a stack of x's shape (4, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            dg.weighted_loglik(
                np.zeros((4, 3)), dg.Value(np.zeros(logits_shape)), 1.0, *BERNOULLI
            )

    def test_bernoulli_loglik_rejects_active_data(self):
        store = make_store(x=[1.0, 0.0])
        with pytest.raises(ValueError, match="through out only"):
            forward_backward(
                lambda v: dg.weighted_loglik(v["x"], np.zeros(2), 1.0, *BERNOULLI), store
            )

    def test_sigmoid_matches_masked_formula_bitwise(self):
        special = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0]
        normals = np.random.default_rng(57).standard_normal(4096) * 10.0
        for x in (np.array(special), normals, normals.reshape(64, 64)):
            with np.errstate(over="ignore"):
                expected = masked_sigmoid(x)
            assert dg._sigmoid(x).tobytes() == expected.tobytes()

    def test_sigmoid_matches_where_formula_bitwise(self):
        special = [
            np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
            36.0, -36.0, 709.0, -709.0, 745.1, -745.1, 746.0, -746.0, 800.0, -800.0,
        ]
        normals = np.random.default_rng(61).standard_normal(4096) * 30.0
        for x in (np.array(special), normals, normals.reshape(64, 64)):
            e = np.exp(-np.abs(x))
            with np.errstate(invalid="ignore"):
                expected = np.where(x >= 0, 1.0, e) / (1.0 + e)
                assert dg._sigmoid(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "prim,fn", [(dg.reciprocal, lambda x: 1.0 / x), (dg.sqrt, np.sqrt)]
    )
    def test_direct_primitives_are_one_node(self, prim, fn):
        x = np.random.default_rng(58).uniform(0.1, 5.0, size=(4, 3))
        store = make_store(a=x)
        values = store.as_values()
        out = prim(values["a"])
        assert out._parents == (values["a"],)
        assert np.array_equal(out.data, fn(x))


class TestMix:
    def test_one_hot_row_copies_its_value_bitwise(self):
        rng = np.random.default_rng(61)
        values = [rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-300, 300) for _ in range(3)]
        rows = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        out = dg.mix(rows, values).reshape(3, 5, 3)
        for k, j in enumerate((1, 2, 0)):
            assert np.array_equal(out[k], values[j])

    def test_folds_nonzero_entries_in_column_order(self):
        rng = np.random.default_rng(62)
        values = [rng.standard_normal((2, 4)) for _ in range(4)]
        rows = np.array([[0.25, 0.0, 0.5, 0.25], [0.0, 1.0 / 3.0, 0.0, 2.0 / 3.0]])
        out = dg.mix(rows, values)
        first = 0.25 * values[0] + 0.5 * values[2] + 0.25 * values[3]
        second = (1.0 / 3.0) * values[1] + (2.0 / 3.0) * values[3]
        assert np.array_equal(out, np.concatenate([first, second]))

    def test_backward_is_rows_transpose_times_gradient(self):
        rng = np.random.default_rng(63)
        leaves = [dg.Value(rng.standard_normal((2, 3))) for _ in range(2)]
        weights = rng.standard_normal((4, 3))
        dg.vsum(dg.mul(dg.mix(MIX_ROWS, [*leaves, MIX_CONST[:2]]), weights)).backward()
        g = weights.reshape(2, 2, 3)
        for j, leaf in enumerate(leaves):
            assert np.allclose(leaf.grad, MIX_ROWS[0, j] * g[0] + MIX_ROWS[1, j] * g[1])

    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_textbook_fold_bitwise(self, n, seed):
        rng = np.random.default_rng(300 + seed)
        k, m = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        # negative, tiny and huge coefficients, zeros, and some one-hot rows
        scales = [-300, -8, 0, 0, 0, 0, 8, 300]
        rows = rng.standard_normal((k, m)) * 10.0 ** rng.choice(scales, (k, m))
        rows[rng.uniform(size=(k, m)) < 0.4] = 0.0
        for i in np.flatnonzero(rng.uniform(size=k) < 0.2):
            rows[i] = np.eye(m)[rng.integers(m)]
        for i in np.flatnonzero(~rows.any(axis=1)):
            rows[i, rng.integers(m)] = -2.5
        arrays = [rng.standard_normal((n, 3)) * 10.0 ** rng.choice(scales) for _ in range(m)]
        for a in arrays:
            a[0, 0] = -0.0  # a sum of signed zeros keeps its sign
        leaves = [dg.Value(a) if j % 2 == 0 else a for j, a in enumerate(arrays)]
        # huge coefficients overflow to inf and NaN, which must match too
        with np.errstate(over="ignore", invalid="ignore"):
            out = dg.mix(rows, leaves)
            expected = []
            for row in rows:
                cols = [j for j in range(m) if row[j] != 0.0]
                acc = row[cols[0]] * arrays[cols[0]]
                for j in cols[1:]:
                    acc = acc + row[j] * arrays[j]
                expected.append(acc)
            assert out.data.tobytes() == np.concatenate(expected).tobytes()

            weights = rng.standard_normal((k * n, 3))
            dg.vsum(dg.mul(out, weights)).backward()
            per_value = rows.T @ weights.reshape(k, -1)
            for j, leaf in enumerate(leaves[::2]):
                assert leaf.grad.tobytes() == per_value[2 * j].reshape(n, 3).tobytes()

    def test_rejects_empty_rows_and_mismatched_shapes(self):
        with pytest.raises(ValueError):
            dg.mix(np.zeros((1, 2)), [np.ones(3), np.ones(3)])
        with pytest.raises(ValueError, match="row 1 has no nonzero entry"):
            dg.mix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]), [np.ones(3), np.ones(3)])
        with pytest.raises(ValueError):
            dg.mix(np.ones((1, 2)), [np.ones((2, 3)), np.ones((3, 2))])
        with pytest.raises(ValueError):
            dg.mix(np.ones((1, 3)), [np.ones((2, 3)), np.ones((2, 3))])


FORK_X = (np.random.default_rng(63).uniform(size=(6, 3)) < 0.5).astype(np.float64)
FORK_W = np.random.default_rng(64).uniform(0.5, 2.0, size=(6, 1))


def fork_store(branches=4):
    rng = np.random.default_rng(62)
    arrays = dict(
        a=rng.standard_normal((6, 4)), w=rng.standard_normal((4, 5)), b=rng.standard_normal(5)
    )
    for m in range(branches):
        arrays[f"w{m}"] = rng.standard_normal((5, 3))
        arrays[f"b{m}"] = rng.standard_normal(3)
    return make_store(**arrays)


def fork_branch(v, m, z):
    """Branch m of the fork tests: a layer and then one of two likelihoods."""
    out = dg.dense(z, v[f"w{m}"], v[f"b{m}"], tanh=m % 2 == 0)
    if m % 2:
        return dg.vsum(dg.mul(dg.square(out), -0.5))
    return dg.weighted_loglik(FORK_X, out, FORK_W, *BERNOULLI)


def run_fork_model(store, fork, count=4, check_fork=None):
    """Loss, branch outputs, the fork input's gradient and the parameter
    gradients, as exact hex strings and bytes.

    The input h also feeds a second consumer, so its gradient sums the
    branches' share with another one, as z_all's mean and sigma do. h is a
    computed node, which backward releases, so its gradient is recorded as
    its backward receives it. A `check_fork` callback receives the branches'
    computed nodes right after the fork is built, before the loss's backward.
    """
    v = store.as_values()
    h = dg.dense(v["a"], v["w"], v["b"], tanh=True)
    h_backward, h_grads = h._backward, []

    def record_h(g):
        h_grads.append(g.tobytes())
        h_backward(g)

    h._backward = record_h
    computed = []

    def recorded(m, z):
        out = fork_branch(v, m, z)
        computed.extend(node for node in dg._tape(out) if node._parents)
        return out

    branches = [lambda z, m=m: recorded(m, z) for m in range(count)]
    if fork:
        # the loss below is -total + ..., so the sum's gradient is -1
        total, parts = dg.fork_sum(h, branches, grad=-1.0)
        if check_fork is not None:
            check_fork(computed)
    else:
        parts = [branch(h) for branch in branches]
        total = parts[0]
        for part in parts[1:]:
            total = dg.add(total, part)
    loss = dg.add(dg.mul(total, -1.0), dg.vsum(dg.square(h)))
    loss.backward()
    return (
        float(loss.data).hex(),
        [float(p.data).hex() for p in parts],
        h_grads,
        {name: v[name].grad.tobytes() for name in store.names()},
    )


class TestForkSum:
    """fork_sum against the same branches built serially on one tape."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_matches_one_tape_bitwise(self, monkeypatch, cpus):
        monkeypatch.setattr(dg, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)
        store = fork_store()
        assert run_fork_model(store, True) == run_fork_model(store, False)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_branch_nodes_are_detached_after_backward(self, monkeypatch, cpus):
        # each branch runs backward as it is built, so its activations are
        # freed before the fork returns, while every leaf gradient stays
        # that of one tape
        monkeypatch.setattr(dg, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)
        store = fork_store()
        checked = []

        def detached(computed):
            # a dense layer and a likelihood per branch, plus square and mul in two
            assert len(computed) == 12
            for node in computed:
                assert node._parents == () and node._backward is None
                assert not node.grad.any()
            checked.append(len(computed))

        assert run_fork_model(store, True, check_fork=detached) == run_fork_model(store, False)
        assert checked == [12]

    def test_many_threads_switching_often_match_one_tape(self, monkeypatch):
        # more threads than cores, and the interpreter switching between them
        # as often as it can: a lost gradient update would change the bytes
        monkeypatch.setattr(dg, "_cpu_count", lambda: 8)
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)
        store = fork_store(branches=16)
        expected = run_fork_model(store, False, count=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert run_fork_model(store, True, count=16) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_raw_input_or_branch_output_is_rejected(self):
        store = make_store(w0=np.ones((2, 3)), b0=np.zeros(3))
        v = store.as_values()
        x = np.arange(4.0).reshape(2, 2)
        with pytest.raises(ValueError, match="needs a Value input"):
            dg.fork_sum(x, [lambda z: dg.vsum(dg.dense(z, v["w0"], v["b0"]))], grad=1.0)
        with pytest.raises(ValueError, match="must return a Value"):
            dg.fork_sum(dg.Value(x), [dg.vsum, lambda z: dg.vsum(x)], grad=1.0)

    def test_earliest_branch_error_is_raised(self, monkeypatch):
        monkeypatch.setattr(dg, "_cpu_count", lambda: 2)
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)
        third_failed = threading.Event()
        failed = []

        def branch(m, z):
            # branch 3 fails first, branch 1 after it
            if m == 1:
                assert third_failed.wait(timeout=30)
            if m in (1, 3):
                failed.append(m)
                third_failed.set()
                raise NumericError(f"branch {m} failed")
            return dg.vsum(z)

        x = dg.Value(np.ones(3))
        with pytest.raises(NumericError, match="branch 1 failed"):
            dg.fork_sum(x, [lambda z, m=m: branch(m, z) for m in range(5)], grad=1.0)
        assert failed == [3, 1]

    def test_threads_only_from_the_row_threshold(self, monkeypatch):
        monkeypatch.setattr(dg, "_cpu_count", lambda: 2)
        calls = []
        map_in_order = dg._map_in_order

        def spy(task, items):
            calls.append(len(items))
            return map_in_order(task, items)

        monkeypatch.setattr(dg, "_map_in_order", spy)
        # one map per fork: each branch is built and run backward in one task
        for rows, expected in [(dg.FORK_THREAD_ROWS - 1, []), (dg.FORK_THREAD_ROWS, [3])]:
            calls.clear()
            x = dg.Value(np.ones((rows, 2)))
            total, _ = dg.fork_sum(x, [dg.vsum] * 3, grad=1.0)
            total.backward()
            assert calls == expected
            assert np.array_equal(x.grad, np.full((rows, 2), 3.0))

    @pytest.mark.parametrize("grad,scale", [(-1.0, 1.0), (1.0, 2.0), (0.0, -0.0)])
    def test_sum_rejects_a_gradient_other_than_grad(self, grad, scale):
        # 0.0 and -0.0 are equal numbers but not equal bits
        x = dg.Value(np.ones(3))
        total, _ = dg.fork_sum(x, [dg.vsum] * 2, grad=grad)
        loss = dg.mul(total, scale)
        message = f"differentiated for gradient {grad!r}, but the sum received {scale!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            loss.backward()
        assert not x.grad.any()

    def test_sum_accepts_its_grad_bit_for_bit(self):
        x = dg.Value(np.ones(3))
        total, _ = dg.fork_sum(x, [dg.vsum] * 2, grad=-0.0)
        dg.mul(total, -0.0).backward()
        assert x.grad.tobytes() == np.full(3, -0.0).tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_branch_is_not_differentiated(self, monkeypatch, cpus):
        monkeypatch.setattr(dg, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)
        v = make_store(w0=np.ones(3), w1=[1.0, np.inf, 1.0]).as_values()
        x = dg.Value(np.ones(3))
        branches = [lambda z, m=m: dg.vsum(dg.mul(z, v[f"w{m}"])) for m in range(2)]
        total, parts = dg.fork_sum(x, branches, grad=1.0)
        assert float(parts[1].data) == math.inf and total.data == math.inf
        assert np.array_equal(v["w0"].grad, np.ones(3))
        assert not v["w1"].grad.any()
        with pytest.raises(ValueError, match="fork branch 1 was not differentiated"):
            total.backward()

    def test_branches_may_not_reach_the_input_or_share_a_node(self):
        v = make_store(x=np.ones(3), w=np.ones(3)).as_values()
        with pytest.raises(ValueError, match="reaches x"):
            dg.fork_sum(v["x"], [lambda z: dg.vsum(dg.mul(z, v["x"]))], grad=1.0)
        with pytest.raises(ValueError, match="reaches x"):
            dg.fork_sum(v["x"], [lambda z: dg.vsum(dg.mul(z, v["w"]))] * 2, grad=1.0)
        with pytest.raises(ValueError, match="one shape"):
            dg.fork_sum(v["x"], [dg.vsum, lambda z: z], grad=1.0)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_branches_may_not_share_a_computed_node(self, monkeypatch, cpus):
        # branch 1 reads a node branch 0 computed: attached, it is not
        # derived from branch 1's input; released, the tape walk refuses it
        monkeypatch.setattr(dg, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)
        v = make_store(x=np.ones(3)).as_values()
        stash = []
        made = threading.Event()

        def first(z):
            stash.append(dg.mul(z, 2.0))
            made.set()
            return dg.vsum(stash[0])

        def second(z):
            assert made.wait(timeout=30)
            return dg.vsum(dg.mul(z, stash[0]))

        with pytest.raises(ValueError, match="not derived from its input|already run"):
            dg.fork_sum(v["x"], [first, second], grad=1.0)

    def test_branches_may_not_read_a_node_of_the_callers_tape(self):
        # the branch's backward would run the caller's nodes with only its
        # own share of their gradient, and then drop it
        v = make_store(x=np.ones(3), w=np.ones(3)).as_values()
        scaled = dg.mul(v["w"], 2.0)
        with pytest.raises(ValueError, match="not derived from its input"):
            dg.fork_sum(v["x"], [lambda z: dg.vsum(dg.mul(z, scaled))], grad=1.0)
        with pytest.raises(ValueError, match="not derived from its input"):
            dg.fork_sum(
                v["x"], [lambda z: dg.vsum(dg.add(dg.vsum(z), dg.vsum(scaled)))], grad=1.0
            )

    def test_contract_errors_fire_when_branches_run_on_threads(self, monkeypatch):
        monkeypatch.setattr(dg, "_cpu_count", lambda: 2)
        monkeypatch.setattr(dg, "FORK_THREAD_ROWS", 1)
        v = make_store(x=np.ones(3), w=np.ones(3)).as_values()
        scaled = dg.mul(v["w"], 2.0)
        cases = [
            ([lambda z: dg.vsum(dg.mul(z, v["x"])), dg.vsum], "reaches x"),
            ([dg.vsum, lambda z: dg.vsum(dg.mul(z, v["x"]))], "reaches x"),
            ([lambda z: dg.vsum(dg.mul(z, v["w"]))] * 3, "another branch's node"),
            ([dg.vsum, lambda z: z, dg.vsum], "one shape"),
            ([dg.vsum, lambda z: dg.vsum(dg.mul(z, scaled))], "not derived from its input"),
        ]
        for branches, message in cases:
            with pytest.raises(ValueError, match=message):
                dg.fork_sum(v["x"], branches, grad=1.0)

    def test_branches_may_not_read_another_forks_branch(self):
        # an earlier fork's branch output is released when that fork returns
        v = make_store(x=np.ones(3)).as_values()
        _, (part,) = dg.fork_sum(v["x"], [dg.vsum], grad=1.0)
        with pytest.raises(ValueError, match="backward has already run through a node"):
            dg.fork_sum(v["x"], [lambda z: dg.vsum(dg.mul(z, part))], grad=1.0)


def textbook_adam(params, moment1, moment2, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam's update as written in the paper, out of place."""
    for name, g in grads.items():
        moment1[name] = moment1[name] * beta1 + (1.0 - beta1) * g
        moment2[name] = moment2[name] * beta2 + (1.0 - beta2) * g * g
        m_hat = moment1[name] / (1.0 - beta1**t)
        v_hat = moment2[name] / (1.0 - beta2**t)
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


class TestKeepHeapMapped:
    """keep_heap_mapped sets glibc's allocator once per process, through
    mallopt, and does nothing where the C library has none."""

    @staticmethod
    def fake_libc(monkeypatch, calls, has_mallopt=True):
        """Make ctypes.CDLL(None) a C library that records mallopt calls,
        and forget any earlier keep_heap_mapped call."""

        class Libc:
            pass

        if has_mallopt:
            Libc.mallopt = staticmethod(lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(dg, "_heap_kept_mapped", None)
        monkeypatch.setattr(dg.ctypes, "CDLL", lambda name: Libc())

    def test_sets_the_allocator_once(self, monkeypatch):
        calls = []
        self.fake_libc(monkeypatch, calls)
        assert dg.keep_heap_mapped() is True
        assert dg.keep_heap_mapped() is True
        # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 1 GiB, M_ARENA_MAX 1
        assert calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]

    def test_no_op_without_mallopt(self, monkeypatch):
        calls = []
        self.fake_libc(monkeypatch, calls, has_mallopt=False)
        assert dg.keep_heap_mapped() is False
        # idempotent: a later call does not look for mallopt again
        monkeypatch.setattr(dg.ctypes, "CDLL", lambda name: pytest.fail("looked again"))
        assert dg.keep_heap_mapped() is False
        assert calls == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_glibc_accepts_the_settings(self, monkeypatch):
        monkeypatch.setattr(dg, "_heap_kept_mapped", None)
        assert dg.keep_heap_mapped() is True


class TestAdam:
    def test_in_place_update_matches_textbook_bitwise(self):
        # the shipped toy5 model's parameter arrays, over several steps
        config = mm.ModelConfig(num_modalities=5, input_dims=(64,) * 5)
        store = mm.MultimodalVae(config).store
        params = {name: store[name].copy() for name in store.names()}
        moment1 = {name: np.zeros_like(a) for name, a in params.items()}
        moment2 = {name: np.zeros_like(a) for name, a in params.items()}
        rng = np.random.default_rng(65)
        for t in range(1, 6):
            grads = {
                name: rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 3)
                for name, a in params.items()
            }
            dg.adam_step(store, grads, lr=1e-3)
            textbook_adam(params, moment1, moment2, grads, t, lr=1e-3)
        for name in store.names():
            assert store[name].tobytes() == params[name].tobytes()
            assert store.moment1[name].tobytes() == moment1[name].tobytes()
            assert store.moment2[name].tobytes() == moment2[name].tobytes()

    def test_zero_gradient_keeps_parameters(self):
        store = make_store(w=[1.0, -2.0])
        before = store["w"].copy()
        dg.adam_step(store, {"w": np.zeros(2)}, lr=1e-3)
        assert np.array_equal(store["w"], before)
        assert store.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        store = make_store(w=[0.5, -0.5])
        before = store["w"].copy()
        g = np.array([0.3, -40.0])
        dg.adam_step(store, {"w": g}, lr=1e-3)
        delta = store["w"] - before
        # bias correction makes m_hat / sqrt(v_hat) = sign(g) on step one
        assert np.allclose(np.abs(delta), 1e-3, rtol=1e-6)
        assert np.all(np.sign(delta) == -np.sign(g))

    def test_two_steps_reduce_quadratic(self):
        store = make_store(w=[2.0])

        def loss_and_grad():
            w = store["w"][0]
            return w * w, np.array([2.0 * w])

        start, _ = loss_and_grad()
        for _ in range(2):
            _, grad = loss_and_grad()
            dg.adam_step(store, {"w": grad}, lr=0.1)
        end, _ = loss_and_grad()
        assert end < start

    def test_missing_gradient_rejected(self):
        store = make_store(w=[1.0], b=[1.0])
        with pytest.raises(ValueError):
            dg.adam_step(store, {"w": np.array([0.1])}, lr=1e-3)


class TestGradCheck:
    def test_linear_loss(self):
        store = make_store(x=[0.5, -1.0, 2.0])
        assert grad_check(lambda v: dg.vsum(dg.mul(v["x"], 3.0)), store) < 1e-10

    def test_softplus_chain(self):
        rng = np.random.default_rng(53)
        store = make_store(x=rng.standard_normal(8))
        build = lambda v: dg.vsum(dg.softplus(dg.mul(dg.softplus(v["x"]), 1.7)))
        assert grad_check(build, store) < 1e-6

    def test_detects_corrupted_backward(self):
        store = make_store(x=[0.7, -0.4])

        def bad_square(a):
            out = dg.Value(a.data**2, parents=(a,))

            def backward(g):
                a._accumulate(g * (3.0 * a.data))  # deliberately wrong: should be 2x

            out._backward = backward
            return out

        assert grad_check(lambda v: dg.vsum(bad_square(v["x"])), store) > 1e-2

    def test_sampled_coordinates_above_cap(self):
        rng = np.random.default_rng(54)
        store = make_store(big=0.01 * rng.standard_normal((150, 100)))
        err = grad_check(lambda v: dg.vsum(dg.square(v["big"])), store)
        assert err < 1e-6

    def test_nonfinite_loss_raises(self):
        store = make_store(x=[-2.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError):
                grad_check(lambda v: dg.vsum(dg.log(v["x"])), store)


class TestDeterminism:
    def test_rng_streams_repeat(self):
        a = dg.rng_stream(123, 4, 5).standard_normal(10)
        b = dg.rng_stream(123, 4, 5).standard_normal(10)
        c = dg.rng_stream(123, 4, 6).standard_normal(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_identical_runs_bit_identical(self):
        def run():
            rng = dg.rng_stream(7, 1)
            store = make_store(w=rng.standard_normal((4, 4)), b=rng.standard_normal(4))
            x = dg.rng_stream(7, 2).standard_normal((3, 4))
            loss, grads = forward_backward(
                lambda v: dg.vsum(dg.softplus(dg.dense(x, v["w"], v["b"], tanh=True))), store
            )
            return loss, grads["w"]

        loss_a, grad_a = run()
        loss_b, grad_b = run()
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)

    def test_glorot_bounds(self):
        rng = dg.rng_stream(0, 0)
        w = dg.glorot_uniform(rng, 30, 50)
        limit = math.sqrt(6.0 / 80.0)
        assert w.shape == (30, 50)
        assert np.all(np.abs(w) <= limit)
