import math

import numpy as np
import pytest

import baryvae.diffgraph as dg
from baryvae.errors import NumericError


BERN_X = (np.random.default_rng(59).uniform(size=(4, 3)) < 0.5).astype(np.float64)
BERN_W = np.array([[0.5], [1.0], [0.25], [2.0]])
# two components over two parameters and a constant column, with a zero entry
MIX_ROWS = np.array([[0.3, 0.0, 1.0], [1.5, -0.7, 0.2]])
MIX_CONST = np.random.default_rng(60).standard_normal((4, 3))


def make_store(**arrays):
    store = dg.ParamStore()
    for name, arr in arrays.items():
        store.add(name, np.asarray(arr, dtype=np.float64))
    return store


class TestForwardBackward:
    def test_sum_of_squares(self):
        store = make_store(x=[1.0, 2.0])
        loss, grads = dg.forward_backward(lambda v: dg.vsum(dg.square(v["x"])), store)
        assert loss == 5.0
        assert np.array_equal(grads["x"], [2.0, 4.0])

    def test_constant_loss_zero_grads(self):
        store = make_store(x=[1.0, -1.0])
        loss, grads = dg.forward_backward(
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
            h = dg.tanh(dg.add(dg.matmul(dg.Value(x), v["w1"]), v["b1"]))
            out = dg.add(dg.matmul(h, v["w2"]), v["b2"])
            return dg.vmean(dg.square(dg.add(out, dg.mul(dg.Value(y), -1.0))))

        assert dg.grad_check(build, store, 1e-5) < 1e-6

    def test_non_scalar_loss_rejected(self):
        store = make_store(x=[1.0, 2.0])
        with pytest.raises(ValueError):
            dg.forward_backward(lambda v: dg.square(v["x"]), store)

    def test_reused_node_accumulates(self):
        store = make_store(x=[3.0])

        def build(v):
            # x appears twice: d/dx (x*x + x) = 2x + 1
            return dg.vsum(dg.add(dg.mul(v["x"], v["x"]), v["x"]))

        _, grads = dg.forward_backward(build, store)
        assert np.array_equal(grads["x"], [7.0])


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
            ("relu", lambda v: dg.vsum(dg.relu(v["a2"]))),
            ("softplus", lambda v: dg.vsum(dg.softplus(v["a2"]))),
            ("exp", lambda v: dg.vsum(dg.exp(v["a2"]))),
            ("log", lambda v: dg.vsum(dg.log(dg.add(dg.square(v["a2"]), 0.5)))),
            ("sum", lambda v: dg.vsum(v["a2"])),
            ("mean", lambda v: dg.vmean(v["a2"])),
            ("square", lambda v: dg.vsum(dg.square(v["a2"]))),
            ("sigmoid", lambda v: dg.vsum(dg.sigmoid(v["a2"]))),
            ("concat", lambda v: dg.vsum(dg.concat([v["a2"], v["c2"]], axis=0))),
            ("concat_axis1", lambda v: dg.vsum(dg.square(dg.concat([v["a2"], v["c2"]], axis=1)))),
            ("reciprocal", lambda v: dg.vsum(dg.reciprocal(dg.add(dg.square(v["a2"]), 1.0)))),
            ("sqrt", lambda v: dg.vsum(dg.sqrt(dg.add(dg.square(v["a2"]), 1.0)))),
            ("reciprocal_negative", lambda v: dg.vsum(dg.reciprocal(dg.add(v["a2"], -4.0)))),
            ("sqrt_small", lambda v: dg.vsum(dg.sqrt(dg.add(dg.square(v["a2"]), 0.05)))),
            (
                "bernoulli_loglik",
                lambda v: dg.bernoulli_loglik(BERN_X, dg.mul(v["a2"], 3.0), BERN_W),
            ),
            (
                "mix",
                lambda v: dg.vsum(dg.square(dg.mix(MIX_ROWS, [v["a2"], v["c2"], MIX_CONST]))),
            ),
        ],
    )
    def test_grad_check(self, name, build):
        rng = np.random.default_rng(52)
        # offsets keep relu away from its kink
        store = make_store(
            a2=rng.standard_normal((4, 3)) + 0.3,
            b2=rng.standard_normal((3, 4)),
            c2=rng.standard_normal((4, 3)),
            row=rng.standard_normal(3),
        )
        assert dg.grad_check(build, store, 1e-5) < 1e-6


def masked_sigmoid(x):
    """The logistic function by boolean masks, one exp per branch."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def composed_bernoulli(x, logits, weights):
    return dg.vsum(
        dg.mul(dg.add(dg.mul(dg.Value(x), logits), dg.mul(dg.softplus(logits), -1.0)), weights)
    )


class TestTapeDiet:
    """Raw arrays are constants; fused and direct primitives keep the numbers."""

    @pytest.mark.parametrize("op", [dg.matmul, dg.mul, dg.add])
    @pytest.mark.parametrize("raw_first", [True, False])
    def test_raw_operand_gets_no_gradient(self, op, raw_first):
        rng = np.random.default_rng(55)
        store = make_store(w=rng.standard_normal((3, 3)))
        x = rng.standard_normal((3, 3))
        outs = []

        def build(wrap):
            def loss(v):
                operand = dg.Value(x) if wrap else x
                pair = (operand, v["w"]) if raw_first else (v["w"], operand)
                out = op(*pair)
                outs.append(out)
                return dg.vsum(dg.square(dg.tanh(out)))

            return loss

        _, raw_grads = dg.forward_backward(build(False), store)
        raw_operand = outs[-1]._parents[0 if raw_first else 1]
        assert raw_operand.constant
        assert raw_operand._grad is None and raw_operand.grad is None
        _, leaf_grads = dg.forward_backward(build(True), store)
        leaf_operand = outs[-1]._parents[0 if raw_first else 1]
        assert not leaf_operand.constant and leaf_operand._grad is not None
        assert np.array_equal(raw_grads["w"], leaf_grads["w"])

    def test_constant_operands_give_constant_result(self):
        out = dg.add(dg.mul(np.ones(3), 2.0), dg.square(np.arange(3.0)))
        assert out.constant and out._parents == ()
        loss = dg.vsum(out)
        assert loss.constant
        loss.backward()
        assert loss.grad is None

    def test_gradient_buffers_are_lazy_and_private(self):
        store = make_store(x=[1.0, 2.0], y=[3.0, 4.0])
        values = store.as_values()
        s = dg.add(values["x"], values["y"])
        assert s._grad is None
        dg.vsum(dg.square(s)).backward()
        # add hands x and y the same array; reading .grad must not alias them
        gx, gy = values["x"].grad, values["y"].grad
        gx += 100.0
        assert np.array_equal(values["y"].grad, [8.0, 12.0])
        assert np.array_equal(gy, [8.0, 12.0])

    def test_writing_an_intermediate_gradient_keeps_parents(self):
        store = make_store(x=[1.0, 2.0], y=[3.0, 4.0])
        values = store.as_values()
        s = dg.add(values["x"], values["y"])
        dg.vsum(dg.mul(s, s)).backward()
        s.grad[:] = 0.0
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

        _, grads = dg.forward_backward(build, store)
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
                a.grad += 2.0 * g

            out._backward = backward
            return out

        def build(v):
            terms = [dg.vsum(dg.mul(dg.add(v["x"], v["y"]), c)), dg.vsum(doubled(v["x"]))]
            if custom_first:
                terms.reverse()
            return dg.add(*terms)

        _, grads = dg.forward_backward(build, store)
        assert np.array_equal(grads["x"], c + 2.0)
        assert np.array_equal(grads["y"], c)

    def test_bernoulli_loglik_matches_composed_chain_bitwise(self):
        rng = np.random.default_rng(56)
        x = (rng.uniform(size=(64, 20)) < 0.4).astype(np.float64)
        weights = rng.uniform(0.1, 1.0, size=(64, 1))
        store = make_store(logits=8.0 * rng.standard_normal((64, 20)))
        fused_loss, fused = dg.forward_backward(
            lambda v: dg.bernoulli_loglik(x, v["logits"], weights), store
        )
        chain_loss, chain = dg.forward_backward(
            lambda v: composed_bernoulli(x, v["logits"], weights), store
        )
        assert fused_loss.hex() == chain_loss.hex()
        assert fused["logits"].tobytes() == chain["logits"].tobytes()

    def test_bernoulli_loglik_rejects_active_data(self):
        store = make_store(x=[1.0, 0.0])
        with pytest.raises(ValueError):
            dg.forward_backward(lambda v: dg.bernoulli_loglik(v["x"], np.zeros(2), 1.0), store)

    def test_sigmoid_matches_masked_formula_bitwise(self):
        special = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0]
        normals = np.random.default_rng(57).standard_normal(4096) * 10.0
        for x in (np.array(special), normals, normals.reshape(64, 64)):
            with np.errstate(over="ignore"):
                expected = masked_sigmoid(x)
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
        out = dg.mix(rows, values).data.reshape(3, 5, 3)
        for k, j in enumerate((1, 2, 0)):
            assert np.array_equal(out[k], values[j])

    def test_folds_nonzero_entries_in_column_order(self):
        rng = np.random.default_rng(62)
        values = [rng.standard_normal((2, 4)) for _ in range(4)]
        rows = np.array([[0.25, 0.0, 0.5, 0.25], [0.0, 1.0 / 3.0, 0.0, 2.0 / 3.0]])
        out = dg.mix(rows, values).data
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

    def test_rejects_empty_rows_and_mismatched_shapes(self):
        with pytest.raises(ValueError):
            dg.mix(np.zeros((1, 2)), [np.ones(3), np.ones(3)])
        with pytest.raises(ValueError):
            dg.mix(np.ones((1, 2)), [np.ones((2, 3)), np.ones((3, 2))])
        with pytest.raises(ValueError):
            dg.mix(np.ones((1, 3)), [np.ones((2, 3)), np.ones((2, 3))])


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        store = make_store(w=[1.0, -2.0])
        before = store["w"].copy()
        dg.adam_step(store, {"w": np.zeros(2)})
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
            dg.adam_step(store, {"w": np.array([0.1])})


class TestGradCheck:
    def test_linear_loss(self):
        store = make_store(x=[0.5, -1.0, 2.0])
        assert dg.grad_check(lambda v: dg.vsum(dg.mul(v["x"], 3.0)), store) < 1e-10

    def test_softplus_chain(self):
        rng = np.random.default_rng(53)
        store = make_store(x=rng.standard_normal(8))
        build = lambda v: dg.vsum(dg.softplus(dg.mul(dg.softplus(v["x"]), 1.7)))
        assert dg.grad_check(build, store) < 1e-6

    def test_detects_corrupted_backward(self):
        store = make_store(x=[0.7, -0.4])

        def bad_square(a):
            out = dg.Value(a.data**2, parents=(a,))

            def backward(g):
                a.grad += g * (3.0 * a.data)  # deliberately wrong: should be 2x

            out._backward = backward
            return out

        assert dg.grad_check(lambda v: dg.vsum(bad_square(v["x"])), store) > 1e-2

    def test_sampled_coordinates_above_cap(self):
        rng = np.random.default_rng(54)
        store = make_store(big=0.01 * rng.standard_normal((150, 100)))
        err = dg.grad_check(lambda v: dg.vsum(dg.square(v["big"])), store)
        assert err < 1e-6

    def test_nonfinite_loss_raises(self):
        store = make_store(x=[-2.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError):
                dg.grad_check(lambda v: dg.vsum(dg.log(v["x"])), store)


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
            store = make_store(w=rng.standard_normal((4, 4)))
            x = dg.rng_stream(7, 2).standard_normal((3, 4))
            loss, grads = dg.forward_backward(
                lambda v: dg.vsum(dg.sigmoid(dg.matmul(dg.Value(x), v["w"]))), store
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
