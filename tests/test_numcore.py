import numpy as np
import pytest

from conftest import finite_difference_check
from prismflow.errors import (ConfigError, ContractViolation, NumericError,
                              ShapeError)
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import (AdamState, Mlp, Params, RngStream, Tape,
                               Workspace, adam_update, mlp_apply,
                               mlp_gradients, mlp_layers, mlp_shapes,
                               row_blocks, tape_rows)


def make_net(dims, seed=0, activation="tanh"):
    net = Mlp.view(Params(mlp_shapes("", dims)), "", dims, activation)
    net.draw(RngStream(seed))
    return net


class TestMlpApply:
    def test_zero_net_zero_output(self):
        net = make_net([3, 4, 2])
        for w in net.weights:
            w[:] = 0.0
        out, _ = mlp_apply(net, np.array([[1.0, -2.0, 3.0]]))
        assert np.all(out == 0.0)

    def test_identity_linear_layer(self):
        net = Mlp([2, 2], [np.eye(2)], [np.zeros(2)])
        out, _ = mlp_apply(net, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_hand_evaluated_two_layer(self):
        # 1-2-1 tanh net with hand-set weights
        net = Mlp([1, 2, 1],
                  [np.array([[0.5, -1.0]]), np.array([[2.0], [0.3]])],
                  [np.array([0.1, 0.2]), np.array([-0.4])])
        x = 0.7
        hidden = np.tanh([0.5 * x + 0.1, -1.0 * x + 0.2])
        expected = 2.0 * hidden[0] + 0.3 * hidden[1] - 0.4
        out, _ = mlp_apply(net, np.array([[x]]))
        assert out[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        net = make_net([3, 2])
        with pytest.raises(ShapeError):
            mlp_apply(net, np.zeros((1, 4)))
        with pytest.raises(ShapeError):
            mlp_apply(net, np.zeros(3))  # a vector is not a batch

    def test_pure_function(self):
        net = make_net([3, 5, 2])
        x = np.array([[0.3, -0.1, 0.9]])
        a, _ = mlp_apply(net, x)
        b, _ = mlp_apply(net, x)
        np.testing.assert_array_equal(a, b)

    def test_batched_matches_single(self):
        net = make_net([3, 5, 2])
        xs = RngStream(1).generator().standard_normal((4, 3))
        batch, _ = mlp_apply(net, xs)
        for i, x in enumerate(xs):
            single, _ = mlp_apply(net, x[None, :])
            np.testing.assert_allclose(batch[i], single[0], atol=1e-15)


@pytest.mark.parametrize("size", range(2, 9))
def test_row_blocks_cover_every_row_once_and_none_alone(size):
    for n in range(1, 41):
        blocks = row_blocks(n, size)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        lengths = [len(range(n)[b]) for b in blocks]
        assert (1 in lengths) == (n == 1)
        assert max(lengths) <= size + 1


def at_loop(net, x, upstream):
    """Forward and input-gradient backward with the `@` operator,
    tape-free: (output, input gradient of <upstream, output>)."""
    act = {"tanh": np.tanh, "softplus": lambda p: np.logaddexp(0.0, p)}
    a, pres, outs = x, [], [x]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = a @ w
        pre += b
        pres.append(pre)
        a = pre if i == len(net.weights) - 1 else act[net.activation](pre)
        outs.append(a)
    delta = upstream
    for i in range(len(net.weights) - 1, -1, -1):
        if i != len(net.weights) - 1:
            grad = (1.0 - outs[i + 1] * outs[i + 1] if net.activation == "tanh"
                    else 1.0 / (1.0 + np.exp(-pres[i])))
            delta = delta * grad
        delta = delta @ net.weights[i].T
    return a, delta


class TestLayerLoopProducts:
    """The layer loop and the delta recurrence form their products with
    `np.dot`, which skips the ufunc dispatch of `@`; the bits are those
    of the `@` loop, at the batch sizes that sampling and training use."""

    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    @pytest.mark.parametrize("rows", [1, 2, 6, 16, 128, 512])
    def test_bits_of_the_at_operator(self, activation, rows):
        net = make_net([72, 48, 48, 64], activation=activation)
        gen = RngStream(rows).generator()
        x = gen.standard_normal((rows, 72))
        upstream = gen.standard_normal((rows, 64))
        out, tape = mlp_apply(net, x)
        want_out, want_grad = at_loop(net, x, upstream)
        assert out.tobytes() == want_out.tobytes()
        grad = mlp_gradients(net, tape, upstream)
        assert grad.tobytes() == want_grad.tobytes()


NETS = ("encoder", "head", "projector", "decoder", "router")


class TestUntapedPass:
    """An untaped pass of the one layer loop runs the taped pass's
    operations in the same order, so its output has the same bits, and it
    records no tape."""

    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    @pytest.mark.parametrize("rows", [1, 16, 512])
    def test_output_equals_the_taped_pass_bitwise(self, activation, rows,
                                                   monkeypatch):
        model = PrismFlowModel.init(ModelConfig(seq_len=64, channels=1,
                                                activation=activation),
                                    RngStream(5))
        tapes = []
        init = Tape.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tapes.append(self)

        monkeypatch.setattr(Tape, "__init__", recorded)
        for name in NETS:
            net = getattr(model, name)
            x = RngStream(rows).generator().standard_normal(
                (rows, net.layer_dims[0]))
            want, tape = mlp_layers(net, x, taped=True)
            assert len(tapes) == 1 and tape is tapes.pop()
            got, none = mlp_layers(net, x)
            assert none is None and tapes == []
            assert got.tobytes() == want.tobytes()
            in_ws, tape = mlp_layers(net, x, True, Workspace(model))
            assert in_ws.tobytes() == want.tobytes()
            assert tapes == [tape]
            tapes.clear()


def gradients(net, tape, upstream, with_input=True):
    """One mlp_gradients call into a zeroed store of the net's layout:
    (the store, by block name, and the input gradient or None)."""
    store = Params(mlp_shapes("", net.layer_dims))
    grad = Mlp.view(store, "", net.layer_dims)
    return store, mlp_gradients(net, tape, upstream, grad, with_input)


class TestMlpGradients:
    def test_linear_layer_adjoint(self):
        w = RngStream(2).generator().standard_normal((3, 2))
        net = Mlp([3, 2], [w], [np.zeros(2)])
        x = np.array([[1.0, -0.5, 2.0]])
        g = np.array([[0.3, -1.1]])
        _, tape = mlp_apply(net, x)
        store, dx = gradients(net, tape, g)
        np.testing.assert_allclose(store["W0"], np.outer(x, g))
        np.testing.assert_allclose(store["b0"], g[0])
        np.testing.assert_allclose(dx[0], w @ g[0])

    def test_zero_upstream(self):
        net = make_net([3, 4, 2])
        _, tape = mlp_apply(net, np.zeros((1, 3)))
        store, dx = gradients(net, tape, np.zeros((1, 2)))
        assert np.all(store.flat == 0)
        assert np.all(dx == 0)

    def test_matches_finite_differences(self):
        params = Params(mlp_shapes("", [3, 5, 2]))
        net = Mlp.view(params, "", [3, 5, 2])
        net.draw(RngStream(7))
        x = RngStream(8).generator().standard_normal((1, 3))
        upstream = np.array([[1.0, -0.7]])

        def loss(params):
            out, tape = mlp_apply(net, x)
            return (float(np.sum(upstream * out)),
                    gradients(net, tape, upstream)[0])

        assert finite_difference_check(loss, params, 1e-6) < 1e-6

    def test_tanh_derivative_from_tape_is_bitwise(self):
        """The tanh derivative read off the stored activations equals the
        one recomputed from the pre-activations, bit for bit."""
        net = make_net([3, 5, 4, 2], seed=3)
        gen = RngStream(4).generator()
        _, tape = mlp_apply(net, gen.standard_normal((6, 3)))
        upstream = gen.standard_normal((6, 2))
        store, dx = gradients(net, tape, upstream)
        delta = upstream
        last = len(net.weights) - 1
        for i in range(last, -1, -1):
            if i != last:
                th = np.tanh(tape.preacts[i])
                delta = delta * (1.0 - th * th)
            np.testing.assert_array_equal(store[f"W{i}"],
                                          tape.inputs[i].T @ delta)
            np.testing.assert_array_equal(store[f"b{i}"], delta.sum(axis=0))
            delta = delta @ net.weights[i].T
        np.testing.assert_array_equal(dx, delta)

    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    def test_tape_rows_backpropagates_those_rows(self, activation):
        net = make_net([3, 5, 2], seed=5, activation=activation)
        gen = RngStream(6).generator()
        _, tape = mlp_apply(net, gen.standard_normal((6, 3)))
        rows = np.array([4, 1, 1])
        upstream = gen.standard_normal((3, 2))
        store, dx = gradients(net, tape_rows(tape, rows), upstream)
        _, sub_tape = mlp_apply(net, tape.inputs[0][rows])
        ref_store, ref_dx = gradients(net, sub_tape, upstream)
        np.testing.assert_array_equal(store.flat, ref_store.flat)
        np.testing.assert_array_equal(dx, ref_dx)

    def test_softplus_derivative_from_tape_is_bitwise(self):
        """The softplus derivative is the logistic function of the stored
        pre-activations, bit for bit."""
        net = make_net([3, 5, 4, 2], seed=3, activation="softplus")
        gen = RngStream(4).generator()
        _, tape = mlp_apply(net, gen.standard_normal((6, 3)))
        upstream = gen.standard_normal((6, 2))
        store, dx = gradients(net, tape, upstream)
        delta = upstream
        last = len(net.weights) - 1
        for i in range(last, -1, -1):
            if i != last:
                delta = delta * (1.0 / (1.0 + np.exp(-tape.preacts[i])))
            np.testing.assert_array_equal(store[f"W{i}"],
                                          tape.inputs[i].T @ delta)
            np.testing.assert_array_equal(store[f"b{i}"], delta.sum(axis=0))
            delta = delta @ net.weights[i].T
        np.testing.assert_array_equal(dx, delta)

    def test_unknown_activation_is_config_error(self):
        net = make_net([3, 4, 2])
        _, tape = mlp_apply(net, np.zeros((1, 3)))
        net.activation = "relu"
        with pytest.raises(ConfigError, match="relu"):
            mlp_apply(net, np.zeros((1, 3)))
        with pytest.raises(ConfigError, match="relu"):
            mlp_gradients(net, tape, np.zeros((1, 2)))

    def test_stale_tape_rejected(self):
        net = make_net([2, 2])
        _, tape = mlp_apply(net, np.zeros((1, 2)))
        net.bump_version()
        with pytest.raises(ContractViolation):
            gradients(net, tape, np.zeros((1, 2)))


class TestMlpInputGradient:
    """The input gradient alone: no gradient store (`grad=None`)."""

    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    @pytest.mark.parametrize("rows", [None, [4, 1, 1, 0]])
    def test_bitwise_equal_to_mlp_gradients(self, activation, rows):
        """... to the input gradient of a call that adds into a store."""
        net = make_net([3, 5, 4, 2], seed=9, activation=activation)
        gen = RngStream(10).generator()
        _, tape = mlp_apply(net, 3.0 * gen.standard_normal((6, 3)))
        if rows is not None:
            tape = tape_rows(tape, np.array(rows))
        upstream = gen.standard_normal((tape.inputs[0].shape[0], 2))
        _, want = gradients(net, tape, upstream)
        assert mlp_gradients(net, tape, upstream).tobytes() == want.tobytes()

    def test_stale_tape_rejected(self):
        net = make_net([2, 3, 2])
        _, tape = mlp_apply(net, np.zeros((1, 2)))
        net.bump_version()
        with pytest.raises(ContractViolation):
            mlp_gradients(net, tape, np.zeros((1, 2)))

    def test_upstream_shape_checked(self):
        net = make_net([2, 3, 2])
        _, tape = mlp_apply(net, np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            mlp_gradients(net, tape, np.zeros((1, 2)))


class TestMlpParamGradients:
    """The parameter gradients alone: `with_input=False`."""

    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    @pytest.mark.parametrize("dims", [[3, 2], [3, 5, 4, 2]])
    def test_bitwise_equal_to_mlp_gradients(self, activation, dims):
        """... to the parameter gradients of a call that also returns the
        input gradient."""
        net = make_net(dims, seed=11, activation=activation)
        gen = RngStream(12).generator()
        _, tape = mlp_apply(net, 3.0 * gen.standard_normal((6, 3)))
        upstream = gen.standard_normal((6, 2))
        want, _ = gradients(net, tape, upstream)
        got, dx = gradients(net, tape, upstream, with_input=False)
        assert dx is None
        assert got.flat.tobytes() == want.flat.tobytes()

    def test_stale_tape_rejected(self):
        net = make_net([2, 3, 2])
        _, tape = mlp_apply(net, np.zeros((1, 2)))
        net.bump_version()
        store = Params(mlp_shapes("", net.layer_dims))
        with pytest.raises(ContractViolation):
            mlp_gradients(net, tape, np.ones((1, 2)),
                          Mlp.view(store, "", net.layer_dims), False)
        assert not store.flat.any()  # refused before any add

    def test_upstream_shape_checked(self):
        net = make_net([2, 3, 2])
        _, tape = mlp_apply(net, np.zeros((2, 2)))
        store = Params(mlp_shapes("", net.layer_dims))
        with pytest.raises(ShapeError):
            mlp_gradients(net, tape, np.ones((1, 2)),
                          Mlp.view(store, "", net.layer_dims), False)
        assert not store.flat.any()


class TestGradientStore:
    """mlp_gradients adds into the model's own views of a gradient store."""

    @pytest.mark.parametrize("name", ["encoder", "head", "projector",
                                      "decoder", "router"])
    def test_touches_its_own_blocks_only(self, four_expert_model, name):
        model = four_expert_model
        ws = Workspace(model)
        net = getattr(model, name)
        gen = RngStream(15).generator()
        _, tape = mlp_apply(net, gen.standard_normal((5, net.layer_dims[0])))
        mlp_gradients(net, tape, gen.standard_normal((5, net.layer_dims[-1])),
                      getattr(ws.grad, name))
        for block, g in ws.grads.items():
            if block.startswith(f"{name}."):
                assert g.any(), block
            else:  # every other net's and every expert's: bitwise +0.0
                assert g.tobytes() == bytes(g.nbytes), block

    def test_two_calls_accumulate(self):
        net = make_net([3, 5, 4, 2], seed=13)
        gen = RngStream(14).generator()
        _, tape = mlp_apply(net, gen.standard_normal((6, 3)))
        u1, u2 = gen.standard_normal((2, 6, 2))
        store = Params(mlp_shapes("", net.layer_dims))
        grad = Mlp.view(store, "", net.layer_dims)
        mlp_gradients(net, tape, u1, grad, False)
        mlp_gradients(net, tape, u2, grad)
        want = np.zeros(store.flat.shape)
        want += gradients(net, tape, u1)[0].flat
        want += gradients(net, tape, u2)[0].flat
        assert store.flat.tobytes() == want.tobytes()


class TestAdam:
    def params(self):
        return Params({"w": (3,)}, np.array([1.0, -2.0, 0.5]))

    def test_zero_gradient_no_change(self):
        p = self.params()
        state = AdamState.create(p, lr=0.1)
        adam_update(state, p, Params({"w": (3,)}))
        np.testing.assert_array_equal(p["w"], [1.0, -2.0, 0.5])

    def test_single_step_closed_form(self):
        p = self.params()
        before = p["w"].copy()
        g = np.array([0.3, -0.2, 1.5])
        state = AdamState.create(p, lr=0.01)
        adam_update(state, p, Params({"w": (3,)}, g))
        # after bias correction the first step is -lr * g / (|g| + eps)
        expected = before - 0.01 * g / (np.abs(g) + AdamState.EPS)
        np.testing.assert_allclose(p["w"], expected, rtol=1e-9)

    def test_two_steps_accumulators(self):
        p = self.params()
        g = np.array([0.3, -0.2, 1.5])
        state = AdamState.create(p, lr=0.01)
        adam_update(state, p, Params({"w": (3,)}, g))
        v1 = state.v.copy()
        adam_update(state, p, Params({"w": (3,)}, g))
        assert state.step == 2
        assert np.all(state.v >= v1)

    def test_scratch_update_equals_the_plain_expression_bitwise(self):
        """The in-place update keeps the bits of the textbook expression
        lr * (m / bc1) / (sqrt(v / bc2) + eps), step after step."""
        gen = RngStream(9).generator()
        p = Params({"w": (1003,)}, gen.standard_normal(1003))
        flat, m, v = p.flat.copy(), np.zeros(1003), np.zeros(1003)
        state = AdamState.create(p, lr=3e-3)
        b1, b2 = AdamState.BETA1, AdamState.BETA2
        for t in range(1, 8):
            g = gen.standard_normal(1003) * 10.0 ** gen.integers(-8, 3, 1003)
            adam_update(state, p, Params({"w": (1003,)}, g.copy()))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            flat = flat - 3e-3 * (m / (1.0 - b1 ** t)) / (
                np.sqrt(v / (1.0 - b2 ** t)) + AdamState.EPS)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            np.testing.assert_array_equal(p.flat, flat)

    def test_nonfinite_gradient_named(self):
        p = self.params()
        state = AdamState.create(p)
        with pytest.raises(NumericError, match="w"):
            adam_update(state, p,
                        Params({"w": (3,)}, np.array([0.0, np.nan, 0.0])))


class TestFiniteDifferenceCheck:
    def test_quadratic_loss(self):
        params = {"p": np.array([0.5, -1.2, 3.0])}

        def loss(ps):
            return float(0.5 * np.sum(ps["p"] ** 2)), {"p": ps["p"].copy()}

        assert finite_difference_check(loss, params, 1e-5) < 1e-9

    def test_nondeterministic_rejected(self):
        gen = np.random.default_rng(0)
        params = {"p": np.zeros(2)}

        def loss(ps):
            return float(gen.standard_normal()), {"p": np.zeros(2)}

        with pytest.raises(ContractViolation):
            finite_difference_check(loss, params, 1e-5)

    def test_five_point_stencil_is_fourth_order(self):
        """On a cubic the two-point stencil is off by h^2 f'''/6 and the
        five-point one is exact up to rounding."""
        params = {"p": np.array([0.5, -1.2, 3.0])}

        def loss(ps):
            return float(np.sum(ps["p"] ** 3)), {"p": 3.0 * ps["p"] ** 2}

        assert finite_difference_check(loss, params, 1e-2) > 1e-5
        assert finite_difference_check(loss, params, 1e-2, points=5) < 1e-10

    def test_unknown_stencil_rejected(self):
        params = {"p": np.zeros(1)}
        with pytest.raises(ContractViolation):
            finite_difference_check(lambda ps: (0.0, ps), params, points=3)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator().standard_normal(8)
        b = RngStream(42, 3).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(8)
        b = RngStream(42, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [
        (-2**63, 0), (-1, 5), (0, -3), (7, 1_000_000), (2**63 - 1, 2**63 - 1)])
    def test_rekeyed_bits_draw_as_a_new_generator(self, seed, stream):
        """A stream draws, bit for bit, what a Philox keyed by its seed and
        stream as two 64-bit words draws (two's complement for negative
        values; the words go in as uint64, as a list of such ints would
        cast through float)."""
        got = RngStream(seed, stream).generator()
        want = np.random.Generator(np.random.Philox(key=np.array(
            [seed % 2**64, stream % 2**64], np.uint64)))
        for draw in ("standard_normal", "uniform", "random"):
            np.testing.assert_array_equal(getattr(got, draw)(size=7),
                                          getattr(want, draw)(size=7))
        assert got.integers(2**32, size=3).tolist() == \
            want.integers(2**32, size=3).tolist()
