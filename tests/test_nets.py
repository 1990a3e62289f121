import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimgan.nets import (
    ACTIVATIONS,
    CheckpointError,
    Layer,
    MAX_PARAMETERS,
    NeuralNet,
    PROB_EPS,
    backward,
    checkpoint_load,
    checkpoint_save,
    forward,
    make_optimizer,
    max_relative_error,
    net_init,
    numeric_gradients,
    optimizer_step,
)

from flat_layout import unflatten
from json_values import JSON_VALUES


def single_layer(w, b, act):
    return NeuralNet([Layer(np.array(w, dtype=float), np.array(b, dtype=float), act)])


def v1_document(nets: dict) -> dict:
    """The v1 checkpoint document with every array as its list, as the
    writer built it before it streamed the arrays."""
    return {"version": 1, "nets": {
        name: {
            "dims": [net.input_dim] + [l.weight.shape[0] for l in net.layers],
            "activations": [l.activation for l in net.layers],
            "weights": [l.weight.tolist() for l in net.layers],
            "biases": [l.bias.tolist() for l in net.layers],
        }
        for name, net in nets.items()
    }}


class TestInit:
    def test_deterministic_given_seed(self):
        a = net_init([2, 4, 1], ["tanh", "sigmoid"], 7)
        b = net_init([2, 4, 1], ["tanh", "sigmoid"], 7)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_biases_are_zero(self):
        net = net_init([3, 3], ["identity"], 0)
        assert net.layers[0].bias.shape == (3,)
        assert np.all(net.layers[0].bias == 0.0)

    def test_weight_std_scales_with_fan_in(self):
        # pool weights over many draws; normalized std should be close to 1
        pooled = []
        for seed in range(200):
            net = net_init([2, 8, 1], ["tanh", "sigmoid"], seed)
            for layer in net.layers:
                fan_in = layer.weight.shape[1]
                pooled.append((layer.weight * np.sqrt(fan_in)).ravel())
        std = np.concatenate(pooled).std()
        assert abs(std - 1.0) < 0.25

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            net_init([2, 4, 1], ["tanh"], 0)
        with pytest.raises(ValueError):
            net_init([2, 0, 1], ["tanh", "sigmoid"], 0)
        with pytest.raises(ValueError):
            net_init([4], [], 0)

    @pytest.mark.parametrize("dims", [[2, 4096, 4096, 1], [1 << 40, 8]])
    def test_parameter_count_refused_before_any_draw(self, dims):
        # hidden 4096 is just over the cap; an (8, 2**40) weight could not
        # be allocated at all
        with pytest.raises(ValueError, match=f"parameters, over {MAX_PARAMETERS}$"):
            net_init(dims, ["relu"] * (len(dims) - 1), 0)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            net_init([2, 1], ["softplus"], 0)
        with pytest.raises(ValueError, match="unknown activation 'swish'"):
            single_layer([[1.0]], [0.0], "swish")


class TestForward:
    def test_zero_params_sigmoid_gives_half(self):
        net = single_layer([[0.0, 0.0]], [0.0], "sigmoid")
        out, _ = forward(net, np.array([[1.0, -3.0], [0.5, 2.0]]))
        assert np.all(out == 0.5)

    def test_identity_layer_is_identity(self):
        net = single_layer(np.eye(3), np.zeros(3), "identity")
        x = np.arange(6, dtype=float).reshape(2, 3)
        out, _ = forward(net, x)
        assert np.array_equal(out, x)

    def test_scalar_logistic_value(self):
        net = single_layer([[2.0]], [1.0], "sigmoid")
        out, _ = forward(net, np.array([[0.5]]))
        # logistic(2) computed independently
        assert out[0, 0] == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_rejects_bad_width_and_nonfinite(self):
        net = net_init([3, 1], ["sigmoid"], 0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            forward(net, np.array([[1.0, np.nan, 0.0]]))

    def test_sigmoid_outputs_clamped(self):
        net = single_layer([[1000.0]], [0.0], "sigmoid")
        out, _ = forward(net, np.array([[1.0], [-1.0]]))
        assert out[0, 0] <= 1.0 - PROB_EPS
        assert out[1, 0] >= PROB_EPS

    def test_forward_is_deterministic(self):
        net = net_init([4, 8, 2], ["relu", "identity"], 3)
        x = np.random.default_rng(0).standard_normal((5, 4))
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("acts", [["tanh", "tanh", "identity"], ["relu", "relu", "sigmoid"]])
    def test_cache_free_forward_gives_the_cached_output_bits(self, acts):
        net = net_init([5, 16, 16, 3], acts, 4)
        x = np.random.default_rng(4).standard_normal((37, 5))
        cached, cache = forward(net, x)
        out, none = forward(net, x, keep_cache=False)
        assert none is None and len(cache) == 3
        assert np.array_equal(out.view(np.uint64), cached.view(np.uint64))

    @pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid", "identity"])
    def test_forward_never_changes_its_input_batch(self, act):
        # relu and tanh activate in place; with an identity weight their
        # input has the batch's values, so writing into the batch would show
        net = single_layer(np.eye(3), np.zeros(3), act)
        x = np.array([[-1.5, 0.0, 2.0], [-0.0, 0.5, -3.0]])
        before = x.copy()
        out, _ = forward(net, x)
        assert np.array_equal(x, before) and not np.shares_memory(out, x)

    def test_relu_derivative_from_the_output_equals_the_one_from_z(self):
        relu, derivative = ACTIVATIONS["relu"]
        tiny = np.finfo(np.float64).smallest_subnormal
        z = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, 1.0, -1.0])
        from_z = (z > 0).astype(np.float64)
        out = relu(z.copy())
        assert np.array_equal(derivative(out), from_z)
        assert np.array_equal(out, np.maximum(z, 0.0), equal_nan=True)


class TestBackward:
    def test_zero_output_grad_gives_zero_param_grads(self):
        net = net_init([3, 5, 2], ["tanh", "identity"], 1)
        x = np.random.default_rng(2).standard_normal((4, 3))
        out, cache = forward(net, x)
        grads, input_grad = backward(net, cache, np.zeros_like(out))
        assert grads.shape == net.flat.shape and np.all(grads == 0)
        assert np.all(input_grad == 0)

    def test_single_linear_layer_matches_closed_form(self):
        # squared error on one point: dL/dw = 2*(yhat - y)*x
        net = single_layer([[0.7, -0.2]], [0.1], "identity")
        x = np.array([[1.5, -2.0]])
        y = 0.3
        out, cache = forward(net, x)
        resid = out[0, 0] - y
        grads, _ = backward(net, cache, np.array([[2.0 * resid]]))
        ((dw, db),) = unflatten(net, grads)
        assert np.allclose(dw, 2.0 * resid * x)
        assert db[0] == pytest.approx(2.0 * resid)

    def test_shape_mismatch_rejected(self):
        net = net_init([2, 1], ["identity"], 0)
        _, cache = forward(net, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((2, 1)))

    def test_skipped_halves_are_none_and_the_rest_is_unchanged(self):
        net = net_init([3, 5, 4, 1], ["relu", "tanh", "sigmoid"], 4)
        x = np.random.default_rng(5).standard_normal((6, 3))
        out, cache = forward(net, x)
        g = np.random.default_rng(6).standard_normal(out.shape)
        grads, input_grad = backward(net, cache, g)
        only_params, none_in = backward(net, cache, g, input_grad=False)
        none_params, only_input = backward(net, cache, g, param_grads=False)
        assert none_in is None and none_params is None
        assert np.array_equal(only_input, input_grad)
        assert np.array_equal(only_params, grads)


class TestGradCheck:
    """Backprop against central differences, through numeric_gradients and
    max_relative_error; loss(out) returns (value, dLoss/dOut)."""

    @staticmethod
    def error(net, loss, batch):
        out, cache = forward(net, batch)
        analytic, _ = backward(net, cache, loss(out)[1], input_grad=False)
        numeric = numeric_gradients(net, lambda: loss(forward(net, batch)[0])[0])
        return max_relative_error(analytic, numeric)

    @staticmethod
    def quadratic_loss(target):
        def loss(out):
            d = out - target
            return float((d * d).sum()), 2.0 * d

        return loss

    def test_linear_net_quadratic_loss_near_exact(self):
        net = net_init([3, 2], ["identity"], 5)
        x = np.random.default_rng(6).standard_normal((4, 3))
        assert self.error(net, self.quadratic_loss(0.5), x) <= 1e-7

    def test_logistic_net_bce_loss(self):
        net = net_init([4, 8, 1], ["tanh", "sigmoid"], 9)
        x = np.random.default_rng(10).standard_normal((6, 4))
        y = np.random.default_rng(11).integers(0, 2, (6, 1)).astype(float)

        def bce(out):
            v = float(-(y * np.log(out) + (1 - y) * np.log(1 - out)).mean())
            g = (out - y) / (out * (1 - out) * out.shape[0])
            return v, g

        assert self.error(net, bce, x) <= 1e-4

    def test_constant_loss_zero_error(self):
        net = single_layer([[0.0, 0.0]], [0.0], "identity")
        err = self.error(net, lambda out: (1.0, np.zeros_like(out)), np.zeros((2, 2)))
        assert err <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="gradient shapes differ"):
            max_relative_error(np.zeros(4), np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_nets_pass(self, seed):
        rng = np.random.default_rng(seed)
        net = net_init([3, 6, 6, 1], ["relu", "tanh", "sigmoid"], seed)
        x = rng.standard_normal((4, 3))

        def loss(out):
            return float(np.log(out).mean()), 1.0 / (out * out.shape[0])

        assert self.error(net, loss, x) <= 1e-4


class TestOptimizer:
    def test_zero_grads_leave_params(self):
        net = net_init([2, 3, 1], ["tanh", "sigmoid"], 0)
        before = [l.weight.copy() for l in net.layers]
        optimizer_step(net, np.zeros_like(net.flat), make_optimizer(net, "sgd", 0.1), "descend")
        for b, l in zip(before, net.layers):
            assert np.array_equal(b, l.weight)

    @pytest.mark.parametrize("algorithm", ["adam", "sgd"])
    @pytest.mark.parametrize("direction", ["ascend", "descend"])
    def test_zero_grad_steps_from_fresh_state_keep_every_bit(self, algorithm, direction):
        # why a known-zero update (a rule's None) may skip its step: from
        # zero moments every step adds +-0.0, which keeps a nonzero value
        # and a +0.0 bias to the bit
        net = net_init([2, 3, 1], ["tanh", "sigmoid"], 0)
        before = net.flat.copy()
        state = make_optimizer(net, algorithm, 0.1)
        for _ in range(50):
            optimizer_step(net, np.zeros_like(net.flat), state, direction)
        assert np.array_equal(net.flat, before)
        biases = np.concatenate([l.bias for l in net.layers])
        assert np.all(biases == 0.0) and not np.signbit(biases).any()

    def test_sgd_descend_arithmetic(self):
        net = single_layer([[1.0]], [0.0], "identity")
        grads = np.array([0.5, 0.0])  # (dW, db), laid out like net.flat
        optimizer_step(net, grads, make_optimizer(net, "sgd", 0.1), "descend")
        assert net.layers[0].weight[0, 0] == pytest.approx(0.95)

    def test_sgd_ascend_then_descend_restores(self):
        net = net_init([3, 4, 1], ["relu", "sigmoid"], 2)
        before = [(l.weight.copy(), l.bias.copy()) for l in net.layers]
        grads = np.empty_like(net.flat)
        for (gw, gb), l in zip(unflatten(net, grads), net.layers):
            gw[:] = np.random.default_rng(3).standard_normal(l.weight.shape)
            gb[:] = 1.0
        state = make_optimizer(net, "sgd", 0.05)
        optimizer_step(net, grads, state, "ascend")
        optimizer_step(net, grads, state, "descend")
        for (w, b), l in zip(before, net.layers):
            assert np.allclose(w, l.weight) and np.allclose(b, l.bias)
        assert state.step == 2

    @pytest.mark.parametrize("size_delta", [-1, 1])
    def test_gradient_shape_mismatch_rejected_state_unchanged(self, size_delta):
        net = net_init([2, 3, 1], ["tanh", "sigmoid"], 1)
        state = make_optimizer(net, "adam", 0.1)
        flat = net.flat.copy()
        with pytest.raises(ValueError, match="gradient shape"):
            optimizer_step(net, np.ones(net.flat.size + size_delta), state, "descend")
        assert state.step == 0 and np.array_equal(net.flat, flat)

    def test_nonfinite_grads_rejected_state_unchanged(self):
        net = single_layer([[1.0]], [0.0], "identity")
        state = make_optimizer(net, "adam", 0.1)
        bad = np.array([np.inf, 0.0])
        with pytest.raises(ValueError):
            optimizer_step(net, bad, state, "descend")
        assert state.step == 0
        assert net.layers[0].weight[0, 0] == 1.0

    def test_adam_moves_against_gradient(self):
        net = single_layer([[1.0]], [0.0], "identity")
        grads = np.array([0.5, 0.0])
        optimizer_step(net, grads, make_optimizer(net, "adam", 0.01), "descend")
        assert net.layers[0].weight[0, 0] < 1.0

    def test_params_stay_finite_under_updates(self):
        net = net_init([2, 4, 1], ["relu", "sigmoid"], 4)
        state = make_optimizer(net, "adam", 0.1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            optimizer_step(net, rng.standard_normal(net.flat.size), state, "descend")
        for l in net.layers:
            assert np.all(np.isfinite(l.weight)) and np.all(np.isfinite(l.bias))


def reference_step(params, grads, moments, step, algorithm, lr, sign):
    """Per-array Adam/SGD as written before flat storage; updates in place."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    for arr, g, (m, v) in zip(params, grads, moments):
        if algorithm == "sgd":
            arr += sign * lr * g
            continue
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**step)
        v_hat = v / (1 - b2**step)
        arr += sign * lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatStorage:
    @staticmethod
    def assert_views_of_flat(net):
        offset = 0
        for l in net.layers:
            for arr in (l.weight, l.bias):
                assert np.shares_memory(arr, net.flat)
                assert np.array_equal(arr.ravel(), net.flat[offset : offset + arr.size])
                offset += arr.size
        assert offset == net.flat.size and net.flat.dtype == np.float64

    def test_layers_are_views_after_every_construction(self, tmp_path):
        net = net_init([3, 5, 2], ["relu", "sigmoid"], 0)
        self.assert_views_of_flat(net)
        self.assert_views_of_flat(net.copy())
        checkpoint_save({"n": net}, tmp_path / "c.json")
        self.assert_views_of_flat(checkpoint_load(tmp_path / "c.json")["n"])
        direct = single_layer([[1, 2], [3, 4]], [5, 6], "identity")
        self.assert_views_of_flat(direct)
        assert np.array_equal(direct.flat, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_writes_through_flat_reach_the_layers(self):
        net = net_init([2, 3, 1], ["tanh", "sigmoid"], 1)
        net.flat[:] = np.arange(net.flat.size)
        assert net.layers[0].weight[1, 0] == 2.0
        assert net.layers[1].bias[0] == net.flat.size - 1

    def test_direct_construction_copies_and_leaves_given_layers_alone(self):
        w, b = np.ones((1, 2)), np.zeros(1)
        given = Layer(w, b, "identity")
        net = NeuralNet([given])
        net.flat += 1.0
        assert np.all(w == 1.0) and np.all(b == 0.0)
        assert given.weight is w and given.bias is b
        # building a second net from the first one's layers must not detach them
        other = NeuralNet(net.layers)
        self.assert_views_of_flat(net)
        self.assert_views_of_flat(other)
        assert not np.shares_memory(net.flat, other.flat)

    def test_copy_does_not_alias_source(self):
        net = net_init([2, 4, 1], ["relu", "sigmoid"], 2)
        c = net.copy()
        assert not np.shares_memory(c.flat, net.flat)
        assert np.array_equal(c.flat, net.flat)
        c.flat += 1.0
        c.layers[0].weight[0, 0] = 99.0
        assert not np.array_equal(c.flat, net.flat)
        assert np.array_equal(net.flat, net_init([2, 4, 1], ["relu", "sigmoid"], 2).flat)

    @pytest.mark.parametrize(
        "algorithm,direction",
        [("adam", "descend"), ("adam", "ascend"), ("sgd", "descend"), ("sgd", "ascend")],
    )
    def test_flat_update_bit_identical_to_per_array_reference(self, algorithm, direction):
        # to the bit, signed zeros included: the flat update runs in place
        # on scratch vectors, the reference on fresh arrays per term
        net = net_init([3, 6, 6, 1], ["relu", "tanh", "sigmoid"], 4)
        params = [a.copy() for l in net.layers for a in (l.weight, l.bias)]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in params]
        state = make_optimizer(net, algorithm, 0.01)
        sign = 1.0 if direction == "ascend" else -1.0
        rng = np.random.default_rng(5)
        for step in range(1, 51):
            grads = rng.standard_normal(net.flat.size)
            grads[:3] = (0.0, -0.0, 5e-324)
            given = grads.tobytes()
            optimizer_step(net, grads, state, direction)
            assert grads.tobytes() == given
            per_array = [a for pair in unflatten(net, grads) for a in pair]
            reference_step(params, per_array, moments, step, algorithm, 0.01, sign)
            got = [a for l in net.layers for a in (l.weight, l.bias)]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, params)), step
            if algorithm == "adam":
                assert state.m.tobytes() == b"".join(m.tobytes() for m, _ in moments)
                assert state.v.tobytes() == b"".join(v.tobytes() for _, v in moments)
        assert state.step == 50

    def test_backward_fills_the_flat_layout_like_a_per_layer_reference(self):
        net = net_init([3, 5, 4, 6, 2], ["relu", "tanh", "sigmoid", "identity"], 7)
        x = np.random.default_rng(8).standard_normal((5, 3))
        out, cache = forward(net, x)
        g = np.random.default_rng(9).standard_normal(out.shape)
        grads, _ = backward(net, cache, g, input_grad=False)
        assert grads.shape == net.flat.shape and grads.dtype == np.float64
        # the per-layer rule as written before flat gradients, last layer first
        act_grad = {
            "relu": lambda z, o: (z > 0).astype(np.float64),
            "tanh": lambda z, o: 1.0 - o * o,
            "sigmoid": lambda z, o: o * (1.0 - o),
            "identity": lambda z, o: np.ones_like(z),
        }
        expected = [None] * len(net.layers)
        delta = g
        for k in range(len(net.layers) - 1, -1, -1):
            h_in, o = cache[k]
            z = h_in @ net.layers[k].weight.T + net.layers[k].bias
            dz = delta * act_grad[net.layers[k].activation](z, o)
            expected[k] = (dz.T @ h_in, dz.sum(axis=0))
            delta = dz @ net.layers[k].weight
        for (w_view, b_view), (dw, db) in zip(unflatten(net, grads), expected):
            assert np.array_equal(w_view, dw) and np.array_equal(b_view, db)
            assert np.shares_memory(w_view, grads) and np.shares_memory(b_view, grads)
        # weight then bias, layer by layer, independent of unflatten
        assert np.array_equal(grads, np.concatenate([a.ravel() for pair in expected for a in pair]))

    def test_nonfinite_grad_leaves_params_and_moments_untouched(self):
        net = net_init([2, 4, 1], ["relu", "sigmoid"], 6)
        state = make_optimizer(net, "adam", 0.1)
        optimizer_step(net, np.ones_like(net.flat), state, "descend")
        flat, m, v = net.flat.copy(), state.m.copy(), state.v.copy()
        for bad_value in (np.nan, np.inf, -np.inf):
            bad = np.ones_like(net.flat)
            unflatten(net, bad)[-1][1][0] = bad_value  # only the last array of the last layer
            with pytest.raises(ValueError, match="non-finite"):
                optimizer_step(net, bad, state, "descend")
            assert np.array_equal(net.flat, flat)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
            assert state.step == 1


class TestCheckpoint:
    def test_round_trip_identity(self, tmp_path):
        nets = {
            "Gp": net_init([2, 4, 3], ["tanh", "identity"], 1),
            "Dy": net_init([3, 4, 1], ["relu", "sigmoid"], 2),
        }
        path = tmp_path / "ckpt.json"
        checkpoint_save(nets, path)
        loaded = checkpoint_load(path)
        x = np.random.default_rng(0).standard_normal((5, 3))
        a, _ = forward(nets["Dy"], x)
        b, _ = forward(loaded["Dy"], x)
        assert np.array_equal(a, b)
        for name in nets:
            for la, lb in zip(nets[name].layers, loaded[name].layers):
                assert np.array_equal(la.weight, lb.weight)
                assert np.array_equal(la.bias, lb.bias)

    def test_truncated_file_rejected(self, tmp_path):
        nets = {"Gp": net_init([2, 3], ["identity"], 0)}
        path = tmp_path / "ckpt.json"
        checkpoint_save(nets, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": 99, "nets": {}}')
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    @pytest.mark.parametrize("spelled", ["true", "1.0", '"1"'], ids=["bool", "float", "string"])
    def test_version_must_be_an_int_quoted_as_spelled(self, tmp_path, spelled):
        # JSON true and 1.0 compare equal to 1 in Python; neither is version 1
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": %s, "nets": {}}' % spelled)
        with pytest.raises(CheckpointError, match=re.escape(f"checkpoint version {spelled} unsupported")):
            checkpoint_load(path)

    RECORD = "record must be an object with lists dims, activations, weights and biases"

    @pytest.mark.parametrize(
        "rec, cause",
        [
            ({"dims": [2], "activations": [], "weights": [], "biases": []},
             "lists disagree or hold no layer: 1 dims, 0 activations, 0 weights, 0 biases"),
            ({"dims": [2, 2], "activations": ["identity"],
              "weights": [[[1.0, 2.0], [3.0]]], "biases": [[0.0, 0.0]]},
             "setting an array element with a sequence"),
            ({"activations": [], "weights": [], "biases": []}, RECORD),
            ([], RECORD),
            (None, RECORD),
            ({"dims": 3, "activations": [], "weights": [], "biases": []}, RECORD),
        ],
        ids=["no-layers", "ragged-weights", "no-dims", "list", "null", "int-dims"],
    )
    def test_malformed_net_rejected(self, tmp_path, rec, cause):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "nets": {"Gy": rec}}))
        with pytest.raises(CheckpointError) as caught:
            checkpoint_load(path)
        assert str(caught.value).startswith(f"{path}: net 'Gy': {cause}")

    # a valid one-layer 2 -> 3 record; each case makes its lists disagree or hold no layer
    ONE_LAYER = {"dims": [2, 3], "activations": ["tanh"],
                 "weights": [[[1.0, 2.0]] * 3], "biases": [[0.0] * 3]}

    @pytest.mark.parametrize(
        "extra, counts",
        [
            ({"dims": [2, 3, 1]}, "3 dims, 1 activations, 1 weights, 1 biases"),
            ({"activations": ["tanh", "relu"]}, "2 dims, 2 activations, 1 weights, 1 biases"),
            ({"weights": [[[1.0, 2.0]] * 3, [[1.0, 1.0, 1.0]]]},
             "2 dims, 1 activations, 2 weights, 1 biases"),
            ({"biases": [[0.0] * 3, [0.0]]}, "2 dims, 1 activations, 1 weights, 2 biases"),
            ({"dims": [2, 3, 1], "weights": [[[1.0, 2.0]] * 3, [[1.0, 1.0, 1.0]]],
              "biases": [[0.0] * 3, [0.0], [0.0]]},
             "3 dims, 1 activations, 2 weights, 3 biases"),
            ({"dims": [], "activations": [], "weights": [], "biases": []},
             "0 dims, 0 activations, 0 weights, 0 biases"),
        ],
        ids=["dims-longer", "activations-longer", "weights-longer", "biases-longer",
             "dims-weights-biases-longer", "empty"],
    )
    def test_records_whose_lists_disagree_rejected_naming_the_net(self, tmp_path, extra, counts):
        path = tmp_path / "bad.json"
        ok = {"version": 1, "nets": {"Dp": self.ONE_LAYER}}
        path.write_text(json.dumps(ok))
        assert checkpoint_load(path)["Dp"].output_dim == 3
        bad = {**self.ONE_LAYER, **extra}
        path.write_text(json.dumps({"version": 1, "nets": {"Dp": self.ONE_LAYER, "Gy": bad}}))
        with pytest.raises(CheckpointError) as caught:
            checkpoint_load(path)
        assert str(caught.value) == f"{path}: net 'Gy': lists disagree or hold no layer: {counts}"

    def test_int_past_the_digit_limit_is_malformed_json(self, tmp_path):
        # Python refuses to parse an int of more than 4300 digits (a ValueError
        # that is not a JSONDecodeError)
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "nets": {"Gy": {"dims": [%s]}}}' % ("1" * 5000))
        with pytest.raises(CheckpointError) as caught:
            checkpoint_load(path)
        assert str(caught.value).startswith(f"{path}: not valid JSON: Exceeds the limit")

    @pytest.mark.parametrize("nets", [[], None, "Gy", 3], ids=["list", "null", "string", "number"])
    def test_nets_not_an_object_rejected(self, tmp_path, nets):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "nets": nets}))
        with pytest.raises(CheckpointError, match="nets must be an object"):
            checkpoint_load(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["weights", "biases"])
    def test_non_finite_parameters_rejected_naming_the_net(self, tmp_path, bad, where):
        rec = {"dims": [1, 1], "activations": ["sigmoid"], "weights": [[[1.0]]], "biases": [[0.0]]}
        rec[where] = [[[bad]]] if where == "weights" else [[bad]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "nets": {"Gy": rec}}))  # NaN, Infinity
        with pytest.raises(CheckpointError, match="net 'Gy': non-finite parameters"):
            checkpoint_load(path)

    def test_unknown_activation_names_net_and_activation(self, tmp_path):
        rec = {"dims": [1, 1], "activations": ["swish"], "weights": [[[1.0]]], "biases": [[0.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "nets": {"Gy": rec}}))
        with pytest.raises(CheckpointError, match="net 'Gy': unknown activation 'swish'"):
            checkpoint_load(path)

    @pytest.mark.parametrize(
        "nets",
        [
            pytest.param({"Gy": net_init([1, 1], ["sigmoid"], 0)}, id="dim-1-one-unit"),
            pytest.param({"Gp": net_init([1, 1, 1, 1], ["relu", "tanh", "identity"], 1)},
                         id="one-unit-layers"),
            pytest.param({act: net_init([3, 2], [act], i) for i, act in enumerate(ACTIVATIONS)},
                         id="every-activation"),
            pytest.param({'say "hi"': net_init([2, 1], ["tanh"], 2),
                          "back\\slash": net_init([2, 1], ["relu"], 3),
                          "Gé\u2603": net_init([2, 1], ["identity"], 4)},
                         id="names-with-escapes"),
            pytest.param({}, id="no-nets"),
        ],
    )
    def test_writer_bytes_are_json_dumps_of_the_document(self, tmp_path, nets):
        path = tmp_path / "ckpt.json"
        checkpoint_save(nets, path)
        assert path.read_bytes() == json.dumps(v1_document(nets)).encode()
        assert list(checkpoint_load(path)) == list(nets)

    # the loader converts each net's lists to arrays while parsing; a list
    # numpy refuses must still fail where it did. Every failure inside a
    # net's record names the net, and only the document's own faults read
    # "not valid JSON" or "malformed checkpoint"
    BIG_INT = "1" + "0" * 400
    RAGGED = ("net 'Gy': setting an array element with a sequence. The "
              "requested array has an inhomogeneous shape after 1 dimensions. The "
              "detected shape was (2,) + inhomogeneous part.")

    @pytest.mark.parametrize(
        "version, weights, biases, message",
        [
            pytest.param(1, "[[[1.0, 2.0], [3.0]]]", "[[0.5]]", RAGGED, id="ragged-weights"),
            pytest.param(1, "[[[1.0, 2.0]]]", "[[0.5, [1.0]]]", RAGGED, id="ragged-biases"),
            pytest.param(1, "[[[NaN, 2.0]]]", "[[0.5]]",
                         "net 'Gy': non-finite parameters", id="nan"),
            pytest.param(1, "[[[1.0, 2.0]]]", "[[-Infinity]]",
                         "net 'Gy': non-finite parameters", id="inf-bias"),
            pytest.param(1, "[[[1e400, 2.0]]]", "[[0.5]]",
                         "net 'Gy': non-finite parameters", id="float-beyond-range"),
            pytest.param(1, f"[[[{BIG_INT}, 2.0]]]", "[[0.5]]",
                         "net 'Gy': int too large to convert to float", id="int-beyond-range"),
            pytest.param(1, '[[["x", 2.0]]]', "[[0.5]]",
                         "net 'Gy': could not convert string to float: 'x'", id="string"),
            pytest.param(1, "[[[1.0, 2.0, 3.0]]]", "[[0.5]]",
                         "net 'Gy': parameter shape mismatch", id="shape"),
            pytest.param(1, "[]", "[[0.5]]", "net 'Gy': lists disagree or hold no layer: "
                         "2 dims, 1 activations, 0 weights, 1 biases", id="no-weights"),
            pytest.param(2, "[[[1.0, 2.0], [3.0]]]", "[[0.5]]",
                         "checkpoint version 2 unsupported (expected 1)", id="version-2-ragged"),
            pytest.param(2, f"[[[{BIG_INT}]]]", "[[0.5]]",
                         "checkpoint version 2 unsupported (expected 1)", id="version-2-big-int"),
        ],
    )
    def test_load_errors_keep_their_messages_and_order(
        self, tmp_path, version, weights, biases, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(
            f'{{"version": {version}, "nets": {{"Gy": {{"dims": [2, 1], '
            f'"activations": ["sigmoid"], "weights": {weights}, "biases": {biases}}}}}}}'
        )
        with pytest.raises(CheckpointError) as caught:
            checkpoint_load(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_six_net_names_preserved(self, tmp_path):
        names = ["Gp", "Gn", "Gy", "Dp", "Dn", "Dy"]
        nets = {n: net_init([2, 2, 1], ["tanh", "sigmoid"], i) for i, n in enumerate(names)}
        path = tmp_path / "six.json"
        checkpoint_save(nets, path)
        assert set(checkpoint_load(path)) == set(names)


@st.composite
def _random_nets(draw) -> dict:
    """1-3 nets of 1-4 layers, widths 1-8, any activation and any finite
    parameters (subnormals and signed zeros too), under any names."""
    nets = {}
    for name in draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True)):
        dims = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5))
        acts = draw(st.lists(st.sampled_from(sorted(ACTIVATIONS)),
                             min_size=len(dims) - 1, max_size=len(dims) - 1))
        net = net_init(dims, acts, 0)
        net.flat[:] = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=net.flat.size, max_size=net.flat.size))
        nets[name] = net
    return nets


@settings(max_examples=100, deadline=None)
@given(_random_nets())
def test_random_nets_round_trip_with_equal_bits(tmp_path_factory, nets):
    path = tmp_path_factory.getbasetemp() / "fuzzed-ckpt.json"
    checkpoint_save(nets, path)
    assert path.read_bytes() == json.dumps(v1_document(nets)).encode()
    loaded = checkpoint_load(path)
    assert list(loaded) == list(nets)
    for name, net in nets.items():
        assert [l.activation for l in loaded[name].layers] == [l.activation for l in net.layers]
        assert [l.weight.shape for l in loaded[name].layers] == [l.weight.shape for l in net.layers]
        assert loaded[name].flat.tobytes() == net.flat.tobytes()


_NUMBERS = st.integers(-2, 2) | st.floats() | st.integers()


@st.composite
def _records(draw) -> object:
    """Any JSON value, or a net record of 1-2 layers and widths 1-2 with
    finite, NaN, infinite or big-int parameters, then perhaps with one key
    dropped or set to any JSON value, one list a layer longer or shorter, or
    one parameter list ragged."""
    if draw(st.integers(0, 7)) == 0:
        return draw(JSON_VALUES)
    dims = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    rec = {
        "dims": dims,
        "activations": [draw(st.sampled_from([*ACTIVATIONS, "swish"])) for _ in dims[1:]],
        "weights": [[[draw(_NUMBERS) for _ in range(i)] for _ in range(o)]
                    for i, o in zip(dims, dims[1:])],
        "biases": [[draw(_NUMBERS) for _ in range(o)] for o in dims[1:]],
    }
    key = draw(st.sampled_from(sorted(rec)))
    change = draw(st.sampled_from(["none", "drop", "json", "longer", "shorter", "ragged"]))
    if change == "drop":
        del rec[key]
    elif change == "json":
        rec[key] = draw(JSON_VALUES)
    elif change == "longer":
        rec[key] = rec[key] + [draw(JSON_VALUES)]
    elif change == "shorter":
        rec[key] = rec[key][1:]
    elif change == "ragged" and key in ("weights", "biases"):
        rec[key][0][-1] = [rec[key][0][-1]]
    return rec


_CHECKPOINT_DOCS = JSON_VALUES | st.builds(
    lambda version, nets: {"version": version, "nets": nets},
    st.just(1) | JSON_VALUES,
    st.dictionaries(st.text(max_size=3), _records(), max_size=3) | JSON_VALUES,
)


@settings(max_examples=300, deadline=None)
@given(_CHECKPOINT_DOCS)
def test_any_json_document_loads_or_raises_checkpoint_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed-ckpt.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as JSON writes them
    try:
        nets = checkpoint_load(path)
    except CheckpointError as e:
        assert str(e).startswith(f"{path}: ")
        return
    assert list(nets) == list(doc["nets"])
    assert all(isinstance(net, NeuralNet) for net in nets.values())


def test_numeric_gradients_matches_simple_analytic():
    net = single_layer([[2.0]], [1.0], "identity")
    # f(w, b) = (w*3 + b)^2 -> df/dw = 6*(3w+b), df/db = 2*(3w+b)
    value = lambda: float((net.layers[0].weight[0, 0] * 3 + net.layers[0].bias[0]) ** 2)
    grads = numeric_gradients(net, value)
    ((dw, db),) = unflatten(net, grads)
    assert dw[0, 0] == pytest.approx(6 * 7.0, rel=1e-6)
    assert db[0] == pytest.approx(2 * 7.0, rel=1e-6)


# --- bit identity with the plain formulas ----------------------------------
#
# forward and backward work in place on their own temporaries, but must give
# the bits of the plain out-of-place formulas below: the same operations on
# the same operands in the same order. The optimizers are held to
# reference_step the same way.


def reference_sigmoid(z):
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return np.minimum(np.maximum(s, PROB_EPS), 1.0 - PROB_EPS)


REFERENCE_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda out: (out > 0).astype(np.float64)),
    "tanh": (np.tanh, lambda out: 1.0 - out * out),
    "sigmoid": (reference_sigmoid, lambda out: out * (1.0 - out)),
    "identity": (lambda z: z, np.ones_like),
}


def reference_forward(net, x):
    h, cache = x, []
    for layer in net.layers:
        out = REFERENCE_ACTIVATIONS[layer.activation][0](h @ layer.weight.T + layer.bias)
        cache.append((h, out))
        h = out
    return h, cache


def reference_backward(net, cache, output_grad):
    grads = np.empty_like(net.flat)
    delta = output_grad
    for k in range(len(net.layers) - 1, -1, -1):
        h_in, out = cache[k]
        layer = net.layers[k]
        dz = delta * REFERENCE_ACTIVATIONS[layer.activation][1](out)
        w_view, b_view = unflatten(net, grads)[k]
        np.matmul(dz.T, h_in, out=w_view)
        dz.sum(axis=0, out=b_view)
        delta = dz @ layer.weight
    return grads, delta


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


# (batch, dims) for the forward/backward comparison: a small net, then at
# batch 64 and 0 one-output nets like trigan.judge_net, whose backward
# multiplies a column by a row (in [4, 1] that product is the input gradient,
# so the sign of each of its zeros shows), and the workloads' nets: the toy
# and corpus judges and sample generators
REFERENCE_NETS = [
    *((batch, [4, 6, 5, 3]) for batch in (1, 3, 37)),
    *((batch, dims) for dims in (
        [4, 6, 5, 1], [4, 1], [2, 64, 64, 1], [64, 64, 64, 1], [8, 64, 64, 2], [8, 64, 64, 64],
    ) for batch in (64, 0)),
]
REFERENCE_NET_IDS = [
    str(batch) if dims == [4, 6, 5, 3] else f"{batch}-{'x'.join(map(str, dims))}"
    for batch, dims in REFERENCE_NETS
]


# pre-activations on both sides of every kink and clamp: signed zeros, the
# smallest subnormals, and values where the sigmoid clamps or exp underflows
EDGE_Z = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 3.0, -3.0,
    16.0, -16.0, 16.2, -16.2, 17.0, -17.0, 40.0, -40.0, 745.0, -745.0, 800.0, -800.0,
])


class TestSameBitsAsTheReferenceFormulas:
    @pytest.mark.parametrize("act", sorted(ACTIVATIONS))
    def test_activation_and_derivative_at_the_edges(self, act):
        activate, derivative = ACTIVATIONS[act]
        ref_activate, ref_derivative = REFERENCE_ACTIVATIONS[act]
        z = EDGE_Z.reshape(-1, 2)
        out = activate(z.copy())
        assert bits(out) == bits(ref_activate(z.copy()))
        before = bits(out)
        d = derivative(out)
        assert bits(d) == bits(ref_derivative(out))
        assert bits(out) == before and not np.shares_memory(d, out)

    def test_sigmoid_reads_its_input_only(self):
        z = EDGE_Z.copy()
        ACTIVATIONS["sigmoid"][0](z)
        assert bits(z) == bits(EDGE_Z)

    @pytest.mark.parametrize("act", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("batch, dims", REFERENCE_NETS, ids=REFERENCE_NET_IDS)
    def test_forward_and_backward(self, act, batch, dims):
        # the activation on every layer; the batch's columns and
        # output_grad's rows hold exact zeros of both signs
        net = net_init(dims, [act] * (len(dims) - 1), 11)
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, dims[0]))
        x[:, 0] = 0.0
        x[:1, 1] = -0.0
        g = rng.standard_normal((batch, dims[-1]))
        g[1:2] = 0.0
        g[2:3] = -0.0
        out, cache = forward(net, x)
        ref_out, ref_cache = reference_forward(net, x)
        assert bits(out) == bits(ref_out)
        for (h, o), (ref_h, ref_o) in zip(cache, ref_cache):
            assert bits(h) == bits(ref_h) and bits(o) == bits(ref_o)
        grads, input_grad = backward(net, cache, g)
        ref_grads, ref_input_grad = reference_backward(net, ref_cache, g)
        assert bits(grads) == bits(ref_grads)
        assert bits(input_grad) == bits(ref_input_grad)

    @pytest.mark.parametrize("act", sorted(ACTIVATIONS))
    def test_backward_writes_neither_output_grad_nor_the_cache(self, act):
        net = net_init([3, 4, 2], [act, act], 12)
        x = np.random.default_rng(13).standard_normal((5, 3))
        out, cache = forward(net, x)
        g = np.random.default_rng(14).standard_normal(out.shape)
        before = [bits(g)] + [bits(a) for pair in cache for a in pair]
        grads, input_grad = backward(net, cache, g)
        assert [bits(g)] + [bits(a) for pair in cache for a in pair] == before
        for a in [g, *(a for pair in cache for a in pair)]:
            assert not np.shares_memory(grads, a) and not np.shares_memory(input_grad, a)
