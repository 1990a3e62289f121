import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from claimgan.data import gaussian_mixture
from claimgan.gradcheck import _random_instance
from claimgan.nets import (
    Layer,
    NeuralNet,
    forward,
    make_optimizer,
    max_relative_error,
    net_init,
    numeric_gradients,
)
from claimgan.trigan import (
    G_Y_ROW,
    NET_NAMES,
    PROPOSED_STEPS,
    TrainConfig,
    TriGanModel,
    bracket_grads,
    bracket_value,
    build_model,
    classify_batch,
    d_y_objective,
    d_p_step_grads,
    g_n_loss,
    g_p_loss,
    g_y_loss,
    g_y_step_grads,
    gan_objective,
    predict,
    run_steps,
    train,
)

LN_HALF = math.log(0.5)


class TestObjectives:
    def test_gan_objective_midpoint(self):
        assert gan_objective([0.5], [0.5]) == pytest.approx(2 * LN_HALF, abs=1e-12)

    def test_gan_objective_perfect_discriminator_near_zero(self):
        eps = 1e-7
        assert gan_objective([1 - eps], [eps]) == pytest.approx(0.0, abs=1e-5)

    def test_gan_objective_frozen_value(self):
        # mean(ln(0.8, 0.6)) + mean(ln(0.7, 0.9)), computed independently
        assert gan_objective([0.8, 0.6], [0.3, 0.1]) == pytest.approx(
            -0.5980023173375415, abs=1e-10
        )

    def test_gan_objective_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            gan_objective([], [0.5])
        with pytest.raises(ValueError):
            gan_objective([0.5], [1.0])
        with pytest.raises(ValueError):
            gan_objective([0.0], [0.5])

    def test_d_y_objective_uniform_probs(self):
        # ln 0.5 * (1 + pi_p + pi_n) = 2 ln 0.5 for any valid priors
        for pi_p in (0.1, 0.5, 0.9):
            v = d_y_objective([0.5], [0.5], [0.5], pi_p, 1 - pi_p)
            assert v == pytest.approx(2 * LN_HALF, abs=1e-12)

    def test_d_y_objective_frozen_value(self):
        # ln 0.9 + 0.7 ln 0.8 + 0.3 ln 0.6
        v = d_y_objective([0.9], [0.2], [0.4], 0.7, 0.3)
        assert v == pytest.approx(-0.4148086887101601, abs=1e-10)

    def test_d_y_objective_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            d_y_objective([0.5], [0.5], [0.5], 0.7, 0.7)
        with pytest.raises(ValueError):
            d_y_objective([0.5], [0.5], [0.5], -0.1, 1.1)


class TestGeneratorLosses:
    def test_g_p_loss_near_zero_when_fooling(self):
        eps = 1e-7
        assert g_p_loss([1 - eps], [1 - eps], 0.7) == pytest.approx(0.0, abs=1e-5)

    def test_g_p_loss_midpoint(self):
        assert g_p_loss([0.5], [0.5], 1.0) == pytest.approx(-2 * LN_HALF, abs=1e-12)

    def test_g_p_loss_frozen_value(self):
        # 0.7289 * (-ln 0.8 - ln 0.6)
        assert g_p_loss([0.8], [0.6], 0.7289) == pytest.approx(
            0.5349901317, abs=1e-9
        )

    def test_g_n_mirrors_g_p(self):
        assert g_n_loss([0.8], [0.6], 0.7289) == g_p_loss([0.8], [0.6], 0.7289)

    def test_g_y_loss_alg1_midpoint(self):
        v = g_y_loss([0.5], [0.5], 0.5, 0.5, "alg1-line14")
        assert v == pytest.approx(-LN_HALF, abs=1e-12)

    def test_g_y_loss_alg1_frozen_value(self):
        # -0.7289 ln 0.8 - 0.2711 ln 0.6
        v = g_y_loss([0.8], [0.6], 0.7289, 0.2711, "alg1-line14")
        assert v == pytest.approx(0.3011341612, abs=1e-9)

    def test_g_y_loss_eq4_requires_outputs(self):
        with pytest.raises(ValueError):
            g_y_loss([0.5], [0.5], 0.5, 0.5, "eq4")

    def test_g_y_loss_eq4_soft_target_arithmetic(self):
        # -pi_p*(t ln u + (1-t) ln(1-t)) - pi_n*(same), computed by hand
        t, u = 0.8, 0.6
        per_class = t * math.log(u) + (1 - t) * math.log(1 - t)
        v = g_y_loss([t], [t], 0.5, 0.5, "eq4", [u], [u])
        assert v == pytest.approx(-per_class, abs=1e-12)

    def test_g_y_loss_generator_labels_arithmetic(self):
        # -0.7 ln 0.8 - 0.3 ln(1 - 0.4), computed by hand
        v = g_y_loss(None, None, 0.7, 0.3, "generator-labels", [0.8], [0.4])
        assert v == pytest.approx(0.30944817304974404, abs=1e-12)

    def test_g_y_loss_unknown_mode(self):
        with pytest.raises(ValueError):
            g_y_loss([0.5], [0.5], 0.5, 0.5, "eq5")


class TestModel:
    def test_build_model_shapes(self):
        m = build_model(sample_dim=3, noise_dim=2, pi_p=0.6, pi_n=0.4, seed=0, hidden=8)
        assert m.g_p.input_dim == 2 and m.g_p.output_dim == 3
        assert m.g_n.input_dim == 2 and m.g_n.output_dim == 3
        for name in ("g_y", "d_p", "d_n", "d_y"):
            net = getattr(m, name)
            assert net.input_dim == 3 and net.output_dim == 1

    def test_six_nets_independently_initialized(self):
        m = build_model(3, 2, 0.5, 0.5, seed=0, hidden=8)
        nets = m.nets()
        assert set(nets) == set(NET_NAMES)
        assert not np.array_equal(nets["d_p"].layers[0].weight, nets["d_n"].layers[0].weight)

    def test_build_deterministic(self):
        a = build_model(3, 2, 0.5, 0.5, seed=42, hidden=8)
        b = build_model(3, 2, 0.5, 0.5, seed=42, hidden=8)
        for name in NET_NAMES:
            for la, lb in zip(getattr(a, name).layers, getattr(b, name).layers):
                assert np.array_equal(la.weight, lb.weight)

    def test_invalid_priors_rejected(self):
        with pytest.raises(ValueError):
            build_model(3, 2, 0.6, 0.6, seed=0, hidden=8)

    # model of build_model(sample_dim=3, noise_dim=2, ...): one net per case
    # with a wrong input or output width for its role
    @pytest.mark.parametrize(
        "name,dims,message",
        [
            ("g_n", [2, 8, 4], "g_n must map noise_dim -> sample_dim"),
            ("g_p", [3, 8, 3], "g_p must map noise_dim -> sample_dim"),
            ("d_y", [4, 8, 1], "d_y must map sample_dim -> 1"),
            ("g_y", [3, 8, 2], "g_y must map sample_dim -> 1"),
        ],
    )
    def test_wrong_shape_net_rejected(self, name, dims, message):
        m = build_model(3, 2, 0.5, 0.5, seed=0, hidden=8)
        wrong = net_init(dims, ["tanh", "identity"], seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(m, **{name: wrong})

    def test_copy_is_deep(self):
        m = build_model(3, 2, 0.5, 0.5, seed=0, hidden=8)
        c = m.copy()
        c.d_p.layers[0].weight += 1.0
        assert not np.array_equal(m.d_p.layers[0].weight, c.d_p.layers[0].weight)

    def test_classify_threshold(self):
        m = build_model(3, 2, 0.5, 0.5, seed=1, hidden=8)
        xs = np.random.default_rng(0).standard_normal((50, 3))
        scores, labels = classify_batch(m, xs)
        assert scores.shape == (50,) and labels.dtype == np.int64
        assert np.array_equal(labels, (scores >= 0.5).astype(np.int64))
        # the label flips exactly at 0.5: a one-layer identity net scores its input
        net = NeuralNet([Layer(np.ones((1, 1)), np.zeros(1), "identity")])
        s, lab = predict(net, [[0.5 - 1e-12], [0.5], [0.9]])
        assert s.tolist() == [0.5 - 1e-12, 0.5, 0.9] and lab.tolist() == [0, 1, 1]

    def test_classify_rejects_wrong_width(self):
        m = build_model(3, 2, 0.5, 0.5, seed=1, hidden=8)
        with pytest.raises(ValueError):
            classify_batch(m, [[0.1, 0.2]])


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=-1)
        with pytest.raises(ValueError):
            TrainConfig(iterations=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(iterations=1, g_y_loss_mode="nope")
        with pytest.raises(ValueError):
            TrainConfig(iterations=1, learning_rates={"d_q": 1e-3})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("optimizer", "rmsprop"),
            ("learning_rate", -1),
            ("pairing", "far"),
            ("similarity_sample_cap", 0),
            ("seed", -3),
            ("learning_rates", {"d_p": -1.0}),
        ],
    )
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            TrainConfig(iterations=1, **{field: value})

    def test_lists_every_problem(self):
        with pytest.raises(ValueError) as e:
            TrainConfig(iterations=-1, seed=-1)
        assert str(e.value) == "iterations: must be nonnegative; seed: must be nonnegative"

    def test_per_net_learning_rates(self):
        cfg = TrainConfig(iterations=1, learning_rate=1e-3, learning_rates={"d_p": 1e-2})
        assert cfg.lr_for("d_p") == 1e-2
        assert cfg.lr_for("g_p") == 1e-3


@pytest.fixture(scope="module")
def toy_data():
    return gaussian_mixture(
        n_per_class=200, dim=2, means=((-2.0, 0.0), (2.0, 0.0)), cov_scale=0.5, seed=0
    )


class TestTrain:
    def test_zero_iterations_identity(self, toy_data):
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        trained, records = train(m, toy_data, TrainConfig(iterations=0))
        assert records == []
        for name in NET_NAMES:
            for la, lb in zip(getattr(m, name).layers, getattr(trained, name).layers):
                assert np.array_equal(la.weight, lb.weight)

    def test_input_model_not_mutated(self, toy_data):
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        before = m.d_p.layers[0].weight.copy()
        train(m, toy_data, TrainConfig(iterations=3, seed=1))
        assert np.array_equal(before, m.d_p.layers[0].weight)

    def test_one_record_per_iteration(self, toy_data):
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        _, records = train(m, toy_data, TrainConfig(iterations=7, seed=1))
        assert [r.iter for r in records] == list(range(1, 8))
        assert all(r.loss_pos is not None for r in records)

    def test_same_seed_same_telemetry(self, toy_data):
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        cfg = TrainConfig(iterations=5, seed=3)
        _, a = train(m, toy_data, cfg)
        _, b = train(m, toy_data, cfg)
        assert [(r.loss_pos, r.loss_neg, r.loss_label) for r in a] == [
            (r.loss_pos, r.loss_neg, r.loss_label) for r in b
        ]

    def test_different_seed_different_telemetry(self, toy_data):
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        _, a = train(m, toy_data, TrainConfig(iterations=5, seed=3))
        _, b = train(m, toy_data, TrainConfig(iterations=5, seed=4))
        assert a[-1].loss_pos != b[-1].loss_pos

    def test_eval_fields_filled_on_cadence(self, toy_data):
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        cfg = TrainConfig(iterations=6, seed=1, eval_every=3)
        _, records = train(m, toy_data, cfg, val_data=toy_data)
        for r in records:
            if r.iter % 3 == 0:
                assert r.f1 is not None and r.cos is not None
            else:
                assert r.f1 is None and r.cos is None

    def test_single_class_data_rejected(self, toy_data):
        from claimgan.data import LabeledDataset

        pos_only = LabeledDataset(
            features=toy_data.features[toy_data.labels == 1], labels=np.ones(200, dtype=np.int64)
        )
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        with pytest.raises(ValueError):
            train(m, pos_only, TrainConfig(iterations=1))

    def test_dim_mismatch_rejected(self, toy_data):
        m = build_model(3, 2, 0.5, 0.5, seed=0, hidden=8)
        with pytest.raises(ValueError):
            train(m, toy_data, TrainConfig(iterations=1))

    def test_a_row_without_gradient_takes_no_step(self):
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        opts = {name: make_optimizer(net) for name, net in m.nets().items()}
        flat, moments = m.g_y.flat.copy(), (opts["g_y"].m.copy(), opts["g_y"].v.copy())
        table = (PROPOSED_STEPS[0], ("g_y", lambda model, cfg, b: (None, 1.5), "loss_label"))
        rng = np.random.default_rng(0)
        x_p, x_n, x, z, z2 = (rng.standard_normal((4, 2)) for _ in range(5))
        losses = run_steps(table, m, opts, TrainConfig(iterations=1), x_p, x_n, x, z, z2)
        assert losses["loss_label"] == 1.5 and opts["d_p"].step == 1
        assert np.array_equal(m.g_y.flat, flat) and opts["g_y"].step == 0
        assert np.array_equal(opts["g_y"].m, moments[0])
        assert np.array_equal(opts["g_y"].v, moments[1])


class TestGradientRules:
    def test_alg1_g_y_gradient_is_exactly_zero(self):
        m = build_model(2, 2, 0.5, 0.5, seed=5, hidden=8)
        z = np.random.default_rng(0).standard_normal((4, 2))
        grads, loss = g_y_step_grads(m, z, "alg1-line14")
        assert math.isfinite(loss)
        assert grads is None  # known zero, so run_steps takes no g_y step

    def test_eq4_g_y_gradient_is_nonzero(self):
        m = build_model(2, 2, 0.5, 0.5, seed=5, hidden=8)
        z = np.random.default_rng(0).standard_normal((4, 2))
        grads, _ = g_y_step_grads(m, z, "eq4")
        assert any(np.any(gw != 0.0) for gw, _ in m.g_y.unflatten(grads))

    def test_generator_labels_g_y_gradient_matches_central_differences(self):
        for seed in range(20):
            model, _, _, _, z = _random_instance(seed)

            def scalar():
                u_p = forward(model.g_y, forward(model.g_p, z)[0])[0]
                u_n = forward(model.g_y, forward(model.g_n, z)[0])[0]
                return g_y_loss(None, None, model.pi_p, model.pi_n, "generator-labels", u_p, u_n)

            # the row training runs, as gradcheck runs the other g_y modes
            cfg = TrainConfig(iterations=0, g_y_loss_mode="generator-labels")
            analytic, _ = G_Y_ROW[1](model, cfg, SimpleNamespace(z2=z))
            numeric = numeric_gradients(model.g_y, scalar)
            assert max_relative_error(analytic, numeric) <= 1e-4, f"instance {seed}"

    def test_d_p_grads_scale_with_prior(self):
        rng = np.random.default_rng(1)
        x_p = rng.standard_normal((4, 2))
        z = rng.standard_normal((4, 2))
        m1 = build_model(2, 2, 0.8, 0.2, seed=5, hidden=8)
        m2 = TriGanModel(
            **{n: getattr(m1, n).copy() for n in NET_NAMES},
            pi_p=0.4, pi_n=0.6, noise_dim=2, sample_dim=2,
        )
        g1, v1 = d_p_step_grads(m1, x_p, z)
        g2, v2 = d_p_step_grads(m2, x_p, z)
        assert v1 == v2  # objective itself carries no prior factor
        assert g1.shape == g2.shape == m1.d_p.flat.shape
        assert np.allclose(g1 * 0.4, g2 * 0.8)  # weights and biases

    @pytest.mark.parametrize("pair", [("d_p", "g_p"), ("d_n", "g_n")])
    def test_bracket_value_is_the_value_bracket_grads_returns(self, pair):
        for seed in range(5):
            model, x_p, x_n, _, z = _random_instance(seed)
            disc, gen = (getattr(model, name) for name in pair)
            for real in (x_p, x_n):
                assert bracket_value(disc, gen, real, z) == bracket_grads(disc, gen, real, z)[1]
