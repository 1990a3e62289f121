import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from claimgan import trigan, variants
from claimgan.data import LabeledDataset, gaussian_mixture
from claimgan.gradcheck import _random_instance
from claimgan.metrics import similarity_report
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
    g_y_loss_alg1_line14,
    g_y_loss_eq4,
    g_y_loss_generator_labels,
    g_y_step_grads,
    gan_objective,
    generator_loss,
    predict,
    run_steps,
    train,
)
from claimgan.variants import baseline_train

from flat_layout import unflatten

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
    def test_generator_loss_near_zero_when_fooling(self):
        eps = 1e-7
        assert generator_loss([1 - eps], [1 - eps], 0.7) == pytest.approx(0.0, abs=1e-5)

    def test_generator_loss_midpoint(self):
        assert generator_loss([0.5], [0.5], 1.0) == pytest.approx(-2 * LN_HALF, abs=1e-12)

    def test_generator_loss_frozen_value(self):
        # 0.7289 * (-ln 0.8 - ln 0.6)
        assert generator_loss([0.8], [0.6], 0.7289) == pytest.approx(
            0.5349901317, abs=1e-9
        )

    def test_g_y_loss_alg1_midpoint(self):
        v = g_y_loss_alg1_line14([0.5], [0.5], 0.5, 0.5)
        assert v == pytest.approx(-LN_HALF, abs=1e-12)

    def test_g_y_loss_alg1_frozen_value(self):
        # -0.7289 ln 0.8 - 0.2711 ln 0.6
        v = g_y_loss_alg1_line14([0.8], [0.6], 0.7289, 0.2711)
        assert v == pytest.approx(0.3011341612, abs=1e-9)

    def test_g_y_loss_eq4_soft_target_arithmetic(self):
        # -pi_p*(t ln u + (1-t) ln(1-t)) - pi_n*(same), computed by hand
        t, u = 0.8, 0.6
        per_class = t * math.log(u) + (1 - t) * math.log(1 - t)
        v = g_y_loss_eq4([t], [t], [u], [u], 0.5, 0.5)
        assert v == pytest.approx(-per_class, abs=1e-12)

    def test_g_y_loss_generator_labels_arithmetic(self):
        # -0.7 ln 0.8 - 0.3 ln(1 - 0.4), computed by hand
        v = g_y_loss_generator_labels([0.8], [0.4], 0.7, 0.3)
        assert v == pytest.approx(0.30944817304974404, abs=1e-12)


# priors whose products and quotients are not exact in binary
PI_P, PI_N = 0.7289, 0.2711


def _soft_target(t, u):
    return (t * np.log(u) + (1.0 - t) * np.log1p(-t)).mean()


# name -> (number of probability vectors, the function on them, its plain
# formula with np.mean); every vector argument is a probability vector
LOSSES = {
    "gan_objective": (
        2,
        lambda p: gan_objective(*p),
        lambda p: np.log(p[0]).mean() + np.log1p(-p[1]).mean(),
    ),
    "d_y_objective": (
        3,
        lambda p: d_y_objective(*p, PI_P, PI_N),
        lambda p: np.log(p[0]).mean()
        + PI_P * np.log1p(-p[1]).mean()
        + PI_N * np.log1p(-p[2]).mean(),
    ),
    "generator_loss[pi_p]": (  # g_p's
        2,
        lambda p: generator_loss(*p, PI_P),
        lambda p: PI_P * (-np.log(p[0]) - np.log(p[1])).mean(),
    ),
    "generator_loss[pi_n]": (  # g_n's
        2,
        lambda p: generator_loss(*p, PI_N),
        lambda p: PI_N * (-np.log(p[0]) - np.log(p[1])).mean(),
    ),
    "g_y_loss[alg1-line14]": (
        2,
        lambda p: g_y_loss_alg1_line14(*p, PI_P, PI_N),
        lambda p: -PI_P * np.log(p[0]).mean() - PI_N * np.log(p[1]).mean(),
    ),
    "g_y_loss[eq4]": (
        4,
        lambda p: g_y_loss_eq4(*p, PI_P, PI_N),
        lambda p: -(PI_P * _soft_target(p[0], p[2]) + PI_N * _soft_target(p[1], p[3])),
    ),
    "g_y_loss[generator-labels]": (
        2,
        lambda p: g_y_loss_generator_labels(*p, PI_P, PI_N),
        lambda p: -PI_P * np.log(p[0]).mean() - PI_N * np.log1p(-p[1]).mean(),
    ),
}


class TestLossArithmetic:
    @pytest.mark.parametrize("name", sorted(LOSSES))
    @pytest.mark.parametrize("length", [1, 3, 37, 100])
    def test_same_bits_as_the_np_mean_formula(self, name, length):
        count, loss, formula = LOSSES[name]
        rng = np.random.default_rng(length)
        for shape in ((length,), (length, 1)):  # nets give (m, 1) columns
            for _ in range(5):
                p = [rng.uniform(1e-6, 1 - 1e-6, shape) for _ in range(count)]
                given = [a.tobytes() for a in p]
                value = loss(p)
                assert type(value) is float
                assert np.float64(value).tobytes() == np.float64(formula(p)).tobytes()
                assert [a.tobytes() for a in p] == given

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_a_nan_probability_is_rejected(self, name):
        # every NaN comparison is False, so a test for bad entries that
        # looks for one would let it through
        count, loss, _ = LOSSES[name]
        for i in range(count):
            p = [np.array([0.5])] * count
            p[i] = np.array([0.5, np.nan])
            with pytest.raises(ValueError, match="strictly inside"):
                loss(p)


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

    def test_nets_models_and_optimizer_states_compare_by_identity(self):
        # a generated __eq__ over their arrays would raise on the truth value
        m = build_model(3, 2, 0.5, 0.5, seed=0, hidden=8)
        assert not m.g_p == m.g_p.copy()
        assert not m == m.copy()
        assert not make_optimizer(m.g_p) == make_optimizer(m.g_p)
        assert m.g_p in [m.g_n, m.g_p]
        assert m == m and m.g_p != m.g_n

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


def _fit_model(data, cfg, val_data=None):
    m = build_model(data.dim, 2, 0.5, 0.5, seed=0, hidden=8)
    trained, records = train(m, data, cfg, val_data)
    return [net.flat for net in m.nets().values()], trained.nets().values(), records


def _fit_baseline(data, cfg, val_data=None):
    net, records = baseline_train(data, cfg, val_data, hidden=8)
    seed = int(np.random.SeedSequence(cfg.seed).generate_state(1)[0])
    return [trigan.judge_net(data.dim, 8, seed).flat], [net], records


# each trainer -> (fit returning (initial flats, trained nets, records), the
# columns its eval fills beside P/R/F1); both run trigan.run_loop
TRAINERS = {
    "train": (_fit_model, ("cos", "man", "euc")),
    "baseline_train": (_fit_baseline, ()),
}


@pytest.fixture(params=sorted(TRAINERS))
def trainer(request):
    return TRAINERS[request.param]


@pytest.fixture
def optimizer_steps(monkeypatch):
    """The nets that either trainer steps, in order."""
    stepped = []

    def counting_step(net, *args):
        stepped.append(net)
        return real(net, *args)

    real = trigan.optimizer_step
    for module in (trigan, variants):
        monkeypatch.setattr(module, "optimizer_step", counting_step)
    return stepped


class TestTrain:
    def test_zero_iterations_identity(self, trainer, toy_data, optimizer_steps):
        initial, trained, records = trainer[0](toy_data, TrainConfig(iterations=0))
        assert records == [] and optimizer_steps == []
        for before, net in zip(initial, trained, strict=True):
            assert np.array_equal(before, net.flat)

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

    def test_eval_fields_filled_on_cadence(self, trainer, toy_data):
        fit, eval_columns = trainer
        cfg = TrainConfig(iterations=6, seed=1, eval_every=3)
        *_, records = fit(toy_data, cfg, val_data=toy_data)
        for r in records:
            filled = [getattr(r, c) is not None for c in ("precision", "recall", "f1", *eval_columns)]
            assert filled == [r.iter % 3 == 0] * len(filled)

    def test_single_class_data_rejected(self, trainer, toy_data, optimizer_steps):
        pos_only = LabeledDataset(
            features=toy_data.features[toy_data.labels == 1], labels=np.ones(200, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="single class"):
            trainer[0](pos_only, TrainConfig(iterations=1))
        assert optimizer_steps == []

    def test_dim_mismatch_rejected(self, toy_data):
        m = build_model(3, 2, 0.5, 0.5, seed=0, hidden=8)
        with pytest.raises(ValueError):
            train(m, toy_data, TrainConfig(iterations=1))

    def test_val_data_dim_mismatch_rejected_before_the_first_step(
        self, trainer, toy_data, optimizer_steps
    ):
        val_3d = LabeledDataset(np.zeros((40, 3)), np.arange(40) % 2)
        cfg = TrainConfig(iterations=4, seed=1, eval_every=2)
        with pytest.raises(ValueError, match="val_data dim 3"):
            trainer[0](toy_data, cfg, val_3d)
        assert optimizer_steps == []

    def test_empty_val_data_leaves_prf_empty(self, trainer, toy_data):
        fit, eval_columns = trainer
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        *_, records = fit(toy_data, TrainConfig(iterations=2, seed=1, eval_every=2), empty)
        assert records[1].f1 is None and records[1].loss_label is not None
        assert all(getattr(records[1], c) is not None for c in eval_columns)

    @pytest.mark.parametrize(
        "fit, settings, failed",
        [(_fit_model, {"optimizer": "sgd", "learning_rate": 1e5}, 3),
         (_fit_baseline, {"learning_rate": 1e300}, 2)],
        ids=["train", "baseline_train"],
    )
    def test_a_failed_iteration_keeps_the_records_before_it(self, fit, settings, failed):
        data = gaussian_mixture(50, 2, ((-2.0, 0.0), (2.0, 0.0)), 0.5, seed=0)
        cfg = TrainConfig(iterations=20, seed=0, **settings)
        with pytest.raises(trigan.TrainingError) as caught:
            fit(data, cfg)
        assert str(caught.value) == f"iteration {failed}: non-finite gradients; step rejected"
        *_, completed = fit(data, replace(cfg, iterations=failed - 1))
        assert caught.value.records == completed

    def test_non_finite_eval_scores_stop_training(self, toy_data):
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        # overflowing but finite; g_y does not train under alg1-line14
        m.g_y.flat[:] = np.random.default_rng(0).standard_normal(m.g_y.flat.size) * 1e305
        cfg = TrainConfig(iterations=4, eval_every=2)
        with pytest.raises(trigan.TrainingError) as caught:
            train(m, toy_data, cfg, val_data=toy_data)
        assert str(caught.value) == "iteration 2: non-finite class scores"
        assert len(caught.value.records) == 1

    @pytest.mark.parametrize("pairing", ["nearest", "random"])
    def test_non_finite_generated_samples_stop_training(self, toy_data, pairing, monkeypatch):
        # a g_p whose eval sample has a nan row; random pairing used to
        # write nan similarity scores into the telemetry
        real_forward = trigan.forward

        def forward(net, batch, *, keep_cache=True):
            out, cache = real_forward(net, batch, keep_cache=keep_cache)
            if not keep_cache and out.shape[1] == toy_data.dim:  # the eval's g_p sample
                out[3] = np.nan
            return out, cache

        monkeypatch.setattr(trigan, "forward", forward)
        m = build_model(2, 2, 0.5, 0.5, seed=0, hidden=8)
        cfg = TrainConfig(iterations=4, eval_every=2, pairing=pairing)
        with pytest.raises(trigan.TrainingError) as caught:
            train(m, toy_data, cfg, val_data=toy_data)
        assert str(caught.value) == "iteration 2: generated samples must be finite"
        assert len(caught.value.records) == 1

    def test_eval_noise_is_freed_before_pairing(self, toy_data, monkeypatch):
        noise, alive_at_report = [], []

        class RecordingRng:
            """An eval RNG that keeps a weak reference to each noise draw."""

            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, shape):
                out = self.rng.standard_normal(shape)
                noise.append(weakref.ref(out))
                return out

            def integers(self, *args):
                return self.rng.integers(*args)

        def report(*args, **kwargs):
            alive_at_report.append([ref() is not None for ref in noise])
            return similarity_report(*args, **kwargs)

        eval_seed = trigan._eval_seed
        monkeypatch.setattr(trigan, "_eval_seed", lambda *a: RecordingRng(eval_seed(*a)))
        monkeypatch.setattr(trigan, "similarity_report", report)
        m = build_model(2, 3, 0.5, 0.5, seed=0, hidden=8)
        train(m, toy_data, TrainConfig(iterations=4, seed=1, eval_every=2))
        assert alive_at_report == [[False], [False, False]]

    # toy_data has 200 positives
    @pytest.mark.parametrize("cap, n_gen", [(50, 50), (1000, 200)], ids=["below", "above"])
    def test_similarity_sample_is_the_cap_or_every_positive(self, toy_data, cap, n_gen,
                                                            monkeypatch):
        generated = []

        def report(real, gen, **kwargs):
            generated.append(len(gen))
            return similarity_report(real, gen, **kwargs)

        monkeypatch.setattr(trigan, "similarity_report", report)
        m = build_model(2, 3, 0.5, 0.5, seed=0, hidden=8)
        train(m, toy_data, TrainConfig(iterations=4, seed=1, eval_every=2,
                                       similarity_sample_cap=cap))
        assert generated == [n_gen, n_gen]

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

    @pytest.mark.parametrize("mode", ["eq4", "generator-labels"])
    def test_trained_g_y_modes_compute_no_loss(self, mode, monkeypatch):
        def no_loss(*args, **kwargs):
            raise AssertionError("a g_y loss computed for no column")

        for name in ("g_y_loss_alg1_line14", "g_y_loss_eq4", "g_y_loss_generator_labels"):
            monkeypatch.setattr(trigan, name, no_loss)
        m = build_model(2, 2, 0.5, 0.5, seed=5, hidden=8)
        z = np.random.default_rng(0).standard_normal((4, 2))
        grads, loss = g_y_step_grads(m, z, mode)
        assert grads is not None and loss is None

    def test_unknown_g_y_mode_rejected(self):
        m = build_model(2, 2, 0.5, 0.5, seed=5, hidden=8)
        z = np.random.default_rng(0).standard_normal((4, 2))
        with pytest.raises(ValueError, match="^unknown g_y loss mode 'eq5'$"):
            g_y_step_grads(m, z, "eq5")

    def test_eq4_g_y_gradient_is_nonzero(self):
        m = build_model(2, 2, 0.5, 0.5, seed=5, hidden=8)
        z = np.random.default_rng(0).standard_normal((4, 2))
        grads, _ = g_y_step_grads(m, z, "eq4")
        assert any(np.any(gw != 0.0) for gw, _ in unflatten(m.g_y, grads))

    def test_generator_labels_g_y_gradient_matches_central_differences(self):
        for seed in range(20):
            model, _, _, _, z = _random_instance(seed)

            def scalar():
                u_p = forward(model.g_y, forward(model.g_p, z)[0])[0]
                u_n = forward(model.g_y, forward(model.g_n, z)[0])[0]
                return g_y_loss_generator_labels(u_p, u_n, model.pi_p, model.pi_n)

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
