import numpy as np
import pytest

from claimgan.config import VARIANTS
from claimgan.data import gaussian_mixture
from claimgan.metrics import CSV_COLUMNS
from claimgan.nets import forward, make_optimizer
from claimgan.trigan import TrainConfig, bracket_value, build_model, gan_objective, train
from claimgan.variants import (
    STEP_FUNCTIONS,
    STEP_TABLES,
    SYMMETRIC_MODES,
    baseline_train,
    inverted_d_n_grads,
    inverted_g_n_grads,
    inverted_g_p_grads,
    symmetric_d_n_grads,
    symmetric_g_n_grads,
    symmetric_values,
)


def train_variant(model, data, cfg, kind):
    return train(model, data, cfg, step_fn=STEP_FUNCTIONS[kind])


@pytest.fixture(scope="module")
def toy_data():
    return gaussian_mixture(
        n_per_class=200, dim=2, means=((-2.0, 0.0), (2.0, 0.0)), cov_scale=0.5, seed=0
    )


def small_model(seed=0):
    return build_model(sample_dim=2, noise_dim=2, pi_p=0.5, pi_n=0.5, seed=seed, hidden=8)


class TestInvertedValues:
    def test_exchanged_equations_relations(self):
        m = small_model(1)
        rng = np.random.default_rng(0)
        x_p = rng.standard_normal((6, 2))
        z = rng.standard_normal((6, 2))
        # the first equation is the negative pair's bracket on positive data;
        # the second, its exact negation, is what grad-check's inverted:g_p
        # scalar takes
        assert inverted_d_n_grads(m, x_p, z)[1] == bracket_value(m.d_n, m.g_n, x_p, z)
        # the third uses the positive pair, so it matches gan_objective on it
        fake_p, _ = forward(m.g_p, z)
        dp_pos, _ = forward(m.d_p, x_p)
        dp_fake, _ = forward(m.d_p, fake_p)
        assert inverted_g_n_grads(m, x_p, z)[1] == gan_objective(dp_pos, dp_fake)

    def test_generator_updates_return_no_gradient(self):
        m = small_model(2)
        rng = np.random.default_rng(1)
        x_p = rng.standard_normal((4, 2))
        z = rng.standard_normal((4, 2))
        # no column takes the second equation's value, so it is not computed
        assert inverted_g_p_grads(m) == (None, None)
        assert inverted_g_n_grads(m, x_p, z)[0] is None

    def test_d_n_grads_nonzero(self):
        m = small_model(3)
        rng = np.random.default_rng(2)
        grads, value = inverted_d_n_grads(m, rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
        assert np.isfinite(value)
        assert any(np.any(gw != 0) for gw, _ in m.d_n.unflatten(grads))


class TestSymmetricValues:
    def test_as_printed_bitwise_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d_pos = rng.uniform(0.01, 0.99, 8)
            d_fake = rng.uniform(0.01, 0.99, 8)
            v1, v2 = symmetric_values(d_pos, d_fake, "as-printed")
            assert v1 == v2  # identical to the last bit

    def test_intended_mode_requires_negative_pair(self):
        with pytest.raises(ValueError):
            symmetric_values([0.5], [0.5], "intended")

    def test_intended_mode_mirrors(self):
        v1, v2 = symmetric_values([0.8], [0.3], "intended", [0.7], [0.4])
        assert v1 == gan_objective([0.8], [0.3])
        assert v2 == gan_objective([0.7], [0.4])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            symmetric_values([0.5], [0.5], "sideways")
        assert set(SYMMETRIC_MODES) == {"as-printed", "intended"}


class TestSymmetricGrads:
    def test_as_printed_second_pair_gets_nothing(self):
        m = small_model(5)
        rng = np.random.default_rng(4)
        x_p = rng.standard_normal((4, 2))
        x_n = rng.standard_normal((4, 2))
        z = rng.standard_normal((4, 2))
        gd, value = symmetric_d_n_grads(m, x_p, x_n, z, "as-printed")
        assert gd is None
        assert symmetric_g_n_grads(m, z, "as-printed") == (None, None)
        # the second value function, as printed, is the positive pair's
        dp_pos, _ = forward(m.d_p, x_p)
        dp_fake, _ = forward(m.d_p, forward(m.g_p, z)[0])
        assert value == symmetric_values(dp_pos, dp_fake, "as-printed")[1]

    def test_intended_second_pair_trains(self):
        m = small_model(5)
        rng = np.random.default_rng(4)
        x_p = rng.standard_normal((4, 2))
        x_n = rng.standard_normal((4, 2))
        z = rng.standard_normal((4, 2))
        gd, _ = symmetric_d_n_grads(m, x_p, x_n, z, "intended")
        gg, _ = symmetric_g_n_grads(m, z, "intended")
        assert any(np.any(gw != 0) for gw, _ in m.d_n.unflatten(gd))
        assert any(np.any(gw != 0) for gw, _ in m.g_n.unflatten(gg))


class TestTrainVariant:
    @pytest.mark.parametrize("kind", ["inverted", "symmetric", "symmetric-intended"])
    def test_variant_training_runs_and_is_deterministic(self, toy_data, kind):
        m = small_model(6)
        cfg = TrainConfig(iterations=5, seed=2)
        _, a = train_variant(m, toy_data, cfg, kind)
        _, b = train_variant(m, toy_data, cfg, kind)
        assert len(a) == 5
        assert [(r.loss_pos, r.loss_neg, r.loss_label) for r in a] == [
            (r.loss_pos, r.loss_neg, r.loss_label) for r in b
        ]

    def test_frozen_pairs_never_move(self, toy_data):
        m = small_model(7)
        trained, _ = train_variant(
            m, toy_data, TrainConfig(iterations=10, seed=3), "symmetric"
        )
        for name in ("d_n", "g_n", "g_y"):  # g_y frozen under alg1-line14 too
            for la, lb in zip(getattr(m, name).layers, getattr(trained, name).layers):
                assert np.array_equal(la.weight, lb.weight)
        # positive pair did move
        assert not np.array_equal(m.d_p.layers[0].weight, trained.d_p.layers[0].weight)

    def test_inverted_frozen_generators(self, toy_data):
        m = small_model(8)
        trained, _ = train_variant(
            m, toy_data, TrainConfig(iterations=10, seed=3), "inverted"
        )
        for name in ("g_p", "g_n"):
            for la, lb in zip(getattr(m, name).layers, getattr(trained, name).layers):
                assert np.array_equal(la.weight, lb.weight)
        assert not np.array_equal(m.d_n.layers[0].weight, trained.d_n.layers[0].weight)

    @pytest.mark.parametrize("kind", sorted(STEP_TABLES))
    def test_step_rows_name_telemetry_columns(self, kind):
        for _, _, column in STEP_TABLES[kind]:
            assert column is None or column in CSV_COLUMNS

    @pytest.mark.parametrize("kind", sorted(STEP_FUNCTIONS))
    def test_step_fills_the_three_loss_columns(self, kind):
        m = small_model(9)
        opts = {name: make_optimizer(net) for name, net in m.nets().items()}
        rng = np.random.default_rng(5)
        x_p, x_n, x, z, z2 = (rng.standard_normal((4, 2)) for _ in range(5))
        losses = STEP_FUNCTIONS[kind](m, opts, TrainConfig(iterations=1), x_p, x_n, x, z, z2)
        assert set(losses) == {"loss_pos", "loss_neg", "loss_label"}

    def test_baseline_has_no_step_fn(self):
        assert "baseline" not in STEP_FUNCTIONS
        assert VARIANTS == ("proposed", "inverted", "symmetric", "symmetric-intended", "baseline")


class TestBaseline:
    def test_learns_separable_toy_problem(self, toy_data):
        cfg = TrainConfig(iterations=300, seed=0, eval_every=300)
        net, records = baseline_train(toy_data, cfg, val_data=toy_data, hidden=16)
        last = records[-1]
        assert last.f1 is not None and last.f1 > 0.95
        assert last.loss_label < 0.2

    def test_loss_recorded_every_iteration(self, toy_data):
        _, records = baseline_train(toy_data, TrainConfig(iterations=5, seed=1), hidden=8)
        assert len(records) == 5
        assert all(r.loss_label is not None for r in records)
        assert all(r.loss_pos is None for r in records)

    def test_deterministic(self, toy_data):
        cfg = TrainConfig(iterations=5, seed=4)
        _, a = baseline_train(toy_data, cfg, hidden=8)
        _, b = baseline_train(toy_data, cfg, hidden=8)
        assert [r.loss_label for r in a] == [r.loss_label for r in b]

    def test_rejects_single_class(self):
        from claimgan.data import LabeledDataset

        ds = LabeledDataset(np.zeros((5, 8)), np.ones(5, dtype=np.int64))
        with pytest.raises(ValueError):
            baseline_train(ds, TrainConfig(iterations=1))
