import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimgan import metrics
from claimgan.metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    aggregate,
    emit,
    load_records,
    precision_recall_f1,
    similarity_report,
)


class TestPrecisionRecallF1:
    def test_perfect_predictions(self):
        p, r, f1, deg = precision_recall_f1([1, 0, 1, 0], [1, 0, 1, 0])
        assert (p, r, f1) == (1.0, 1.0, 1.0) and not deg

    def test_confusion_arithmetic(self):
        # tp=1, fp=1, fn=1 -> P = R = F1 = 0.5
        p, r, f1, deg = precision_recall_f1([1, 1, 0, 0], [1, 0, 1, 0])
        assert (p, r, f1) == (0.5, 0.5, 0.5) and not deg

    def test_frozen_value_half_precision_093_recall(self):
        # tp=93, fp=93, fn=7 gives P=0.5, R=0.93, F1=2PR/(P+R)
        preds = [1] * 186 + [0] * 7
        truth = [1] * 93 + [0] * 93 + [1] * 7
        p, r, f1, deg = precision_recall_f1(preds, truth)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert r == pytest.approx(0.93, abs=1e-12)
        assert f1 == pytest.approx(0.6503496503496503, abs=1e-12)
        assert not deg

    def test_degenerate_cases_flagged(self):
        p, r, f1, deg = precision_recall_f1([0, 0], [0, 0])
        assert (p, r, f1) == (0.0, 0.0, 0.0) and deg
        _, _, _, deg2 = precision_recall_f1([0, 0], [1, 1])
        assert deg2

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            precision_recall_f1([1], [1, 0])
        with pytest.raises(ValueError):
            precision_recall_f1([], [])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_harmonic_mean(self, pairs):
        preds = [a for a, _ in pairs]
        truth = [b for _, b in pairs]
        p, r, f1, _ = precision_recall_f1(preds, truth)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


class TestAggregate:
    def test_mean_and_sample_std(self):
        res = aggregate([{"f1": 0.5}, {"f1": 0.6}])
        assert res.n_runs == 2 and not res.single_run
        assert res.mean["f1"] == pytest.approx(0.55, abs=1e-12)
        # sample std of {0.5, 0.6} = |0.05|*sqrt(2)
        assert res.std["f1"] == pytest.approx(0.07071067811865477, abs=1e-12)

    def test_single_run_flagged_zero_std(self):
        res = aggregate([{"f1": 0.9, "precision": 1.0}])
        assert res.single_run and res.std == {"f1": 0.0, "precision": 0.0}

    def test_inconsistent_keys_rejected(self):
        with pytest.raises(ValueError):
            aggregate([{"f1": 0.5}, {"precision": 0.5}])
        with pytest.raises(ValueError):
            aggregate([])


class TestSimilarityReport:
    def test_lazy_kd_tree_matches_scipy(self):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(8)
        real = rng.standard_normal((300, 6))
        gen = rng.standard_normal((120, 6))
        dist, idx = metrics.cKDTree(real).query(gen, k=1)
        ref_dist, ref_idx = cKDTree(real).query(gen, k=1)
        assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)

    def test_identical_sets_nearest(self):
        x = np.random.default_rng(0).standard_normal((50, 4))
        cos, man, euc = similarity_report(x, x, pairing="nearest")
        assert cos == pytest.approx(1.0, abs=1e-12)
        assert man == pytest.approx(0.0, abs=1e-12)
        assert euc == pytest.approx(0.0, abs=1e-12)

    def test_manhattan_dominates_euclidean(self):
        rng = np.random.default_rng(1)
        real = rng.standard_normal((40, 5))
        gen = rng.standard_normal((30, 5))
        for pairing in ("nearest", "random"):
            _, man, euc = similarity_report(real, gen, seed=2, pairing=pairing)
            assert man >= euc

    def test_known_two_point_case(self):
        real = np.array([[1.0, 0.0]])
        gen = np.array([[0.0, 1.0]])
        cos, man, euc = similarity_report(real, gen)
        assert cos == pytest.approx(0.0, abs=1e-12)
        assert man == pytest.approx(2.0, abs=1e-12)
        assert euc == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_cap_limits_sample(self):
        rng = np.random.default_rng(3)
        real = rng.standard_normal((100, 3))
        gen = rng.standard_normal((100, 3))
        a = similarity_report(real, gen, n_cap=10, seed=0)
        b = similarity_report(real, gen, n_cap=10, seed=0)
        assert a == b

    def test_seeded_random_pairing_reproducible(self):
        rng = np.random.default_rng(4)
        real = rng.standard_normal((60, 3))
        gen = rng.standard_normal((60, 3))
        a = similarity_report(real, gen, seed=7, pairing="random")
        b = similarity_report(real, gen, seed=7, pairing="random")
        assert a == b

    def test_rejects_empty_and_unknown_pairing(self):
        x = np.ones((2, 2))
        with pytest.raises(ValueError):
            similarity_report(np.zeros((0, 2)), x)
        with pytest.raises(ValueError):
            similarity_report(x, x, pairing="farthest")


class TestEmitLoad:
    def records(self):
        return [
            MetricsRecord(run=0, iter=1, loss_pos=-1.25, loss_neg=-0.5, loss_label=-2.0),
            MetricsRecord(
                run=0, iter=2, precision=0.5, recall=0.93, f1=0.65,
                loss_pos=-1.0, loss_neg=-1.0, loss_label=-1.0,
                cos=0.9, man=1.1, euc=0.7,
            ),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        emit(self.records(), path)
        assert load_records(path) == self.records()

    def test_csv_header_and_empty_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        emit(self.records(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1].split(",")[2] == ""  # precision absent on iter 1

    def test_emit_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(self.records(), p1)
        emit(self.records(), p2)
        assert p1.read_bytes() == p2.read_bytes()
