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


def _scan_block_rows(n_real: int) -> int:
    return metrics.SCAN_BLOCK_BYTES // (8 * n_real)


def _report_block_rows(dim: int) -> int:
    return metrics.REPORT_BLOCK_BYTES // (8 * dim)


def _whole_sample_report(real, generated, n_cap, seed, pairing):
    """similarity_report computed on the whole sample at once, partners from
    scipy's tree: the reference the blocked report must match bit for bit."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    n = min(n_cap, len(generated))
    gen = generated[rng.choice(len(generated), size=n, replace=False)]
    if pairing == "nearest":
        partners = real[cKDTree(real).query(gen, k=1)[1]]
    else:
        partners = real[rng.integers(0, len(real), size=n)]
    norms = np.linalg.norm(gen, axis=1) * np.linalg.norm(partners, axis=1)
    cos = np.where(norms > 0, (gen * partners).sum(axis=1) / np.where(norms > 0, norms, 1.0), 1.0)
    diff = gen - partners
    man = np.abs(diff).sum(axis=1)
    euc = np.sqrt((diff * diff).sum(axis=1))
    return float(cos.mean()), float(man.mean()), float(euc.mean())


class TestBlockedSimilarityReport:
    # (dim, generated rows, n_cap); 2-D takes scipy's tree, 64-D the scan
    @pytest.mark.parametrize(
        "dim, n_gen, n_cap",
        [
            pytest.param(2, 2 * _report_block_rows(2) + 7, 20000, id="2-short-last-block"),
            pytest.param(64, 2 * _report_block_rows(64) + 7, 20000, id="64-short-last-block"),
            pytest.param(2, 500, 300, id="2-capped"),
            pytest.param(
                64, 3 * _report_block_rows(64), _report_block_rows(64) + 5, id="64-capped"
            ),
            pytest.param(2, 40, 1, id="2-one-row"),
            pytest.param(64, 1, 20000, id="64-one-row"),
        ],
    )
    @pytest.mark.parametrize("rows", ["plain", "zero-norm", "duplicated-real"])
    @pytest.mark.parametrize("pairing", ["nearest", "random"])
    def test_matches_the_whole_sample_formula(self, dim, n_gen, n_cap, rows, pairing):
        rng = np.random.default_rng(dim + n_gen)
        real = rng.standard_normal((150, dim))
        gen = rng.standard_normal((n_gen, dim))
        if rows == "zero-norm":  # pairs with a zero-norm side take the cos = 1 branch
            real[::7] = 0.0
            gen[::3] = 0.0
        elif rows == "duplicated-real":  # nearest ties go to the lowest index
            real = np.concatenate([real, real])
        got = similarity_report(real, gen, n_cap=n_cap, seed=5, pairing=pairing)
        want = _whole_sample_report(real, gen, n_cap, 5, pairing)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("pairing", ["nearest", "random"])
    @pytest.mark.parametrize(
        "real_cols, gen_cols, n_cap, match",
        [
            (3, 3, 0, "n_cap"),
            (3, 3, -2, "n_cap"),
            (3, 4, 20000, "columns"),
            (64, 2, 20000, "columns"),
        ],
    )
    def test_bad_input_fails_before_any_work(
        self, real_cols, gen_cols, n_cap, match, pairing, monkeypatch
    ):
        def no_tree(_):
            raise AssertionError("the nearest-neighbour tree was built")

        monkeypatch.setattr(metrics, "cKDTree", no_tree)
        rng = np.random.default_rng(6)
        real, gen = rng.standard_normal((20, real_cols)), rng.standard_normal((10, gen_cols))
        with pytest.raises(ValueError, match=match):
            similarity_report(real, gen, n_cap=n_cap, pairing=pairing)


class TestSimilarityReport:
    # (dim, real rows, generated rows); dims 2 and 6 take scipy's tree, the
    # rest the exact scan (metrics.KD_TREE_MAX_DIM is 10)
    @pytest.mark.parametrize(
        "dim, n_real, n_gen",
        [
            pytest.param(2, 300, 120, id="2-300x120"),
            pytest.param(6, 300, 120, id="6-300x120"),
            pytest.param(11, 300, 120, id="11-300x120"),
            pytest.param(64, 300, 120, id="64-300x120"),
            pytest.param(768, 300, 120, id="768-300x120"),
            # three blocks of scan rows, the last one short
            pytest.param(64, 2000, 2 * _scan_block_rows(2000) + 7, id="64-partial-block"),
            pytest.param(2, 1, 50, id="2-single-real-row"),
            pytest.param(64, 1, 50, id="64-single-real-row"),
        ],
    )
    def test_query_matches_scipy(self, dim, n_real, n_gen):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(8)
        real = rng.standard_normal((n_real, dim))
        gen = rng.standard_normal((n_gen, dim))
        dist, idx = metrics.cKDTree(real).query(gen, k=1)
        ref_dist, ref_idx = cKDTree(real).query(gen, k=1)
        assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)

    @pytest.mark.parametrize("dim", [2, 64])
    def test_duplicated_real_rows(self, dim):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(9)
        base = rng.standard_normal((100, dim))
        real = np.concatenate([base, base, base])
        gen = rng.standard_normal((150, dim))
        dist, idx = metrics.cKDTree(real).query(gen, k=1)
        ref_dist, ref_idx = cKDTree(real).query(gen, k=1)
        # the index of a tie may differ; the partner and distance may not
        assert np.array_equal(real[idx], real[ref_idx]) and np.array_equal(dist, ref_dist)
        if dim > metrics.KD_TREE_MAX_DIM:
            assert (idx < len(base)).all()  # the scan breaks ties by lowest index

    @pytest.mark.parametrize("dim", [11, 64, 768])
    def test_near_ties_keep_scipy_distance(self, dim):
        # each query sits within 1e-15 of the midpoint of two real rows, so
        # the gemm's rounding alone misranks them: the exact re-rank must
        # keep every candidate the error bound cannot rule out
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(12)
        real = rng.standard_normal((200, dim))
        gen = (real[:100] + real[100:]) / 2 + rng.standard_normal((100, dim)) * 1e-15
        dist, _ = metrics.cKDTree(real).query(gen, k=1)
        assert np.array_equal(dist, cKDTree(real).query(gen, k=1)[0])

    @pytest.mark.parametrize("dim", [2, 64])
    def test_only_nearest_neighbour_queries(self, dim):
        real = np.random.default_rng(10).standard_normal((20, dim))
        with pytest.raises(ValueError, match="k=1"):
            metrics.cKDTree(real).query(real, k=2)

    @pytest.mark.parametrize("dim", [2, 64])
    @pytest.mark.parametrize("where", ["real", "generated"])
    def test_non_finite_points_rejected(self, dim, where):
        real = np.random.default_rng(11).standard_normal((20, dim))
        gen = real.copy()
        (real if where == "real" else gen)[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            metrics.cKDTree(real).query(gen, k=1)

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
