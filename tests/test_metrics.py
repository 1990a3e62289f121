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
    precision_recall_f1,
    similarity_report,
)

from telemetry_csv import load_records


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
        mean, std = aggregate([{"f1": 0.5}, {"f1": 0.6}])
        assert mean["f1"] == pytest.approx(0.55, abs=1e-12)
        # sample std of {0.5, 0.6} = |0.05|*sqrt(2)
        assert std["f1"] == pytest.approx(0.07071067811865477, abs=1e-12)

    def test_single_run_flagged_zero_std(self):
        mean, std = aggregate([{"f1": 0.9, "precision": 1.0}])
        assert mean == {"f1": 0.9, "precision": 1.0}
        assert std == {"f1": 0.0, "precision": 0.0}


def _scan_block_rows(n_real: int) -> int:
    return metrics.SCAN_BLOCK_BYTES // (4 * n_real)


def _report_block_rows(dim: int) -> int:
    return metrics.REPORT_BLOCK_BYTES // (8 * dim)


def _whole_sample_report(real, generated, seed, pairing):
    """similarity_report computed on the whole sample at once, partners from
    scipy's tree: the reference the blocked report must match bit for bit."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    n = len(generated)
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
    # (dim, generated rows); 2-D takes scipy's tree, 64-D the scan
    @pytest.mark.parametrize(
        "dim, n_gen",
        [
            pytest.param(2, 2 * _report_block_rows(2) + 7, id="2-short-last-block"),
            pytest.param(64, 2 * _report_block_rows(64) + 7, id="64-short-last-block"),
            pytest.param(64, 1, id="64-one-row"),
        ],
    )
    @pytest.mark.parametrize("rows", ["plain", "zero-norm", "duplicated-real"])
    @pytest.mark.parametrize("pairing", ["nearest", "random"])
    def test_matches_the_whole_sample_formula(self, dim, n_gen, rows, pairing):
        rng = np.random.default_rng(dim + n_gen)
        real = rng.standard_normal((150, dim))
        gen = rng.standard_normal((n_gen, dim))
        if rows == "zero-norm":  # pairs with a zero-norm side take the cos = 1 branch
            real[::7] = 0.0
            gen[::3] = 0.0
        elif rows == "duplicated-real":  # nearest ties go to the lowest index
            real = np.concatenate([real, real])
        got = similarity_report(real, gen, seed=5, pairing=pairing)
        want = _whole_sample_report(real, gen, 5, pairing)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("pairing", ["nearest", "random"])
    @pytest.mark.parametrize(
        "real_cols, gen_cols",
        [(3, 4), (64, 2)],
    )
    def test_bad_input_fails_before_any_work(self, real_cols, gen_cols, pairing, monkeypatch):
        def no_tree(_):
            raise AssertionError("the nearest-neighbour tree was built")

        monkeypatch.setattr(metrics, "cKDTree", no_tree)
        rng = np.random.default_rng(6)
        real, gen = rng.standard_normal((20, real_cols)), rng.standard_normal((10, gen_cols))
        with pytest.raises(ValueError, match="columns"):
            similarity_report(real, gen, pairing=pairing)

    @pytest.mark.parametrize("pairing", ["nearest", "random"])
    @pytest.mark.parametrize("dim", [2, 64])
    def test_rows_pair_against_the_real_rows_they_name(self, dim, pairing):
        # a shuffled subset of the rows: train hands over its features and
        # the positives' row numbers, not a copy of the positives
        rng = np.random.default_rng(15)
        features = rng.standard_normal((400, dim))
        rows = rng.permutation(400)[:150]
        gen = rng.standard_normal((2 * _report_block_rows(dim) + 7, dim))
        got = similarity_report(features, gen, seed=5, pairing=pairing, rows=rows)
        want = _whole_sample_report(features[rows], gen, 5, pairing)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("pairing", ["nearest", "random"])
    @pytest.mark.parametrize("dim", [2, 64])
    @pytest.mark.parametrize("bad", ["nan-row", "inf-sample", "minus-inf-entry"])
    def test_non_finite_generated_samples_fail_before_any_pairing(
        self, dim, bad, pairing, monkeypatch
    ):
        # random pairing used to return nan or inf means; 2-D nearest pairing
        # raised scipy's own error
        def no_tree(*_):
            raise AssertionError("the nearest-neighbour tree was built")

        monkeypatch.setattr(metrics, "cKDTree", no_tree)
        rng = np.random.default_rng(14)
        real, gen = rng.standard_normal((30, dim)), rng.standard_normal((20, dim))
        if bad == "nan-row":
            gen[4] = np.nan
        elif bad == "inf-sample":
            gen[:] = np.inf
        else:
            gen[7, -1] = -np.inf
        with pytest.raises(ValueError, match="^generated samples must be finite$"):
            similarity_report(real, gen, pairing=pairing)


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

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    @pytest.mark.parametrize("where", ["real", "generated"])
    def test_norms_at_or_over_the_scan_guard_rejected(self, scale, where):
        # finite rows past float32's range and past the scan's unit range
        # are refused at query time, with no overflow warning on the way
        real = np.random.default_rng(16).standard_normal((20, 64))
        gen = real.copy()
        (real if where == "real" else gen)[3] *= scale
        with pytest.raises(ValueError, match="norms below 1e150"):
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


def _lowest_nearest(data, queries):
    """scipy's nearest distance of each query row among the data rows, and
    the lowest index of a row at that distance: cKDTree's k=len(data) query
    gives every row's distance by scipy's own summation."""
    from scipy.spatial import cKDTree

    dist, idx = cKDTree(data).query(queries, k=len(data))
    return dist[:, 0], np.where(dist == dist[:, :1], idx, len(data)).min(axis=1)


def _scan_cases(dim):
    """(name, data, rows, queries): inputs built to defeat a float32 prefilter."""
    rng = np.random.default_rng(dim)
    real = rng.standard_normal((200, dim))
    # each query sits 1e-10 of their distance nearer one of two real rows than
    # the other: finer than float32 resolves, wider than float64 does
    towards = real[:100] - real[100:]
    side = np.where(np.arange(100) % 2, 1.0, -1.0)[:, None]
    near_ties = (real[:100] + real[100:]) / 2 + side * 1e-10 * towards
    yield "near-ties", real, None, near_ties
    # every coordinate somewhere in 1e-30..1e30, and queries near the rows
    span = rng.standard_normal((300, dim)) * 10.0 ** rng.uniform(-30, 30, (300, dim))
    queries = span[:150] * (1 + 1e-6 * rng.standard_normal((150, dim)))
    yield "magnitudes-1e-30-1e30", span, None, np.concatenate([queries, span[150:] * 1e-3])
    # rows and queries 1e4 from the origin but within a few units of each
    # other: |b|^2 and q.b dwarf the distances, so the margin keeps every
    # row and the exact re-rank alone decides, in many candidate chunks
    centre = 1e4 * rng.standard_normal(dim) / np.sqrt(dim)
    yield "offset", centre + real, None, centre + rng.standard_normal((150, dim))
    # every reach |q| + max |b| just under the scan's 1e150 guard
    big = rng.standard_normal((300, dim))
    big *= 4.9e149 / np.linalg.norm(big, axis=1).max()
    far = rng.standard_normal((150, dim))
    far *= 4.9e149 / np.linalg.norm(far, axis=1).max()
    yield "norms-under-1e150", big, None, far
    # three copies of each row: every query's nearest row is tied three ways
    base = rng.standard_normal((100, dim))
    copies = np.concatenate([base, base, base])
    queries = np.concatenate([base[::2], rng.standard_normal((50, dim))])
    yield "duplicated-rows", copies, None, queries
    # a shuffled subset of the rows, some repeated
    rows = np.concatenate([rng.permutation(300)[:200], [7, 3, 7]])
    yield "unsorted-rows", span * 1e-20, rows, span[rng.permutation(300)[:120]] * 1e-20
    # queries 1e40 times the data's scale, and 1e-40 times
    yield "queries-far-larger", real * 1e-20, None, rng.standard_normal((60, dim)) * 1e20
    yield "queries-far-smaller", real * 1e20, None, rng.standard_normal((60, dim)) * 1e-20


SCAN_CASES = [
    pytest.param(dim, name, id=f"{dim}-{name}")
    for dim in (11, 64, 768)
    for name, *_ in _scan_cases(dim)
]


class TestScanAgainstScipy:
    """The scan's float32 prefilter against scipy's cKDTree: the same
    distance bits, and the lowest index on ties."""

    @pytest.mark.parametrize("dim, case", SCAN_CASES)
    def test_same_distance_bits_and_lowest_tied_index(self, dim, case):
        data, rows, queries = next((d, r, q) for name, d, r, q in _scan_cases(dim) if name == case)
        dist, idx = metrics.cKDTree(data, rows).query(queries, k=1)
        real = data if rows is None else data[rows]
        ref_dist, ref_idx = _lowest_nearest(real, queries)
        assert np.array_equal(dist.view(np.uint64), ref_dist.view(np.uint64))
        assert np.array_equal(idx, ref_idx)

    def test_kd_tree_rows_index_the_data_as_scipy_on_their_copy(self):
        # the scan's side is the unsorted-rows case above
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(13)
        data = rng.standard_normal((400, 2))
        rows = rng.permutation(400)[:250]
        queries = rng.standard_normal((90, 2))
        dist, idx = metrics.cKDTree(data, rows).query(queries, k=1)
        ref_dist, ref_idx = cKDTree(data[rows]).query(queries, k=1)
        assert np.array_equal(dist, ref_dist) and np.array_equal(idx, ref_idx)


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
