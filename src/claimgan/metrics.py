"""Evaluation protocol: P/R/F1, run aggregation, similarity trends.

Telemetry records serialize to CSV with the column set
`run,iter,precision,recall,f1,loss_pos,loss_neg,loss_label,cos,man,euc`;
absent fields are empty cells.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .fileio import atomic_open

PAIRINGS = ("nearest", "random")

# Data with more columns than this are paired by the exact scan below (it
# needs at least 4), the rest by scipy's KD-tree. Tree indexes fall behind a
# sequential scan above about 10 dimensions (Weber, Schek & Blott, VLDB
# 1998). On 4000 x 4000 Gaussian points (2-core Xeon VM, one OpenBLAS
# thread, best of 5) the tree took 6 ms at 4-D, 30 ms at 8-D, 68 ms at 10-D
# and 117 ms at 12-D; the float32 scan took 61-68 ms up to 10-D, 87 ms at 12-D.
KD_TREE_MAX_DIM = 10
# size of each (query rows x data rows) float32 work array of the scan
SCAN_BLOCK_BYTES = 1 << 19
# size of each float64 row block that similarity_report scores and the scan
# gathers: below glibc's mmap threshold, which starts at 128 KiB and only
# rises (see nets.keep_heap_for_steps), so the blocks come from the heap
# instead of fresh page-faulted mappings
REPORT_BLOCK_BYTES = 1 << 16
# the scan's units are powers of two in [2**-UNIT_EXP, 2**UNIT_EXP]; they
# cover every reach below its 1e150 guard, and their squares stay finite
UNIT_EXP = 500


class cKDTree:  # noqa: N801 - keeps scipy's name, which callers and tracers bind
    """Exact Euclidean nearest neighbour of query rows among the data rows
    `data[rows]` (every row of `data` by default).

    `query(x)` returns scipy.spatial.cKDTree(data[rows])'s `(dist, idx)` bit
    for bit, so idx counts positions in `rows`. Data with at most
    KD_TREE_MAX_DIM columns go to scipy's tree, imported on first
    construction; wider data go to `_NearestScan`, which never loads scipy
    (about 30 MB resident) and never copies `data[rows]` in float64. The name
    stays scipy's because callers and the benchmark's tracer bind it. Only
    k=1 is supported.
    """

    def __init__(self, data, rows=None):
        data = np.asarray(data, dtype=np.float64)
        rows = np.arange(len(data)) if rows is None else np.asarray(rows, dtype=np.intp)
        if data.ndim == 2 and data.shape[1] > KD_TREE_MAX_DIM:
            self._tree = _NearestScan(data, rows)
        else:
            from scipy.spatial import cKDTree as tree

            self._tree = tree(data[rows])

    def query(self, x, k=1):
        if k != 1:
            raise ValueError(f"nearest-neighbour query supports only k=1, got {k}")
        return self._tree.query(x)  # scipy's default k is 1


def _unit(x) -> float:
    """The power of two just above x, clamped to the scan's unit range
    (1 for x that is not finite)."""
    return math.ldexp(1.0, min(max(math.frexp(x)[1], -UNIT_EXP), UNIT_EXP))


class _NearestScan:
    """Exact nearest-neighbour scan: `query` returns the (dist, idx) of each
    query row's nearest row of data[rows] as scipy's cKDTree computes them;
    ties go to the lowest position in rows.

    A blocked float32 gemm gives A_j, the computed (|b_j|^2 - 2 q.b_j) / U^2
    for a power of two U, which is (|q - b_j|^2 - |q|^2) / U^2 up to
    rounding. Every data row whose A_j lies within `margin` of the query
    row's minimum is re-ranked exactly from the float64 data, in scipy's
    summation order. The data rows in float32, their squared norms and the
    SCAN_BLOCK_BYTES work arrays are made once and shared by every query, so
    querying in blocks neither rebuilds the ones nor page-faults the other
    in afresh. The float32 rows are gathered and rounded in row blocks of
    REPORT_BLOCK_BYTES, so data[rows] is never copied whole in float64.
    """

    def __init__(self, data: np.ndarray, rows: np.ndarray):
        self.data, self.rows = data, rows
        n, dim = len(rows), data.shape[1]
        step = max(1, REPORT_BLOCK_BYTES // (8 * dim))
        starts = range(0, n, step)
        sq_max = np.float64(0.0)
        for start in starts:
            chunk = data[rows[start : start + step]]
            sq_max = np.maximum(sq_max, np.einsum("ij,ij->i", chunk, chunk).max())  # keeps nan
        self.max_norm = np.sqrt(sq_max)
        # the rows in units of a power of two above their largest norm, so
        # every scaled row has a norm below 1
        self.unit = _unit(self.max_norm)
        self.scaled = np.empty((n, dim), dtype=np.float32)
        with np.errstate(over="ignore"):  # only rows that query's guard refuses overflow
            for start in starts:
                chunk = data[rows[start : start + step]]
                chunk *= 1 / self.unit
                self.scaled[start : start + len(chunk)] = chunk
        self.sq_norms = np.einsum("ij,ij->i", self.scaled, self.scaled)
        rows_per_block = max(1, SCAN_BLOCK_BYTES // (4 * max(1, n)))
        self.approx = np.empty((rows_per_block, n), dtype=np.float32)
        self.kept = np.empty((rows_per_block, n), dtype=bool)

    def query(self, queries) -> tuple[np.ndarray, np.ndarray]:
        data, rows = self.data, self.rows
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != data.shape[1]:
            raise ValueError(
                f"query rows must have {data.shape[1]} columns, got shape {queries.shape}"
            )
        dim = data.shape[1]
        reach = np.sqrt(np.einsum("ij,ij->i", queries, queries)) + self.max_norm
        if not (reach < 1e150).all():  # false for nan and inf too; keeps reach**2 finite
            raise ValueError("nearest-neighbour points must be finite with norms below 1e150")
        # This call works in units of U (`unit`), a power of two above every
        # reach R = |q| + max_j |b_j|. The data are stored in their own unit,
        # at most U, so both sides reach their units by multiplying by powers
        # of two (`shrink` = data unit / U, and shrink / U): exact but for
        # underflow. Every scaled coordinate, norm and A_j is then at most 1
        # in magnitude, so float32 cannot overflow, and it keeps its relative
        # precision down to its subnormals.
        unit = _unit(reach.max())
        shrink = self.unit / unit
        sq_norms = self.sq_norms * np.float32(shrink * shrink)
        # Why `margin` keeps scipy's answer. Let d = dim, r = R / U <= 1,
        # u = eps32 / 2 and g_k = k u / (1 - k u). Rounding q and b_j to
        # float32 moves each coordinate by at most u of itself, so |b_j|^2 by
        # about 2 u |b_j|^2 and q.b_j by 2 u |q| |b_j|. The float32 squared
        # norm adds g_d |b_j|^2 and the dot product g_d |q| |b_j| (in any
        # order, by Cauchy-Schwarz), and the difference one rounding: A_j is
        # off from its exact value a_j = (|b_j|^2 - 2 q.b_j) / U^2 by at most
        # G = g_(d+3) r^2. scipy's S_j sums d rounded squares of rounded
        # differences in float64, so S_j / U^2 is off from s_j =
        # |q - b_j|^2 / U^2 = a_j + |q|^2 / U^2 by at most H = g64_(d+2) r^2.
        # With k scipy's answer (S_k least) and m the row's least A_m:
        #   A_k <= a_k + G = s_k - |q|^2/U^2 + G <= S_k/U^2 - |q|^2/U^2 + G + H
        #       <= S_m/U^2 - |q|^2/U^2 + G + H <= a_m + G + 2 H <= A_m + 2 (G + H),
        # and 2 (G + H) <= 2 (d + 4) (eps32 + eps64) r^2 for d below 10^6,
        # the slack also covering the cutoff's own float64 rounding.
        # Underflow: every float32 rounding that underflows (a scaled
        # coordinate, a product or square, the shrunk norm) is off by at most
        # half float32's smallest subnormal t32, and as every factor is at
        # most 1 it moves A_j by at most t32, at most 5 (d + 1) of them in G
        # (the float64 scaling underflows only far below t32). H gains at most
        # t64 / 2 per square, in all d t64 / (2 U^2) in units of U. Both
        # terms use d + 4 for slack.
        f32, f64 = np.finfo(np.float32), np.finfo(np.float64)
        margin = 2 * (dim + 4) * (
            (float(f32.eps) + f64.eps) * (reach / unit) ** 2
            + 5 * float(f32.smallest_subnormal) + f64.smallest_subnormal / unit**2
        )
        block_rows = max(1, min(len(queries), len(self.approx)))
        dist = np.empty(len(queries))
        idx = np.empty(len(queries), dtype=np.intp)
        for start in range(0, len(queries), block_rows):
            q = queries[start : start + block_rows]
            a, keep = self.approx[: len(q)], self.kept[: len(q)]
            np.matmul((q * (shrink / unit)).astype(np.float32), self.scaled.T, out=a)
            a *= -2.0
            a += sq_norms
            cutoff = a.min(axis=1) + margin[start : start + len(q)]
            # a float32 A_j is at most the cutoff exactly when it is at most
            # the cutoff rounded up to float32
            cutoff32 = cutoff.astype(np.float32)
            np.nextafter(cutoff32, np.float32(np.inf), out=cutoff32, where=cutoff32 < cutoff)
            np.less_equal(a, cutoff32[:, None], out=keep)
            qi, bj = np.nonzero(keep)  # row-major, so qi ascends and every row is present
            sq_dist = np.empty(len(qi))
            for c in range(0, len(qi), block_rows):  # bounds the (candidates x dim) temporaries
                chunk = slice(c, c + block_rows)
                sq_dist[chunk] = _scipy_sq_dist(q[qi[chunk]], data[rows[bj[chunk]]])
            # by row, then distance; lexsort is stable, so a tie keeps the lowest index
            order = np.lexsort((sq_dist, qi))
            best = order[np.searchsorted(qi, np.arange(len(q)))]
            dist[start : start + len(q)] = np.sqrt(sq_dist[best])
            idx[start : start + len(q)] = bj[best]
        return dist, idx


def _scipy_sq_dist(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise |u - v|^2 summed as scipy's sqeuclidean_distance_double sums
    it: four running lanes over 4-wide chunks, the lanes added left to
    right, then the leftover coordinates in order."""
    sq = u - v
    sq *= sq
    dim = sq.shape[1]
    whole = dim - dim % 4
    # accumulate is a sequential running sum, as scipy's lanes are
    lanes = np.add.accumulate(sq[:, :whole].reshape(len(sq), -1, 4), axis=1)[:, -1]
    total = lanes[:, 0] + lanes[:, 1]
    total += lanes[:, 2]
    total += lanes[:, 3]
    for col in range(whole, dim):
        total += sq[:, col]
    return total


@dataclass(slots=True)
class MetricsRecord:
    run: int
    iter: int
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    loss_pos: float | None = None
    loss_neg: float | None = None
    loss_label: float | None = None
    cos: float | None = None
    man: float | None = None
    euc: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))
_csv_values = attrgetter(*CSV_COLUMNS)


def precision_recall_f1(predictions, truth) -> tuple[float, float, float, bool]:
    """(P, R, F1, degenerate) with label 1 positive. 0/0 ratios are defined
    as 0 and flagged."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    if predictions.size == 0:
        raise ValueError("empty prediction list")
    pred_pos = predictions == 1
    true_pos = truth == 1
    tp = int(np.sum(pred_pos & true_pos))
    fp = int(np.sum(pred_pos & ~true_pos))
    fn = int(np.sum(~pred_pos & true_pos))
    degenerate = False
    if tp + fp == 0:
        precision, degenerate = 0.0, True
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall, degenerate = 0.0, True
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        f1, degenerate = 0.0, True
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1, degenerate


def aggregate(per_run_metrics: list[dict[str, float]]) -> tuple[dict[str, float], dict[str, float]]:
    """(mean, std) of each metric over repeated runs; std is the sample
    standard deviation (ddof=1), 0 for a single run."""
    n = len(per_run_metrics)
    mean, std = {}, {}
    for k in per_run_metrics[0]:
        vals = np.array([rec[k] for rec in per_run_metrics], dtype=np.float64)
        mean[k] = float(vals.mean())
        std[k] = 0.0 if n == 1 else float(vals.std(ddof=1))
    return mean, std


def similarity_report(
    real: np.ndarray,
    generated: np.ndarray,
    seed: int = 0,
    pairing: str = "nearest",
    rows=None,
) -> tuple[float, float, float]:
    """(cosine mean, Manhattan mean, Euclidean mean) over every generated row.

    The real samples are the rows `real[rows]` (every row of `real` by
    default). Each generated row, taken in a seeded order (the order the
    means sum them in), is paired with a real sample: its Euclidean nearest
    neighbour by default, or a seeded random real sample with
    pairing="random". A generated sample that is not finite raises
    ValueError before any pairing.

    The rows are paired and scored in blocks of REPORT_BLOCK_BYTES, and each
    partner is gathered as real[rows[j]], so no copy of the whole sample or
    of the real rows is made. Every score is a reduction along a row and each
    row's partner does not depend on the rows queried with it, so the result
    is the same bits as scoring the whole sample against `real[rows]` at once.
    """
    real = np.asarray(real, dtype=np.float64)
    generated = np.asarray(generated, dtype=np.float64)
    if real.size == 0 or generated.size == 0:
        raise ValueError("empty sample sets")
    if real.ndim != 2 or generated.ndim != 2 or real.shape[1] != generated.shape[1]:
        raise ValueError(
            f"real and generated samples must be 2-D with the same number of columns, "
            f"got shapes {real.shape} and {generated.shape}"
        )
    rows = np.arange(len(real)) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("empty sample sets")
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing rule {pairing!r}")
    # min and max are nan if any sample is, and +-inf if any is infinite
    if not (np.isfinite(generated.min()) and np.isfinite(generated.max())):
        raise ValueError("generated samples must be finite")
    rng = np.random.default_rng(seed)
    n = generated.shape[0]
    idx = rng.choice(n, size=n, replace=False)
    if pairing == "nearest":
        tree = cKDTree(real, rows)
    else:
        partner_idx = rng.integers(0, len(rows), size=n)
    cos, man, euc = np.empty(n), np.empty(n), np.empty(n)
    block_rows = max(1, REPORT_BLOCK_BYTES // (8 * generated.shape[1]))
    for start in range(0, n, block_rows):
        block = slice(start, start + block_rows)
        gen = generated[idx[block]]
        if pairing == "nearest":
            partners = real[rows[tree.query(gen, k=1)[1]]]
        else:
            partners = real[rows[partner_idx[block]]]
        norms = np.linalg.norm(gen, axis=1) * np.linalg.norm(partners, axis=1)
        cos[block] = np.where(
            norms > 0, (gen * partners).sum(axis=1) / np.where(norms > 0, norms, 1.0), 1.0
        )
        # gen is a private copy (fancy indexing), so the difference may overwrite it
        diff = np.subtract(gen, partners, out=gen)
        man[block] = np.abs(diff).sum(axis=1)
        euc[block] = np.sqrt(np.square(diff, out=diff).sum(axis=1))
    return float(cos.mean()), float(man.mean()), float(euc.mean())


def _to_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # plain-float repr round-trips exactly and has no numpy scalar prefix
    return repr(float(value))


def emit(records: list[MetricsRecord], path) -> None:
    """Write records to path as CSV; floats carry full precision."""
    with atomic_open(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_to_cell(v) for v in _csv_values(rec)])
