"""Evaluation protocol: P/R/F1, run aggregation, similarity trends.

Telemetry records serialize to CSV with the column set
`run,iter,precision,recall,f1,loss_pos,loss_neg,loss_label,cos,man,euc`;
absent fields are empty cells.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .fileio import atomic_open

PAIRINGS = ("nearest", "random")

# Data with more columns than this are paired by the exact scan below (it
# needs at least 4), the rest by scipy's KD-tree. Tree indexes fall behind a
# sequential scan above about 10 dimensions (Weber, Schek & Blott, VLDB
# 1998). On 3000 x 3000 Gaussian points (2-core Xeon VM, one OpenBLAS
# thread) the tree took 7 ms at 4-D, 40 ms at 8-D, 82 ms at 10-D and 120 ms
# at 12-D; the scan took 65-73 ms at each.
KD_TREE_MAX_DIM = 10
# size of each (query rows x data rows) work array of the scan
SCAN_BLOCK_BYTES = 1 << 20
# size of each (sampled rows x columns) array of similarity_report: below
# glibc's mmap threshold, which starts at 128 KiB and only rises (see
# nets.keep_heap_for_steps), so the blocks come from the heap instead of
# fresh page-faulted mappings
REPORT_BLOCK_BYTES = 1 << 16


class cKDTree:  # noqa: N801 - keeps scipy's name, which callers and tracers bind
    """Exact Euclidean nearest neighbour of query rows among the data rows.

    `query(x)` returns scipy.spatial.cKDTree's `(dist, idx)` bit for bit. Data
    with at most KD_TREE_MAX_DIM columns go to scipy's tree, imported on
    first construction; wider data go to `_NearestScan`, which never loads
    scipy (about 30 MB resident). The name stays scipy's because callers and
    the benchmark's tracer bind it. Only k=1 is supported.
    """

    def __init__(self, data):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 2 and data.shape[1] > KD_TREE_MAX_DIM:
            self._tree = _NearestScan(data)
        else:
            from scipy.spatial import cKDTree as tree

            self._tree = tree(data)

    def query(self, x, k=1):
        if k != 1:
            raise ValueError(f"nearest-neighbour query supports only k=1, got {k}")
        return self._tree.query(x)  # scipy's default k is 1


class _NearestScan:
    """Exact nearest-neighbour scan: `query` returns the (dist, idx) of each
    query row's nearest data row as scipy's cKDTree computes them; ties go
    to the lowest index.

    A blocked gemm gives A_j, the computed |b_j|^2 - 2 q.b_j, which is
    |q - b_j|^2 - |q|^2 up to rounding. Every data row whose A_j lies within
    `margin` of the query row's minimum is re-ranked exactly, in scipy's
    summation order. The data's squared norms and the SCAN_BLOCK_BYTES work
    arrays are made once and shared by every query, so querying in blocks
    neither recomputes the one nor page-faults the other in afresh.
    """

    def __init__(self, data: np.ndarray):
        self.data = data
        self.sq_norms = np.einsum("ij,ij->i", data, data)
        rows = max(1, SCAN_BLOCK_BYTES // (8 * max(1, len(data))))
        self.approx = np.empty((rows, len(data)))
        self.kept = np.empty((rows, len(data)), dtype=bool)

    def query(self, queries) -> tuple[np.ndarray, np.ndarray]:
        data, sq_norms = self.data, self.sq_norms
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != data.shape[1]:
            raise ValueError(
                f"query rows must have {data.shape[1]} columns, got shape {queries.shape}"
            )
        n, dim = data.shape
        reach = np.sqrt(np.einsum("ij,ij->i", queries, queries)) + np.sqrt(sq_norms.max())
        if not (reach < 1e150).all():  # false for nan and inf too; keeps reach**2 finite
            raise ValueError("nearest-neighbour points must be finite with norms below 1e150")
        # Why `margin` keeps scipy's answer. Let u = eps/2, g_k = k u / (1 - k u),
        # R = |q| + max_j |b_j| (`reach`) and d = dim. A_j is off from its exact
        # value a_j by at most g_d |q| |b_j| from the dot product (in any order,
        # by Cauchy-Schwarz), g_d |b_j|^2 from the squared norm and one rounding
        # of the difference: in all G = g_(d+1) R^2. scipy's S_j sums d rounded
        # squares of rounded differences, so it is off from s_j = |q - b_j|^2 =
        # a_j + |q|^2 by at most H = g_(d+2) R^2. With k scipy's answer (S_k
        # least) and m the row's least A_m:
        #   A_k <= a_k + G = s_k - |q|^2 + G <= S_k - |q|^2 + G + H
        #       <= S_m - |q|^2 + G + H <= a_m + G + 2 H <= A_m + 2 (G + H),
        # and 2 (G + H) <= 4 g_(d+2) R^2 <= 2 (d + 3) eps R^2 for d below 10^7.
        # Underflow adds at most half the smallest subnormal per rounded
        # product, 4 (d + 1) of them in that chain. Both terms use d + 4 for
        # slack.
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
        margin = 2 * (dim + 4) * eps * reach**2 + 4 * (dim + 4) * tiny
        rows = max(1, min(len(queries), len(self.approx)))
        dist = np.empty(len(queries))
        idx = np.empty(len(queries), dtype=np.intp)
        for start in range(0, len(queries), rows):
            q = queries[start : start + rows]
            a, keep = self.approx[: len(q)], self.kept[: len(q)]
            np.matmul(q, data.T, out=a)
            a *= -2.0
            a += sq_norms
            cutoff = a.min(axis=1) + margin[start : start + len(q)]
            np.less_equal(a, cutoff[:, None], out=keep)
            qi, bj = np.nonzero(keep)  # row-major, so qi ascends and every row is present
            sq_dist = np.empty(len(qi))
            for c in range(0, len(qi), rows):  # bounds the (candidates x dim) temporaries
                chunk = slice(c, c + rows)
                sq_dist[chunk] = _scipy_sq_dist(q[qi[chunk]], data[bj[chunk]])
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


@dataclass
class AggregateResult:
    n_runs: int
    mean: dict[str, float]
    std: dict[str, float]  # sample std (ddof=1); 0 for single runs


def aggregate(per_run_metrics: list[dict[str, float]]) -> AggregateResult:
    """Mean and sample standard deviation of each metric over repeated runs."""
    if not per_run_metrics:
        raise ValueError("no runs to aggregate")
    keys = list(per_run_metrics[0].keys())
    for rec in per_run_metrics:
        if list(rec.keys()) != keys:
            raise ValueError("inconsistent metric keys across runs")
    n = len(per_run_metrics)
    mean, std = {}, {}
    for k in keys:
        vals = np.array([rec[k] for rec in per_run_metrics], dtype=np.float64)
        mean[k] = float(vals.mean())
        std[k] = 0.0 if n == 1 else float(vals.std(ddof=1))
    return AggregateResult(n_runs=n, mean=mean, std=std)


def similarity_report(
    real: np.ndarray,
    generated: np.ndarray,
    n_cap: int = 20000,
    seed: int = 0,
    pairing: str = "nearest",
) -> tuple[float, float, float]:
    """(cosine mean, Manhattan mean, Euclidean mean) over sampled pairs.

    Up to n_cap generated vectors are sampled without replacement and each
    is paired with a real sample: its Euclidean nearest neighbour by
    default, or a seeded random real sample with pairing="random".

    The sampled rows are paired and scored in blocks of REPORT_BLOCK_BYTES,
    so no copy of the whole sample is made. Every score is a reduction
    along a row and each row's partner does not depend on the rows queried
    with it, so the result is the same bits as scoring the whole sample at
    once.
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
    if n_cap < 1:
        raise ValueError(f"n_cap must be at least 1, got {n_cap}")
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing rule {pairing!r}")
    rng = np.random.default_rng(seed)
    n = min(n_cap, generated.shape[0])
    idx = rng.choice(generated.shape[0], size=n, replace=False)
    if pairing == "nearest":
        tree = cKDTree(real)
    else:
        partner_idx = rng.integers(0, real.shape[0], size=n)
    cos, man, euc = np.empty(n), np.empty(n), np.empty(n)
    rows = max(1, REPORT_BLOCK_BYTES // (8 * generated.shape[1]))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        gen = generated[idx[block]]
        if pairing == "nearest":
            partners = real[tree.query(gen, k=1)[1]]
        else:
            partners = real[partner_idx[block]]
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
