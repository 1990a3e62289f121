"""Evaluation protocol: P/R/F1, run aggregation, similarity trends.

Telemetry records serialize to CSV with the column set
`run,iter,precision,recall,f1,loss_pos,loss_neg,loss_label,cos,man,euc`;
absent fields are empty cells.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fileio import atomic_open

PAIRINGS = ("nearest", "random")


class cKDTree:  # noqa: N801 - keeps scipy's name, which callers and tracers bind
    """scipy's cKDTree, imported on first construction.

    Only nearest-neighbour pairing needs scipy, so a process that never
    pairs that way (training with eval off, grad-check, the equilibrium
    oracle) never loads it."""

    def __init__(self, data):
        from scipy.spatial import cKDTree as tree

        self._tree = tree(data)

    def query(self, x, k=1):
        return self._tree.query(x, k=k)


@dataclass
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


def precision_recall_f1(
    predictions, truth, positive_label: int = 1
) -> tuple[float, float, float, bool]:
    """(P, R, F1, degenerate). 0/0 ratios are defined as 0 and flagged."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    if predictions.size == 0:
        raise ValueError("empty prediction list")
    pred_pos = predictions == positive_label
    true_pos = truth == positive_label
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
    single_run: bool


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
    return AggregateResult(n_runs=n, mean=mean, std=std, single_run=(n == 1))


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
    """
    real = np.asarray(real, dtype=np.float64)
    generated = np.asarray(generated, dtype=np.float64)
    if real.size == 0 or generated.size == 0:
        raise ValueError("empty sample sets")
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing rule {pairing!r}")
    rng = np.random.default_rng(seed)
    n = min(n_cap, generated.shape[0])
    idx = rng.choice(generated.shape[0], size=n, replace=False)
    gen = generated[idx]
    if pairing == "nearest":
        _, nn_idx = cKDTree(real).query(gen, k=1)
        partners = real[nn_idx]
    else:
        partners = real[rng.integers(0, real.shape[0], size=n)]
    diff = gen - partners
    euc = np.sqrt((diff**2).sum(axis=1))
    man = np.abs(diff).sum(axis=1)
    norms = np.linalg.norm(gen, axis=1) * np.linalg.norm(partners, axis=1)
    cos = np.where(norms > 0, (gen * partners).sum(axis=1) / np.where(norms > 0, norms, 1.0), 1.0)
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
            d = asdict(rec)
            writer.writerow([_to_cell(d[c]) for c in CSV_COLUMNS])


def load_records(path) -> list[MetricsRecord]:
    records = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        for row in reader:
            kwargs = {"run": int(row["run"]), "iter": int(row["iter"])}
            for c in CSV_COLUMNS[2:]:
                kwargs[c] = float(row[c]) if row[c] != "" else None
            records.append(MetricsRecord(**kwargs))
    return records
