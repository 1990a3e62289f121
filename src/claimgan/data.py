"""Datasets: toy Gaussian mixtures, claim/evidence corpora, hashed embeddings.

A corpus file is line-delimited JSON, one object per line with fields
`claim` (string), `evidence` (list of strings), `label` (string: SUPPORTS
/ REFUTES / NOT ENOUGH INFO, case-insensitive). Only supported and refuted
claims are kept; each claim is expanded into one training pair per
evidence sentence.
"""

from __future__ import annotations

import json
import zlib
from array import array
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_open

# how far fractions that must sum to 1 (class priors, split fractions) may miss
SUM_TOLERANCE = 1e-9


def is_distribution(values) -> bool:
    """Every value in [0, 1] (so none is NaN), summing to 1 within SUM_TOLERANCE.
    The range test runs first, so the sum cannot overflow."""
    return all(0 <= v <= 1 for v in values) and abs(sum(values) - 1) <= SUM_TOLERANCE


LABEL_REFUTED = 0
LABEL_SUPPORTED = 1

_SUPPORTED_ALIASES = {"supports", "supported", "true"}
_REFUTED_ALIASES = {"refutes", "refuted", "false"}

# joins claim and evidence text in a pair; it tokenises to "sep", so every pair
# adds 1 to the bucket that the word "sep" in a claim or evidence also hits
PAIR_SEPARATOR = " [SEP] "

# maps every byte except 0-9 and a-z to a space; see embed_pairs
_TOKEN_BYTES = bytes(b if chr(b) in "0123456789abcdefghijklmnopqrstuvwxyz" else 32
                     for b in range(256))


@dataclass
class ClaimRecord:
    claim: str
    evidence: list[str]
    label: int  # LABEL_SUPPORTED / LABEL_REFUTED


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,) of {0, 1}
    zero_vector_count: int = 0  # pairs whose text hashed to nothing

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features/labels shape mismatch")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if self.labels.size and not np.all(np.isin(self.labels, (0, 1))):
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def gaussian_mixture(
    n_per_class: int,
    dim: int,
    means,
    cov_scale: float,
    seed: int,
) -> LabeledDataset:
    """Two isotropic Gaussians: means[1] is the positive class, means[0] the
    negative class. cov_scale is the per-coordinate standard deviation."""
    if n_per_class < 0:
        raise ValueError("n_per_class must be nonnegative")
    if dim < 1:
        raise ValueError("dim must be positive")
    if cov_scale <= 0:
        raise ValueError("covariance scale must be positive")
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (2, dim):
        raise ValueError(f"means must be shape (2, {dim}), got {means.shape}")
    rng = np.random.default_rng(seed)
    neg = means[0] + cov_scale * rng.standard_normal((n_per_class, dim))
    pos = means[1] + cov_scale * rng.standard_normal((n_per_class, dim))
    features = np.vstack([neg, pos])
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)]
    )
    return LabeledDataset(features, labels)


@dataclass
class CorpusLoadResult:
    records: list[ClaimRecord]
    skipped_other_label: int
    rejected_empty_evidence: int


def load_claims(path) -> CorpusLoadResult:
    """Parse a corpus file; keep supported/refuted claims with evidence."""
    records: list[ClaimRecord] = []
    skipped = 0
    rejected = 0
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                claim = obj["claim"]
                evidence = obj["evidence"]
                label_text = obj["label"]
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise ValueError(f"{path}: malformed record on line {lineno}: {e}") from e
            if not isinstance(label_text, str):
                raise ValueError(f"{path}: line {lineno}: label must be a string")
            norm = label_text.strip().lower()
            if norm in _SUPPORTED_ALIASES:
                label = LABEL_SUPPORTED
            elif norm in _REFUTED_ALIASES:
                label = LABEL_REFUTED
            else:
                skipped += 1
                continue
            if not isinstance(claim, str):
                raise ValueError(f"{path}: line {lineno}: claim must be a string")
            if not isinstance(evidence, list) or not all(
                isinstance(e, str) for e in evidence
            ):
                raise ValueError(f"{path}: line {lineno}: evidence must be a list of strings")
            if not evidence:
                rejected += 1
                continue
            records.append(ClaimRecord(claim, list(evidence), label))
    return CorpusLoadResult(records, skipped, rejected)


def make_pairs(records: list[ClaimRecord]) -> list[tuple[str, int]]:
    """One (claim + separator + evidence, label) pair per evidence sentence,
    in input order; duplicates are kept."""
    pairs = []
    for rec in records:
        for ev in rec.evidence:
            pairs.append((rec.claim + PAIR_SEPARATOR + ev, rec.label))
    return pairs


class _Buckets(dict):
    """ASCII token -> crc32(f"{seed}:{token}") % dim, filled on first lookup,
    so each distinct token is hashed once per embed_pairs call."""

    def __init__(self, dim: int, seed: int):
        # crc32 is stable across processes, unlike the builtin hash(); it can
        # be continued, so the prefix is hashed once
        self.dim, self.prefix_crc = dim, zlib.crc32(f"{seed}:".encode())

    def __missing__(self, token: bytes) -> int:
        bucket = self[token] = zlib.crc32(token, self.prefix_crc) % self.dim
        return bucket


def embed_pairs(pairs: list[tuple[str, int]], dim: int, seed: int) -> LabeledDataset:
    """Hashed bag-of-words embedding, L2-normalized per pair.

    Tokens are the maximal [0-9a-z] runs of the lowercased text; token t goes
    to bucket crc32(f"{seed}:{t}") % dim. Texts with no tokens produce a zero
    vector and are counted.
    """
    if dim < 8:
        raise ValueError("embedding dim must be at least 8")
    n = len(pairs)
    buckets = _Buckets(dim, seed)
    # One bucket id per token, row by row; the tokens themselves are not
    # kept. 0-9 and a-z are ASCII, so encoding text.lower() with "?" for
    # each other character and blanking every byte outside 0-9a-z leaves
    # exactly its maximal [0-9a-z] runs for split().
    ids = array("q")
    counts = np.empty(n, dtype=np.intp)
    for i, (text, _) in enumerate(pairs):
        start = len(ids)
        tokens = text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).split()
        ids.extend(map(buckets.__getitem__, tokens))
        counts[i] = len(ids) - start
    # row * dim + bucket for every token; each id array is freed as soon as
    # it is used, so the peak stays near the output's size
    flat = np.repeat(np.arange(0, n * dim, dim), counts)
    flat += np.frombuffer(ids, dtype=np.int64)
    del ids
    features = np.zeros((n, dim))
    np.add.at(features.reshape(-1), flat, 1.0)
    del flat
    # the counts are integers, so the sum of squares is exact in any order
    # and each norm equals np.linalg.norm of its row
    norms = np.sqrt(np.einsum("ij,ij->i", features, features))[:, None]
    np.divide(features, norms, out=features, where=norms > 0)
    labels = np.fromiter((label for _, label in pairs), dtype=np.int64, count=n)
    return LabeledDataset(features, labels, zero_vector_count=int(np.count_nonzero(norms == 0)))


def class_priors(dataset: LabeledDataset) -> tuple[float, float]:
    """Empirical (pi_p, pi_n). Rejects empty or single-class data."""
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset has no priors")
    n_pos = int((dataset.labels == 1).sum())
    if n_pos == 0 or n_pos == n:
        raise ValueError("dataset contains a single class; priors are degenerate")
    return n_pos / n, (n - n_pos) / n


def check_priors(pi_p: float, pi_n: float) -> None:
    """Reject priors that are not a probability vector (is_distribution)."""
    if not is_distribution((pi_p, pi_n)):
        raise ValueError(f"priors ({pi_p}, {pi_n}) must be nonnegative and sum to 1")


def prior_from_counts(n_supported: int, n_refuted: int) -> tuple[float, float]:
    """Priors straight from label counts (both must be positive)."""
    if n_supported <= 0 or n_refuted <= 0:
        raise ValueError("both counts must be positive")
    total = n_supported + n_refuted
    return n_supported / total, n_refuted / total


def split(
    dataset: LabeledDataset, fractions: tuple[float, float, float], seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Seeded shuffle-split into (train, val, test).

    Sizes are floored; remainder samples go to the train split.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or not is_distribution(fractions):
        raise ValueError(f"need three fractions in [0, 1] summing to 1, got {list(fractions)}")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_val - n_test
    idx_train = order[:n_train]
    idx_val = order[n_train : n_train + n_val]
    idx_test = order[n_train + n_val :]

    def take(idx):
        return LabeledDataset(dataset.features[idx], dataset.labels[idx])

    return take(idx_train), take(idx_val), take(idx_test)


def save_dataset(dataset: LabeledDataset, path) -> None:
    """Decimal-text export: header then rows `label,f_0..f_{d-1}`."""
    with atomic_open(path) as f:
        cols = ",".join(f"f_{j}" for j in range(dataset.dim))
        f.write(f"label,{cols}\n")
        for label, row in zip(dataset.labels, dataset.features):
            f.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def load_dataset(path) -> LabeledDataset:
    with open(path) as f:
        header = f.readline()
        if not header.startswith("label,"):
            raise ValueError(f"{path}: not a dataset file (bad header)")
        dim = len(header.rstrip("\n").split(",")) - 1
        features = []
        labels = []
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim} features, got {len(parts) - 1}"
                )
            try:
                labels.append(int(parts[0]))
                features.append([float(v) for v in parts[1:]])
            except ValueError as e:
                raise ValueError(f"{path}: malformed row on line {lineno}") from e
    # every row has dim features, so an empty file still gives shape (0, dim)
    features = np.array(features, dtype=np.float64).reshape(len(labels), dim)
    return LabeledDataset(features, np.array(labels, dtype=np.int64))
