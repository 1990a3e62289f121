"""Golden telemetry: short seeded trainings must reproduce recorded bytes.

Each case trains through `claimgan train` (a g_y mode of the proposed
model, an ablation variant, or the baseline, on toy data or on a small
hashed claim corpus) and compares the sha256 of the emitted telemetry CSV
and checkpoint against digests recorded before any optimisation or
refactor of the code that case runs. Refactors and speed-ups must
keep these bytes. A digest may only change in a change that declares a
behaviour change (new arithmetic, new columns, new defaults) and says why;
re-record it then, never to make an optimisation pass.

The same rule holds for the stdout of `claimgan grad-check --instances 2`,
which pins the finite-difference checker's values beyond its tolerance.
"""

import hashlib
import json

import pytest

from claimgan.cli import main

# case -> config keys that differ from _toy_config's, and the two digests
GOLDEN = {
    "alg1-line14": {
        "config": {"eval_every": 0},
        "telemetry.csv": "24f8b72f7d678fc2b449eff6dc797bac54ec9c82704d60b3804d056283796306",
        "checkpoint.json": "07307d957a737bb096f5d7a5e62147fb6dc3452398eba3a9272f63f0342f8f09",
    },
    "eq4": {
        "config": {"g_y_loss_mode": "eq4", "eval_every": 100},
        "telemetry.csv": "2079f3c01ca48d7a884fa452e0feb7dabda67df435da7968026b1df751d8d2c2",
        "checkpoint.json": "38e1c0ddcfa56407555a17ab6697a00813717e6755d159856e6fb1f8a0020597",
    },
    "generator-labels": {
        "config": {"g_y_loss_mode": "generator-labels", "eval_every": 100},
        "telemetry.csv": "356153dcc0c261a81f2dce0d62c18a132fd052348497cd67d8f2ab3d11c59cb4",
        "checkpoint.json": "64d41a45ed059d4bdb01d9173d71301a078611cb3da5f2f09425e477ed604684",
    },
    "inverted": {
        "config": {"variant": "inverted", "eval_every": 0},
        "telemetry.csv": "8257714ba31d0e5cb1a9b28a3e9cde3551f51e574a06fd2da1e69520c8e79ea5",
        "checkpoint.json": "82b70eaa3bf57530585fb6eab205eecfdc20863f53e75a0dbf4a5153251f86b9",
    },
    "symmetric": {
        "config": {"variant": "symmetric", "eval_every": 100},
        "telemetry.csv": "d5827746c06bc66f54b45dda604e15947e1a32a70a0279e104efaea4f763cf57",
        "checkpoint.json": "e4d239004ae72c5196d69f787e120a3e67c5a5f4aaf66f3f5c2eb19cb68f4421",
    },
    "symmetric-intended": {
        "config": {"variant": "symmetric-intended", "eval_every": 0},
        "telemetry.csv": "5fff1a5d16fcc77195556cd1ca3ca8a903f207c561c9ca93551be8653f7dd55f",
        "checkpoint.json": "9aa33994150d41d53c2ad89b2bc7cad03d2fad669fd3ee7bc2b7f61fd16ec338",
    },
    "baseline": {
        "config": {"variant": "baseline", "eval_every": 100},
        "telemetry.csv": "011d68c4c4cfbb4c49baa8f876daec3d609f077a32a77117aa1d6d286b0cc01e",
        "checkpoint.json": "0e83875801141cd52d3bf5b92888f9bd0d5864a56319549989bea5dbc98a39b9",
    },
    # 16-D, above metrics.KD_TREE_MAX_DIM: nearest pairing takes the exact
    # brute-force kernel instead of scipy's tree
    "dim16-nearest": {
        "config": {
            "data": {
                "kind": "toy-mixture",
                "n_per_class": 300,
                "dim": 16,
                "means": [[-0.5] * 16, [0.5] * 16],
                "cov_scale": 0.5,
                "data_seed": 3,
            },
            "eval_every": 100,
            "pairing": "nearest",
        },
        "telemetry.csv": "cb2642ba9e0b9acd19db46e9819f1bc0a9d87b26f7f711f6dd16ca8305aa752f",
        "checkpoint.json": "c0b08c05bf782360afe073400230a4efeacb5010376903b6f2fd782db9522805",
    },
    # the hashed bag-of-words embedding of _corpus_rows(); "path" is filled in
    # by the test
    "corpus": {
        "config": {
            "data": {"kind": "corpus", "embed_dim": 32, "embed_seed": 11},
            "eval_every": 100,
        },
        "telemetry.csv": "cedb2d6623e84c5dcab3bb4451c216891969435ade7d4dc824706765885de172",
        "checkpoint.json": "0eb2cb708ac9985b4ce32f4261b4d789e8768282bcfda2e7968804a09ee4a638",
    },
}

# sha256 of `claimgan grad-check --instances 2` stdout (17 lines)
GRAD_CHECK_STDOUT = "77c7fda5c2a4593aa4439059e325ed19eaca05d5803ec5457da76bab5adf6e62"


def _toy_config(overrides: dict) -> dict:
    return {
        "data": {
            "kind": "toy-mixture",
            "n_per_class": 300,
            "dim": 2,
            "means": [[-2.0, 0.0], [2.0, 0.0]],
            "cov_scale": 0.5,
            "data_seed": 3,
        },
        "iterations": 300,
        "batch_size": 64,
        "seed": 7,
        "noise_dim": 8,
        "hidden": 64,
        **overrides,
    }


_SUBJECTS = ["Zarion", "MELEX", "tovar", "İstanbul", "Quiar", "brenum", "Solis"]
_VERBS = ["founded", "WROTE", "directed", "won", "hosted"]


def _corpus_rows() -> list[dict]:
    """Mixed-case claims with digits; every 10th claim NOT ENOUGH INFO, every
    13th without evidence, every 9th evidence sentence punctuation only.
    "İ" lowercases to two code points, "i" and a combining dot."""
    rows = []
    for i in range(90):
        label = "NOT ENOUGH INFO" if i % 10 == 0 else ("Supports", "REFUTES", "supports")[i % 3]
        claim = f"{_SUBJECTS[i % 7]} {_VERBS[i % 5]} Item{i % 11} in {1900 + i}."
        evidence = [
            "?! -- ..." if (i + j) % 9 == 0
            else f"Record {j}: {_SUBJECTS[(i + j) % 7]} {'confirms' if i % 3 else 'denies'} it."
            for j in range(i % 3 + 1)
        ]
        rows.append({"claim": claim, "evidence": [] if i % 13 == 0 else evidence,
                     "label": label})
    return rows


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_toy_training_bytes_match_golden(mode, tmp_path, capsys):
    golden = GOLDEN[mode]
    config = _toy_config(golden["config"])
    if config["data"]["kind"] == "corpus":
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in _corpus_rows()))
        config["data"] = {**config["data"], "path": str(corpus)}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("telemetry.csv", "checkpoint.json"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == golden[name], f"{mode}: {name} bytes changed"


def test_grad_check_output_matches_golden(capsys):
    assert main(["grad-check", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 17
    assert hashlib.sha256(out.encode()).hexdigest() == GRAD_CHECK_STDOUT, "grad-check output changed"
