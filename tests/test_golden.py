"""Golden telemetry: short seeded toy trainings must reproduce recorded bytes.

Each case trains the toy model through `claimgan train` and compares the
sha256 of the emitted telemetry CSV and checkpoint against digests recorded
before any optimisation of the training loop. Refactors and speed-ups must
keep these bytes. A digest may only change in a change that declares a
behaviour change (new arithmetic, new columns, new defaults) and says why;
re-record it then, never to make an optimisation pass.
"""

import hashlib
import json

import pytest

from claimgan.cli import main

GOLDEN = {
    "alg1-line14": {
        "eval_every": 0,
        "telemetry.csv": "24f8b72f7d678fc2b449eff6dc797bac54ec9c82704d60b3804d056283796306",
        "checkpoint.json": "07307d957a737bb096f5d7a5e62147fb6dc3452398eba3a9272f63f0342f8f09",
    },
    "eq4": {
        "eval_every": 100,
        "telemetry.csv": "2079f3c01ca48d7a884fa452e0feb7dabda67df435da7968026b1df751d8d2c2",
        "checkpoint.json": "38e1c0ddcfa56407555a17ab6697a00813717e6755d159856e6fb1f8a0020597",
    },
}


def _toy_config(mode: str, eval_every: int) -> dict:
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
        "g_y_loss_mode": mode,
        "eval_every": eval_every,
    }


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_toy_training_bytes_match_golden(mode, tmp_path, capsys):
    golden = GOLDEN[mode]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_toy_config(mode, golden["eval_every"])))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("telemetry.csv", "checkpoint.json"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == golden[name], f"{mode}: {name} bytes changed"
