"""Crash-safe writes: a writer that fails partway leaves the previous file
as it was and no temporary file behind."""

import os

import numpy as np
import pytest

from claimgan.data import LabeledDataset, save_dataset
from claimgan.fileio import atomic_open
from claimgan.metrics import MetricsRecord, emit
from claimgan.nets import Layer, NeuralNet, checkpoint_save, net_init


def _assert_untouched(path, before: bytes):
    assert path.read_bytes() == before
    assert os.listdir(path.parent) == [path.name]


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as f:
            f.write("half")
            raise RuntimeError("writer died")
    _assert_untouched(path, b"old\n")
    with atomic_open(path) as f:
        f.write("new\n")
    _assert_untouched(path, b"new\n")


def test_atomic_open_missing_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        with atomic_open(tmp_path / "no-such-dir" / "out.txt") as f:
            f.write("x")


def test_emit_failing_partway_keeps_previous_telemetry(tmp_path):
    path = tmp_path / "telemetry.csv"
    emit([MetricsRecord(run=0, iter=1, loss_pos=0.5)], path)
    before = path.read_bytes()
    bad = [MetricsRecord(run=0, iter=i, loss_pos=0.25) for i in range(1, 500)]
    bad.append(MetricsRecord(run=0, iter=500, loss_pos=object()))  # not serialisable
    with pytest.raises(TypeError):
        emit(bad, path)
    _assert_untouched(path, before)


def test_checkpoint_failing_partway_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "checkpoint.json"
    checkpoint_save({"Gy": net_init([2, 3, 1], ["relu", "sigmoid"], 0)}, path)
    before = path.read_bytes()
    broken = NeuralNet([Layer(np.zeros((1, 2)), np.zeros(1), "identity")])
    broken.layers[0].activation = object()  # json.dump fails after the first net
    with pytest.raises(TypeError):
        checkpoint_save({"Gy": net_init([2, 3, 1], ["relu", "sigmoid"], 1), "Gz": broken}, path)
    _assert_untouched(path, before)


def test_dataset_failing_partway_keeps_previous_file(tmp_path):
    path = tmp_path / "dataset.csv"
    save_dataset(LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1])), path)
    before = path.read_bytes()
    bigger = LabeledDataset(np.zeros((2, 2)), np.array([0, 1]))
    bigger.features = np.array([[1.0, 2.0], [3.0, "x"]], dtype=object)  # row 2 fails
    with pytest.raises(ValueError):
        save_dataset(bigger, path)
    _assert_untouched(path, before)
