import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimgan import data, trigan
from claimgan.cli import main
from claimgan.config import (
    _DATA_TYPES,
    _TOP_KEYS,
    _TOP_TYPES,
    ConfigError,
    DataSpec,
    RunConfig,
    parse_config,
)
from claimgan.data import embed_pairs, load_dataset
from claimgan.equilibrium import MAX_GRID_POINTS
from claimgan.gradcheck import check_all_gradients
from claimgan.metrics import load_records
from claimgan.nets import checkpoint_load, checkpoint_save, net_init


def toy_config(**overrides):
    cfg = {
        "data": {
            "kind": "toy-mixture",
            "n_per_class": 100,
            "dim": 2,
            "means": [[-2.0, 0.0], [2.0, 0.0]],
            "cov_scale": 0.5,
            "data_seed": 0,
        },
        "iterations": 10,
        "batch_size": 16,
        "seed": 0,
        "noise_dim": 4,
        "hidden": 8,
        "eval_every": 5,
        "repeats": 2,
    }
    cfg.update(overrides)
    return cfg


def assert_one_error_line(err: str, needle: str):
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert needle in err


def _gy(outputs=1, weight=0.5):
    """A one-layer Gy record for 2-D data, as checkpoint_save writes it."""
    return {"dims": [2, outputs], "activations": ["sigmoid"],
            "weights": [[[weight, weight]] * outputs], "biases": [[0.0] * outputs]}


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def corpus_config(tmp_path, rows, **overrides):
    """toy_config reading `rows` as a claim corpus, embedded at dim 16."""
    corpus = tmp_path / "claims.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
    cfg = toy_config(**overrides)
    cfg["data"] = {"kind": "corpus", "path": str(corpus), "embed_dim": 16, "embed_seed": 0}
    return write_config(tmp_path, cfg)


def claim_rows(n):
    return [
        {"claim": f"claim {i}", "evidence": [f"ev {i} a", f"ev {i} b"], "label": label}
        for i, label in enumerate(["SUPPORTS", "REFUTES"] * (n // 2))
    ]


class TestConfig:
    def test_parse_defaults(self):
        cfg = parse_config(toy_config())
        assert isinstance(cfg, RunConfig)
        assert cfg.variant == "proposed" and cfg.iterations == 10

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="iterationz"):
            parse_config(toy_config(iterationz=5))

    def test_unknown_data_key_named(self):
        bad = toy_config()
        bad["data"]["sigma"] = 1.0
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(bad)

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config(toy_config(variant="quadruple"))

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError, match="split"):
            parse_config(toy_config(split=[0.9, 0.2, 0.1]))

    def test_missing_data_rejected(self):
        with pytest.raises(ConfigError, match="data"):
            parse_config({"iterations": 5})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_per_class", "100"),
            ("dim", 2.0),
            ("cov_scale", None),
            ("means", [[0, "a"], [1, 2]]),
            ("means", [[0, 0, 0], [1, 1, 1]]),
            ("data_seed", True),
        ],
    )
    def test_bad_data_field_named(self, field, value):
        bad = toy_config()
        bad["data"][field] = value
        with pytest.raises(ConfigError, match=f"data.{field}"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("split", [0.8, "0.1", 0.1]),
            ("split", [0.5, 10**400, 0.0]),
            ("priors", [0.5, None]),
            ("learning_rate", float("nan")),
            ("learning_rates", {"g_p": "fast"}),
            ("learning_rates", {"g_q": 1e-3}),
            ("seed", 10**30),
            ("split", [10**308, 10**308, 0]),  # the range test runs before the sum
        ],
    )
    def test_bad_field_element_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            parse_config(toy_config(**{field: value}))

    def test_json_types_cover_every_scalar_field(self):
        # the fields left untyped are exactly those with element checks
        assert _TOP_KEYS - set(_TOP_TYPES) == {"data", "learning_rates", "split", "priors"}
        assert _TOP_TYPES["learning_rate"] == "number" and _TOP_TYPES["seed"] == "integer"
        assert _DATA_TYPES["path"] == "string" and _DATA_TYPES["cov_scale"] == "number"

    def test_direct_construction_checked_training_fields_first(self):
        with pytest.raises(ConfigError) as e:
            RunConfig(data=DataSpec("toy-mixture"), hidden=0, seed=-1)
        assert str(e.value) == "seed: must be nonnegative; hidden: must be positive"

    @pytest.mark.parametrize(
        "field, value",
        [("split", (float("nan"), 0.5, 0.5)), ("priors", (float("nan"), 1.0)),
         ("priors", (1 + 1e-10, 0.0))],
    )
    def test_direct_construction_rejects_bad_probabilities(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            RunConfig(data=DataSpec("toy-mixture"), **{field: value})

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                dict(kind="toy-mixture", n_per_class=-1, data_seed=-1, cov_scale=0),
                "data.n_per_class: must be nonnegative; data.cov_scale: must be positive; "
                "data.data_seed: must be nonnegative",
            ),
            (dict(kind="toy-mixture", dim=3), "data.means: must be two rows of data.dim numbers"),
            (dict(kind="corpus", embed_dim=3), "data.path: required; data.embed_dim: must be at least 8"),
            (dict(kind="dataset"), "data.path: required"),
            (dict(kind="csv", path="x.csv"), "data.kind: unknown kind 'csv'"),
        ],
        ids=["toy-ranges", "toy-means", "corpus", "dataset", "unknown-kind"],
    )
    def test_direct_construction_checks_data_spec(self, spec, message):
        with pytest.raises(ConfigError) as e:
            RunConfig(data=DataSpec(**spec))
        assert str(e.value) == message

    def test_train_config_carries_every_training_setting(self):
        settings = {"optimizer": "sgd", "learning_rates": {"d_p": 0.5}, "pairing": "random"}
        cfg = parse_config(toy_config(**settings))
        tcfg = cfg.train_config(seed=7)
        assert type(tcfg) is trigan.TrainConfig
        assert {k: getattr(tcfg, k) for k in settings} == settings
        assert (tcfg.iterations, tcfg.eval_every, tcfg.seed) == (10, 5, 7)
        assert cfg.train_config().seed == cfg.seed


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_DATA_DOCS = st.builds(
    lambda kind, fields: {"kind": kind, **fields},
    st.sampled_from(["toy-mixture", "corpus", "dataset"]) | _JSON,
    st.dictionaries(st.sampled_from(sorted({"means", *_DATA_TYPES})), _JSON, max_size=4),
)
_CONFIG_DOCS = _JSON | st.builds(
    lambda data, fields: {"data": data, **fields},
    _DATA_DOCS,
    st.dictionaries(st.sampled_from(sorted(_TOP_KEYS - {"data"})), _JSON, max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(_CONFIG_DOCS)
def test_any_json_document_parses_or_raises_config_error(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    cfg.train_config()  # an accepted config also passes the trainer's checks


class TestGenData:
    def test_writes_dataset(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config())
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        ds = load_dataset(out / "dataset.csv")
        assert len(ds) == 200 and ds.dim == 2

    def test_corpus_pipeline(self, tmp_path):
        cfg_path = corpus_config(tmp_path, claim_rows(12))
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        ds = load_dataset(out / "dataset.csv")
        assert len(ds) == 24 and ds.dim == 16  # 12 claims x 2 evidence each

    @pytest.mark.parametrize("claim", [None, 42])
    def test_nonstring_claim_exit_2(self, claim, tmp_path, capsys):
        rows = claim_rows(12)
        rows[3]["claim"] = claim  # json null / a number, not the text "None" / "42"
        out = tmp_path / "out"
        assert main(["gen-data", "--config", corpus_config(tmp_path, rows), "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr().err, "line 4: claim must be a string")
        assert not out.exists()

    @pytest.mark.parametrize("label", [True, None])
    def test_nonstring_label_exit_2(self, label, tmp_path, capsys):
        rows = claim_rows(12)
        rows[5]["label"] = label
        out = tmp_path / "out"
        assert main(["gen-data", "--config", corpus_config(tmp_path, rows), "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr().err, "line 6: label must be a string")
        assert not out.exists()


class TestTrainEval:
    def test_train_writes_checkpoint_and_telemetry(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config())
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()
        records = load_records(out / "telemetry.csv")
        assert len(records) == 10
        assert "f1=" in capsys.readouterr().out

    def test_eval_round_trip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config())
        run_dir, data_dir, eval_dir = tmp_path / "run", tmp_path / "data", tmp_path / "ev"
        assert main(["train", "--config", cfg_path, "--out", str(run_dir)]) == 0
        assert main(["gen-data", "--config", cfg_path, "--out", str(data_dir)]) == 0
        assert (
            main(
                [
                    "eval",
                    "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data_dir / "dataset.csv"),
                    "--out", str(eval_dir),
                ]
            )
            == 0
        )
        rec = load_records(eval_dir / "metrics.csv")[0]
        assert rec.f1 is not None

    def test_baseline_uses_hidden(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config(variant="baseline", hidden=8))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        layers = checkpoint_load(out / "checkpoint.json")["Gy"].layers
        assert [l.weight.shape for l in layers] == [(8, 2), (8, 8), (1, 8)]

    def test_variant_override(self, tmp_path):
        cfg_path = write_config(tmp_path, toy_config())
        out = tmp_path / "base"
        assert main(["train", "--config", cfg_path, "--out", str(out), "--variant", "baseline"]) == 0
        assert (out / "checkpoint.json").exists()

    def test_gy_loss_generator_labels_override(self, tmp_path):
        cfg_path = write_config(tmp_path, toy_config())
        out = tmp_path / "gl"
        argv = ["train", "--config", cfg_path, "--out", str(out), "--gy-loss", "generator-labels"]
        assert main(argv) == 0
        assert (out / "checkpoint.json").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config(iterationz=1))
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-config.json")
        assert main(["train", "--config", missing, "--out", str(tmp_path / "x")]) == 2
        assert_one_error_line(capsys.readouterr().err, "no-such-config.json")

    @pytest.mark.parametrize(
        "field, value",
        [("iterations", "100"), ("split", 5), ("hidden", 2.5), ("batch_size", True)],
    )
    def test_wrong_json_type_exit_2(self, field, value, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config(**{field: value}))
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
        assert_one_error_line(capsys.readouterr().err, f"{field}: must be")

    def test_tiny_dataset_exit_2(self, tmp_path, capsys):
        cfg = toy_config()
        cfg["data"]["n_per_class"] = 3  # 6 samples: 0.1 of them floors to 0
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
        assert_one_error_line(capsys.readouterr().err, "split is empty")

    def test_empty_test_split_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config(split=[0.8, 0.2, 0.0]))
        assert main(["repeat", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
        assert_one_error_line(capsys.readouterr().err, "the test split is empty")

    def test_empty_validation_split_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config(split=[0.9, 0.0, 0.1]))
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
        assert_one_error_line(capsys.readouterr().err, "validation split")

    def test_missing_dataset_path_exit_2(self, tmp_path, capsys):
        cfg = toy_config()
        cfg["data"] = {"kind": "dataset", "path": str(tmp_path / "no-such-data.csv")}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
        assert_one_error_line(capsys.readouterr().err, "no-such-data.csv")


    def test_priors_within_tolerance_train(self, tmp_path, capsys):
        # 1e-10 off a sum of 1: inside the one prior tolerance everywhere
        cfg_path = write_config(tmp_path, toy_config(priors=[0.6, 0.4000000001]))
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 0

    def test_priors_outside_tolerance_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config(priors=[0.6, 0.41]))
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
        assert_one_error_line(capsys.readouterr().err, "priors:")

    def test_eval_checkpoint_without_gy_exit_2(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        checkpoint_save({"Dp": net_init([2, 4, 1], ["relu", "sigmoid"], 0)}, ckpt)
        data_dir, out = tmp_path / "data", tmp_path / "out"
        assert main(["gen-data", "--config", write_config(tmp_path, toy_config()),
                     "--out", str(data_dir)]) == 0
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir / "dataset.csv"),
                "--out", str(out)]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr().err, "has no Gy net")
        assert not out.exists()

    @pytest.mark.parametrize(
        "version, nets, needle",
        [
            (1, [], "nets must be an object"),
            (1, None, "nets must be an object"),
            (1, {"Gy": _gy(weight=float("nan"))}, "net 'Gy': non-finite parameters"),
            (1, {"Gy": _gy(weight=float("inf"))}, "net 'Gy': non-finite parameters"),
            (1, {"Gy": _gy(outputs=2)}, "Gy must map sample_dim -> 1"),
            (True, {}, "checkpoint version true unsupported"),
            (1.0, {}, "checkpoint version 1.0 unsupported"),
            ("1", {}, 'checkpoint version "1" unsupported'),
        ],
        ids=["nets-list", "nets-null", "nan-weight", "inf-weight", "two-output-gy",
             "version-true", "version-float", "version-string"],
    )
    def test_eval_bad_checkpoint_exit_2(self, version, nets, needle, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps({"version": version, "nets": nets}))  # NaN, Infinity as JSON writes them
        data_dir, out = tmp_path / "data", tmp_path / "out"
        assert main(["gen-data", "--config", write_config(tmp_path, toy_config()),
                     "--out", str(data_dir)]) == 0
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir / "dataset.csv"),
                "--out", str(out)]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr().err, needle)
        assert not out.exists()


def _no_training(*args, **kwargs):
    raise AssertionError("a bad setting reached training")


class TestRangeChecksBeforeTraining:
    """Out-of-range settings exit 2 naming the field, before any step."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("similarity_sample_cap", 0),
            ("seed", -1),
            ("split_seed", -1),
            ("data.data_seed", -1),
        ],
    )
    def test_config_value_exit_2(self, field, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trigan, "train", _no_training)
        cfg = toy_config()
        if field.startswith("data."):
            cfg["data"][field[len("data."):]] = value
        else:
            cfg[field] = value
        out = tmp_path / "x"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr().err, f"{field}: must be")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "repeat"])
    def test_seed_override_exit_2(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trigan, "train", _no_training)
        cfg_path = write_config(tmp_path, toy_config())
        argv = [command, "--config", cfg_path, "--out", str(tmp_path / "x"), "--seed", "-1"]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr().err, "seed: must be nonnegative")

    @pytest.mark.parametrize(
        "message, needle",
        [("Unable to allocate 7.28 TiB for an array", "Unable to allocate"), ("", "MemoryError")],
    )
    def test_refused_allocation_exit_2(self, message, needle, tmp_path, capsys, monkeypatch):
        # "hidden": 1000000 makes numpy refuse a TiB-sized weight matrix; the
        # refusal is stubbed, because under memory overcommit a real request
        # could be granted and then exhaust the host
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(trigan, "build_model", refuse)
        cfg_path = write_config(tmp_path, toy_config(hidden=1000000))
        out = tmp_path / "x"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr().err, needle)
        assert not out.exists()


class TestNoEmptyOutDir:
    """A command that exits 2 before writing anything leaves no --out dir."""

    @pytest.mark.parametrize("command", ["train", "repeat", "gen-data"])
    def test_failed_command_leaves_no_out_dir(self, command, tmp_path, capsys):
        cfg = toy_config()
        if command == "gen-data":
            cfg["data"] = {"kind": "dataset", "path": str(tmp_path / "no-such-data.csv")}
        else:
            cfg["data"]["n_per_class"] = 3  # empty validation and test splits
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_failed_eval_leaves_no_out_dir(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        checkpoint_save({"Gy": net_init([3, 4, 1], ["relu", "sigmoid"], 0)}, ckpt)
        data_dir, out = tmp_path / "data", tmp_path / "out"
        assert main(["gen-data", "--config", write_config(tmp_path, toy_config()),
                     "--out", str(data_dir)]) == 0
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir / "dataset.csv"),
                "--out", str(out)]
        assert main(argv) == 2  # a 3-input net on 2-D data
        assert not out.exists()

class TestRepeat:
    def test_writes_per_run_files_and_summary(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, toy_config())
        out = tmp_path / "rep"
        assert main(["repeat", "--config", cfg_path, "--out", str(out)]) == 0
        for i in range(2):
            assert (out / f"telemetry_run{i}.csv").exists()
            assert (out / f"checkpoint_run{i}.json").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "metric,mean,std,runs"
        assert len(summary) == 4

    def test_builds_the_dataset_once_per_command(self, tmp_path, capsys, monkeypatch):
        embedded = []

        def counting_embed(*args):
            embedded.append(args)
            return embed_pairs(*args)

        monkeypatch.setattr(data, "embed_pairs", counting_embed)
        rows = claim_rows(40) + [{"claim": "c", "evidence": ["e"], "label": "NOT ENOUGH INFO"}]
        cfg_path = corpus_config(tmp_path, rows, repeats=3)
        assert main(["repeat", "--config", cfg_path, "--out", str(tmp_path / "rep")]) == 0
        assert len(embedded) == 1
        assert capsys.readouterr().out.count("corpus: skipped 1 third-label claims") == 1

    def test_each_run_matches_a_single_train(self, tmp_path, capsys):
        # the runs share one set of splits, so training must leave them as built
        cfg_path = write_config(tmp_path, toy_config(repeats=3))
        assert main(["repeat", "--config", cfg_path, "--out", str(tmp_path / "rep")]) == 0
        for i in range(3):
            out = tmp_path / f"train{i}"
            assert main(["train", "--config", cfg_path, "--out", str(out), "--seed", str(i)]) == 0
            single = (out / "checkpoint.json").read_bytes()
            assert (tmp_path / "rep" / f"checkpoint_run{i}.json").read_bytes() == single

    def test_runs_differ_by_seed(self, tmp_path):
        cfg_path = write_config(tmp_path, toy_config())
        out = tmp_path / "rep"
        main(["repeat", "--config", cfg_path, "--out", str(out)])
        a = (out / "telemetry_run0.csv").read_bytes()
        b = (out / "telemetry_run1.csv").read_bytes()
        assert a != b


class TestVerifyEquilibrium:
    def test_default_onehot_passes(self, capsys):
        assert main(["verify-equilibrium", "--grid-step", "0.1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_explicit_masses(self, capsys):
        rc = main(
            [
                "verify-equilibrium",
                "--pp", "0.75", "0.25",
                "--pn", "0.25", "0.75",
                "--grid-step", "0.05",
            ]
        )
        assert rc == 0

    def test_invalid_masses_exit_2(self, capsys):
        assert main(["verify-equilibrium", "--pp", "0.6", "0.6"]) == 2
        assert_one_error_line(capsys.readouterr().err, "--pp")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--pp", "nan", "1"], "--pp"),
            (["--pn", "0.6", "0.6"], "--pn"),
            (["--pp", "0.5", "0.5", "--pn", "0.6", "0.6"], "--pn"),
            (["--pp", "0.5", "0.5", "--pn", "0.2", "0.3", "0.5"], "--pn"),
            (["--pi-p", "1.5"], "--pi-p"),
            (["--pi-p", "nan"], "--pi-p"),
        ],
    )
    def test_bad_value_names_its_flag(self, argv, flag, capsys):
        assert main(["verify-equilibrium", "--grid-step", "0.25", *argv]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, flag)
        assert err.startswith(f"error: {flag}: ")

    def test_gap_line_prints_a_float(self, capsys):
        assert main(["verify-equilibrium"]) == 0
        out = capsys.readouterr().out
        assert "gap to 2*ln(1/2)   = 0.0 (slack 0.05)" in out.splitlines()
        assert "np.float64" not in out

    def test_support_of_five_on_a_coarse_grid_runs(self, capsys):
        assert main(["verify-equilibrium", "-k", "5", "--grid-step", "0.25"]) == 0
        assert "overall: PASS" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf", "1e-7", "5e-324"])
    def test_bad_grid_step_exit_2(self, step, capsys):
        assert main(["verify-equilibrium", f"--grid-step={step}"]) == 2
        assert_one_error_line(capsys.readouterr().err, "grid step")

    def test_large_support_refused_without_quadratic_memory(self, capsys):
        # the grid cap refuses -k 3000; the one-hot masses built before it
        # must stay O(k), not np.eye(k)'s 72 MB
        tracemalloc.start()
        try:
            assert main(["verify-equilibrium", "-k", "3000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_one_error_line(capsys.readouterr().err, "points on a support of 3000")
        assert peak < 4 * 2**20, peak

    def test_huge_support_refused_before_any_mass_vector(self, capsys, monkeypatch):
        # the grid cap must come first: masses of length -k would cost time
        # and memory linear in k before the refusal
        checked = data.is_distribution

        def bounded(values):
            assert len(values) <= MAX_GRID_POINTS, f"checked {len(values)} masses"
            return checked(values)

        monkeypatch.setattr(data, "is_distribution", bounded)
        assert main(["verify-equilibrium", "-k", "10000000"]) == 2
        assert_one_error_line(capsys.readouterr().err, "points on a support of 10000000")

    def test_huge_support_and_fine_step_refused_at_once(self, capsys):
        # the exact point count here, C(2000000, 1000000), takes tens of seconds
        argv = ["verify-equilibrium", "-k", "1000001", "--grid-step", "1e-6"]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr().err, "points on a support of 1000001")

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bad_support_size_exit_2(self, k, capsys):
        assert main(["verify-equilibrium", "-k", k]) == 2
        assert_one_error_line(capsys.readouterr().err, "--support-size")

    def test_support_size_must_match_pp_exit_2(self, capsys):
        argv = ["verify-equilibrium", "-k", "3", "--pp", "0.5", "0.5", "--grid-step", "0.25"]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr().err, "--support-size")
        # a -k equal to len(--pp) is accepted
        assert main(["verify-equilibrium", "-k", "2", "--pp", "0.75", "0.25"]) == 0

    def test_pn_without_pp_exit_2(self, capsys):
        assert main(["verify-equilibrium", "--pn", "0.3", "0.7"]) == 2
        assert_one_error_line(capsys.readouterr().err, "--pn")


class TestGradCheckCommand:
    def test_small_run_passes(self, capsys):
        assert main(["grad-check", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "overall max relative error" in out

    def test_no_instances_exit_2(self, capsys):
        assert main(["grad-check", "--instances", "0"]) == 2
        assert_one_error_line(capsys.readouterr().err, "--instances")

    def test_negative_seed_exit_2(self, capsys):
        assert main(["grad-check", "--seed", "-1", "--instances", "1"]) == 2
        assert_one_error_line(capsys.readouterr().err, "--seed")

    def test_library_entry_reports_all_rules(self):
        worst = check_all_gradients(base_seed=0, n_instances=1)
        assert len(worst) >= 10  # main model + variant rules
        assert np.max(list(worst.values())) <= 1e-4  # NaN-propagating

    def test_nan_gradient_fails(self, monkeypatch, capsys):
        real = trigan.d_p_step_grads

        def nan_grads(*args):
            grads, value = real(*args)
            return grads * np.nan, value

        monkeypatch.setattr(trigan, "d_p_step_grads", nan_grads)
        assert np.isnan(check_all_gradients(base_seed=0, n_instances=1)["d_p"])
        assert main(["grad-check", "--instances", "1"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^d_p +max rel err nan  FAIL$", out, re.M)
        assert "overall max relative error: nan" in out
