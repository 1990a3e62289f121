"""One repetition of one workload, in a fresh process.

Run by run.py, never imported. The clock starts before numpy or claimgan
is imported, so set-up time covers the package import plus the input
build (data, split and model calls before the first step or check). Run
time covers everything after that up to the last output written. With
--setup-only the child stops after set-up.

claimgan is imported from the checkout's own src/ directory; the child
refuses to run on any other copy. With --trace 1 the package's public
functions are wrapped (see spans.py) before the inputs are built.

The result, including the outcome of every output check, is written as
JSON to --out.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

GRAD_CHECK_TOLERANCE = 1e-4
GRAD_CHECK_RULES = 16
_RULE_LINE = re.compile(r"^(\S+)\s+max rel err (\S+)\s+(ok|FAIL)$")


class Checks:
    """Named pass/fail output checks, in the order they were made."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _check_telemetry(path: str, iterations: int, checks: Checks) -> None:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    checks.add("telemetry has one row per iteration", len(rows) == iterations,
               f"{len(rows)} rows")
    bad = [r["iter"] for r in rows
           if not all(r[c] and math.isfinite(float(r[c]))
                      for c in ("loss_pos", "loss_neg", "loss_label"))]
    checks.add("every telemetry loss is finite", not bad,
               f"non-finite at iterations {bad[:5]}" if bad else "")


def _train(pkg, state, tracer) -> dict:
    """trigan.train with a step_fn that times every step from outside."""
    trigan = pkg.trigan
    samples = array("q")
    clock = time.perf_counter_ns
    step = trigan.proposed_step
    if tracer:
        step = tracer.wrap("trigan.step", step)

    def timed_step(*args):
        t0 = clock()
        out = step(*args)
        samples.append(clock() - t0)
        return out

    t0 = time.perf_counter()
    model, telemetry = trigan.train(state["model"], state["train_ds"], state["tcfg"],
                                    val_data=state["val_ds"], run_id=0, step_fn=timed_step)
    return {"model": model, "telemetry": telemetry, "train_s": time.perf_counter() - t0,
            "step_ns": samples.tolist(), "iterations": state["tcfg"].iterations}


def setup_toy_train(inp, pkg) -> dict:
    data, trigan = pkg.data, pkg.trigan
    ds = data.gaussian_mixture(inp["n_per_class"], inp["dim"], inp["means"],
                               inp["cov_scale"], inp["data_seed"])
    train_ds, val_ds, _ = data.split(ds, inp["split"], inp["split_seed"])
    pi_p, pi_n = data.class_priors(train_ds)
    model = trigan.build_model(train_ds.dim, inp["noise_dim"], pi_p, pi_n,
                               inp["model_seed"], hidden=inp["hidden"])
    tcfg = trigan.TrainConfig(iterations=inp["iterations"], batch_size=inp["batch_size"],
                              seed=inp["train_seed"], g_y_loss_mode=inp["g_y_loss_mode"],
                              eval_every=0)
    return {"model": model, "train_ds": train_ds, "val_ds": val_ds, "tcfg": tcfg}


def run_toy_train(inp, pkg, state, tracer, workdir, checks) -> dict:
    out = _train(pkg, state, tracer)
    del out["model"]
    tel_path = os.path.join(workdir, "telemetry.csv")
    pkg.metrics.emit(out.pop("telemetry"), tel_path)
    out["run_end"] = time.perf_counter()

    _check_telemetry(tel_path, out["iterations"], checks)
    out.update(telemetry_sha256=_sha256(tel_path), emit_bytes=os.path.getsize(tel_path))
    return out


def setup_corpus_oracle(inp, pkg) -> dict:
    data, trigan = pkg.data, pkg.trigan
    cfg = pkg.config.load_config(inp["config_path"])
    loaded = data.load_claims(cfg.data.path)
    pairs = data.make_pairs(loaded.records)
    ds = data.embed_pairs(pairs, cfg.data.embed_dim, cfg.data.embed_seed)
    train_ds, val_ds, test_ds = data.split(ds, cfg.split, cfg.split_seed)
    pi_p, pi_n = cfg.priors or data.class_priors(train_ds)
    model = trigan.build_model(train_ds.dim, cfg.noise_dim, pi_p, pi_n, cfg.seed,
                               hidden=cfg.hidden)
    return {"model": model, "train_ds": train_ds, "val_ds": val_ds, "test_ds": test_ds,
            "tcfg": cfg.train_config(), "loaded": loaded, "pairs": len(pairs)}


def run_corpus_oracle(inp, pkg, state, tracer, workdir, checks) -> dict:
    metrics, nets = pkg.metrics, pkg.nets
    out = _train(pkg, state, tracer)
    model, test_ds = out.pop("model"), state["test_ds"]
    _, preds = pkg.trigan.classify_batch(model, test_ds.features)
    precision, recall, f1, _ = metrics.precision_recall_f1(preds, test_ds.labels)
    ckpt_path = os.path.join(workdir, "checkpoint.json")
    nets.checkpoint_save({pkg.cli.CHECKPOINT_NAMES[k]: v for k, v in model.nets().items()},
                         ckpt_path)
    tel_path = os.path.join(workdir, "telemetry.csv")
    metrics.emit(out.pop("telemetry"), tel_path)
    out.update(_run_oracle(inp["oracle"], pkg.cli, checks))
    out["run_end"] = time.perf_counter()

    loaded, planted = state["loaded"], inp["planted"]
    checks.add("skipped third-label claims match planted count",
               loaded.skipped_other_label == planted["skipped_other_label"],
               f"{loaded.skipped_other_label} vs {planted['skipped_other_label']}")
    checks.add("rejected evidence-free claims match planted count",
               loaded.rejected_empty_evidence == planted["rejected_empty_evidence"],
               f"{loaded.rejected_empty_evidence} vs {planted['rejected_empty_evidence']}")
    checks.add("pair count matches generated evidence", state["pairs"] == planted["pairs"],
               f"{state['pairs']} vs {planted['pairs']}")
    checks.add("test precision/recall/F1 are finite",
               all(math.isfinite(v) for v in (precision, recall, f1)),
               f"p={precision} r={recall} f1={f1}")
    checks.add("checkpoint loads back with six nets",
               len(nets.checkpoint_load(ckpt_path)) == 6)
    _check_telemetry(tel_path, out["iterations"], checks)
    out.update(telemetry_sha256=_sha256(tel_path), emit_bytes=os.path.getsize(tel_path),
               pairs=state["pairs"])
    return out


def _cli(cli, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _run_oracle(inp, cli, checks) -> dict:
    """The CLI's grad check, then verify-equilibrium at k=2 and k=3; the
    output checks are made after the timed part."""
    t0 = time.perf_counter()
    grad_code, grad_text = _cli(
        cli, ["grad-check", "--instances", str(inp["grad_check_instances"])])
    t1 = time.perf_counter()
    verify_out = []
    for v in inp["verify"]:
        argv = ["verify-equilibrium", "-k", str(v["k"]), "--grid-step", str(inp["grid_step"]),
                "--pi-p", str(v["pi_p"]), "--pp", *map(str, v["pp"]),
                "--pn", *map(str, v["pn"])]
        verify_out.append((v["k"], *_cli(cli, argv)))
    out = {"gradcheck_s": t1 - t0, "verify_s": time.perf_counter() - t1,
           "grid_pairs": inp["grid_pairs"]}

    errs = [float(m.group(2)) for m in map(_RULE_LINE.match, grad_text.splitlines()) if m]
    worst = max(errs, default=math.inf)
    checks.add("grad-check: exit 0, every rule <= 1e-4",
               grad_code == 0 and len(errs) == GRAD_CHECK_RULES
               and worst <= GRAD_CHECK_TOLERANCE,
               f"exit {grad_code}, {len(errs)} rules, worst {worst:.3e}")
    for k, code, text in verify_out:
        checks.add(f"verify-equilibrium k={k}: overall PASS",
                   code == 0 and "overall: PASS" in text.splitlines(), f"exit {code}")
    return out


WORKLOADS = {
    "toy-train": (setup_toy_train, run_toy_train),
    "corpus-oracle": (setup_corpus_oracle, run_corpus_oracle),
}


def _blas_info() -> dict:
    """OpenBLAS version and the thread count it runs with, asked of the
    library numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads and get_config:
                    get_config.restype = ctypes.c_char_p
                    return {"blas_threads": int(get_threads()),
                            "blas_version": get_config().decode()}
    return {"blas_threads": None, "blas_version": None}


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    env.update(_blas_info())
    return env


class _Package:
    """The claimgan modules a workload uses, imported from one src dir."""

    def __init__(self, src: str):
        if not os.path.isfile(os.path.join(src, "claimgan", "__init__.py")):
            raise SystemExit(f"error: no claimgan package under {src}")
        sys.path.insert(0, src)
        import claimgan
        from claimgan import cli, config, data, metrics, nets, trigan

        if os.path.dirname(os.path.abspath(claimgan.__file__)) != os.path.join(src, "claimgan"):
            raise SystemExit(f"error: claimgan imported from {claimgan.__file__}, not {src}")
        self.cli, self.config, self.data = cli, config, data
        self.metrics, self.nets, self.trigan = metrics, nets, trigan


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the input build and report set-up time")
    args = parser.parse_args()
    with open(args.inputs) as f:
        inp = json.load(f)

    pkg = _Package(os.path.abspath(args.src))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup, run = WORKLOADS[inp["workload"]]
    state = setup(inp, pkg)
    setup_end = time.perf_counter()
    result = {"setup_s": setup_end - T_START}
    if not args.setup_only:
        checks = Checks()
        result.update(run(inp, pkg, state, tracer, args.workdir, checks))
        result.update(
            run_s=result.pop("run_end") - setup_end,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            checks=checks.items,
            env=_environment(),
        )
        if tracer:
            result["spans"] = tracer.summary()
            if args.trace_file:
                tracer.save(args.trace_file)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
