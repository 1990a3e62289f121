"""claimgan benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 50 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
--seed (inputs.py) into a scratch directory under .bench_build/, then the
workload is repeated, each repetition in a fresh single-process child
(child.py) with BLAS pinned to one thread, until the next repetition would
overrun --seconds (at least two repetitions are always made).

With --trace 0 the end-to-end metrics are reported (see END_TO_END);
SETUP_ONLY_CHILDREN extra children that stop after set-up come first, so
set-up time is measured over many fresh processes. With --trace 1
untraced and traced repetitions alternate; the per-layer metrics come from
the traced ones (spans.py) and trace.overhead_s is the traced minus the
untraced median run_s.

Every repetition's outputs are checked; the last stdout line is the JSON
result. The exit code is 0 only when every check passed. Without the
checkout's src/claimgan the benchmark exits 2 before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("toy-train", "corpus-oracle")
MIN_REPS = 2
SETUP_ONLY_CHILDREN = 12
CHILD_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# proposed_step forwards per iteration: d_p 3, d_n 3, d_y 5, g_p 3, g_n 3 and
# g_y 4 under alg1-line14 or 6 under eq4; every eval adds classify_batch on
# the validation split and g_p on the similarity noise.
FORWARDS_PER_STEP = {"alg1-line14": 21, "eq4": 23}
FORWARDS_PER_EVAL = 2

# The host's co-tenants slow every instruction stream by about 1.6x in
# bursts of 0.3-3 s, so per-step latency is bimodal and the share of slow
# steps in a run drifts from run to run. Totals and medians (run_s, work
# per second, step p50) follow that share and spread by 10-30% across runs;
# a low and a high quantile of the per-step latency each sit inside one
# mode and track the code's own cost. Those are the gated metrics; the
# totals are printed beside them (see _print_report). Set-up time is short
# enough to land wholly in one mode, so its median moves with the share of
# slow periods too (0.33 s vs 0.41 s over two sets of ten toy-train runs);
# its 10th percentile over a run's fresh children tracks the fast mode.
END_TO_END = (
    ("setup_s", "s"),
    ("step_ms_p5", "ms"),
    ("step_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)

VARIANT_RULES = ("inverted_d_n", "inverted_g_p", "inverted_g_n", "symmetric_d_p",
                 "symmetric_g_p", "symmetric_d_n", "symmetric_g_n")
TRIGAN_RULES = ("d_p", "d_n", "d_y", "g_p", "g_n", "g_y")

# (metric, unit, span, field): field is calls, self_s or total_s of the span
SPAN_METRICS = (
    [("nets.forward.calls", "count", "nets.forward", "calls"),
     ("nets.forward.self_s", "s", "nets.forward", "self_s"),
     ("nets.backward.calls", "count", "nets.backward", "calls"),
     ("nets.backward.self_s", "s", "nets.backward", "self_s"),
     ("nets.optimizer_step.calls", "count", "nets.optimizer_step", "calls"),
     ("nets.optimizer_step.self_s", "s", "nets.optimizer_step", "self_s"),
     ("nets.numeric_gradients.calls", "count", "nets.numeric_gradients", "calls"),
     ("nets.numeric_gradients.self_s", "s", "nets.numeric_gradients", "self_s"),
     ("nets.checkpoint_save.s", "s", "nets.checkpoint_save", "total_s")]
    + [(f"trigan.{r}_step_grads.self_s", "s", f"trigan.{r}_step_grads", "self_s")
       for r in TRIGAN_RULES]
    + [("trigan.step.self_s", "s", "trigan.step", "self_s"),
       ("trigan.train.self_s", "s", "trigan.train", "self_s"),
       ("trigan.classify_batch.s", "s", "trigan.classify_batch", "total_s"),
       ("metrics.similarity_report.calls", "count", "metrics.similarity_report", "calls"),
       ("metrics.similarity_report.self_s", "s", "metrics.similarity_report", "self_s"),
       ("metrics.cKDTree.calls", "count", "metrics.cKDTree", "calls"),
       ("metrics.cKDTree.s", "s", "metrics.cKDTree", "total_s"),
       ("metrics.cKDTree.query_s", "s", "metrics.cKDTree.query", "total_s"),
       ("metrics.emit.s", "s", "metrics.emit", "total_s"),
       ("data.load_claims.s", "s", "data.load_claims", "total_s"),
       ("data.make_pairs.s", "s", "data.make_pairs", "total_s"),
       ("data.embed_pairs.s", "s", "data.embed_pairs", "total_s"),
       ("data.split.s", "s", "data.split", "total_s"),
       ("config.load_config.s", "s", "config.load_config", "total_s"),
       ("equilibrium.v_star.calls", "count", "equilibrium.v_star", "calls"),
       ("equilibrium.v_star.self_s", "s", "equilibrium.v_star", "self_s"),
       ("equilibrium.verify_equilibrium.self_s", "s", "equilibrium.verify_equilibrium",
        "self_s"),
       ("equilibrium.simplex_grid.s", "s", "equilibrium.simplex_grid", "total_s"),
       ("gradcheck.check_all_gradients.self_s", "s", "gradcheck.check_all_gradients",
        "self_s")]
    + [m for r in VARIANT_RULES
       for m in ((f"variants.{r}_grads.calls", "count", f"variants.{r}_grads", "calls"),
                 (f"variants.{r}_grads.self_s", "s", f"variants.{r}_grads", "self_s"))]
    + [("cli.main.self_s", "s", "cli.main", "self_s")]
)

# per-layer metrics that are not one field of one span
DERIVED_METRICS = (
    ("trigan.train.forward_calls", "count"),
    ("nets.matmul_flops_per_step", "flop"),
    ("nets.optimizer_bytes_per_step", "B"),
    ("data.embed_pairs.rows", "count"),
    ("metrics.emit.bytes", "B"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_step_ms_p5", "ms"),
)

PER_LAYER = tuple((m, u) for m, u, _, _ in SPAN_METRICS) + DERIVED_METRICS


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_ENV)
    return env


def run_child(workload: str, inputs_path: str, workdir: str, rep: str, trace: int,
              setup_only: bool = False) -> dict:
    rep_dir = os.path.join(workdir, rep)
    os.makedirs(rep_dir)
    out = os.path.join(rep_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--inputs", inputs_path, "--workdir", rep_dir, "--out", out,
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace-file", os.path.join(BUILD_DIR, f"trace-{workload}.npz")]
    log_path = os.path.join(rep_dir, "child.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=rep_dir,
                                  env=_child_env(), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"repetition {rep} exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-2000:]
        raise ChildFailed(f"repetition {rep} exited {proc.returncode}:\n{tail}")
    with open(out) as f:
        result = json.load(f)
    result["trace"] = trace
    return result


def run_reps(workload: str, inputs_path: str, workdir: str, seconds: float,
             trace: int) -> tuple[list[float], list[dict]]:
    """(set-up-only times, repetitions). Repeats until the next repetition
    would overrun `seconds`. With tracing on, untraced and traced
    repetitions alternate and no set-up-only children run."""
    start = time.perf_counter()
    setups = [] if trace else [
        run_child(workload, inputs_path, workdir, f"setup{i}", 0, setup_only=True)["setup_s"]
        for i in range(SETUP_ONLY_CHILDREN)]
    reps: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        mode = len(reps) % 2 if trace else 0
        reps.append(run_child(workload, inputs_path, workdir, f"rep{len(reps)}", mode))
        longest = max(longest, time.perf_counter() - t0)
        if len(reps) >= MIN_REPS and time.perf_counter() - start + longest > seconds:
            return setups, reps


def _percentile(samples, pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[pct - 1]


def end_to_end(workload: str, setups: list[float], reps: list[dict]) -> dict:
    """Metric -> (value, samples) over the untraced repetitions, for the
    gated END_TO_END metrics and the totals printed beside them. A step is
    one training iteration: one step_fn call, eval excluded."""
    plain = [r for r in reps if not r["trace"]]
    setup = setups + [r["setup_s"] for r in plain]
    steps_ms = [ns / 1e6 for r in plain for ns in r["step_ns"]]
    n = len(plain)
    out = {
        "setup_s": (_percentile(setup, 10), len(setup)),
        "step_ms_p5": (_percentile(steps_ms, 5), len(steps_ms)),
        "step_ms_p95": (_percentile(steps_ms, 95), len(steps_ms)),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in plain]), n),
        "run_s": (statistics.median([r["run_s"] for r in plain]), n),
        "step_ms_p50": (_percentile(steps_ms, 50), len(steps_ms)),
        "step_ms_p99": (_percentile(steps_ms, 99), len(steps_ms)),
        "train_steps_per_s": (statistics.median([r["iterations"] / r["train_s"] for r in plain]), n),
    }
    if workload == "corpus-oracle":
        out["gradcheck_s"] = (statistics.median([r["gradcheck_s"] for r in plain]), n)
        out["equilibrium_pairs_per_s"] = (
            statistics.median([r["grid_pairs"] / r["verify_s"] for r in plain]), n)
    return out


def _span_field(rep: dict, span: str, field: str):
    entry = rep["spans"].get(span)
    return entry[field] if entry else 0


def per_layer(reps: list[dict]) -> dict:
    """Metric -> value over the traced repetitions (medians for times)."""
    traced = [r for r in reps if r["trace"]]
    plain = [r for r in reps if not r["trace"]]
    out = {}
    for metric, unit, span, field in SPAN_METRICS:
        values = [_span_field(r, span, field) for r in traced]
        out[metric] = values[0] if unit == "count" else statistics.median(values)
    first = traced[0]
    iterations = first.get("iterations", 0)

    def per_step(total):
        return total / iterations if iterations else 0

    out["trigan.train.forward_calls"] = _span_field(first, "nets.forward", "calls_in_train")
    out["nets.matmul_flops_per_step"] = per_step(
        _span_field(first, "nets.forward", "work_in_step")
        + _span_field(first, "nets.backward", "work_in_step"))
    out["nets.optimizer_bytes_per_step"] = per_step(
        _span_field(first, "nets.optimizer_step", "work_in_step"))
    out["data.embed_pairs.rows"] = first.get("pairs", 0)
    out["metrics.emit.bytes"] = first.get("emit_bytes", 0)
    out["trace.overhead_s"] = (statistics.median([r["run_s"] for r in traced])
                               - statistics.median([r["run_s"] for r in plain]))
    # run_s differences are dominated by host contention on this box; the
    # low step quantile isolates the per-step cost of the wrappers
    out["trace.overhead_step_ms_p5"] = (
        _percentile([ns / 1e6 for r in traced for ns in r["step_ns"]], 5)
        - _percentile([ns / 1e6 for r in plain for ns in r["step_ns"]], 5))
    return out


def _counts(rep: dict) -> dict:
    return {name: (e["calls"], e["calls_in_train"], e["work_in_step"])
            for name, e in rep["spans"].items()}


def run_checks(workload: str, seed: int, inp: dict, reps: list[dict]) -> list[dict]:
    """Every child check plus the checks that compare repetitions."""
    checks = [dict(c, name=f"rep {i}: {c['name']}") for i, r in enumerate(reps)
              for c in r["checks"]]

    def add(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    digests = [r["telemetry_sha256"] for r in reps]
    for i, d in enumerate(digests[1:], start=1):
        kind = "traced" if reps[i]["trace"] else "untraced"
        add(f"rep {i} ({kind}): telemetry bytes equal rep 0's", d == digests[0],
            f"{d[:12]} vs {digests[0][:12]}")
    with open(DIGESTS) as f:
        recorded = json.load(f).get(workload, {}).get(str(seed))
    if recorded is not None:
        add(f"telemetry sha256 equals the recorded digest for seed {seed}",
            digests[0] == recorded, f"{digests[0][:12]} vs {recorded[:12]}")

    traced = [r for r in reps if r["trace"]]
    for i, r in enumerate(traced[1:], start=1):
        add(f"traced rep {i}: call counts and computed work equal traced rep 0's",
            _counts(r) == _counts(traced[0]))
    if traced:
        spans = traced[0]["spans"]
        if workload == "toy-train":
            cfg = inp
        else:
            with open(inp["config_path"]) as f:
                cfg = json.load(f)
        iters, every = cfg["iterations"], cfg.get("eval_every", 0)
        evals = iters // every if every else 0
        expected = FORWARDS_PER_STEP[cfg["g_y_loss_mode"]] * iters + FORWARDS_PER_EVAL * evals
        got = spans["nets.forward"]["calls_in_train"]
        add("nets.forward calls inside trigan.train", got == expected, f"{got} vs {expected}")
        if workload == "corpus-oracle":
            got = spans["equilibrium.v_star"]["calls"]
            expected = inp["oracle"]["grid_pairs"]
            add("equilibrium.v_star calls", got == expected, f"{got} vs {expected}")
    return checks


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


UNITS = dict(END_TO_END, run_s="s", step_ms_p50="ms", step_ms_p99="ms",
             train_steps_per_s="1/s", equilibrium_pairs_per_s="1/s", gradcheck_s="s",
             failed_frac="1")


def _print_report(workload, seed, reps, elapsed, e2e, layer, checks):
    n_plain = sum(1 for r in reps if not r["trace"])
    print(f"workload {workload}, seed {seed}: {len(reps)} repetitions "
          f"({len(reps) - n_plain} traced) in {elapsed:.1f} s")
    failed = sum(1 for c in checks if not c["ok"])
    rows = dict(e2e, failed_frac=(failed / len(checks), len(checks)))
    print(f"{'metric':24s} {'value':>14s}  {'unit':5s} samples")
    for name, (value, n) in rows.items():
        gated = "" if name in dict(END_TO_END) else "  (printed, not gated)"
        print(f"{name:24s} {value:14.6g}  {UNITS[name]:5s} {n}{gated}")
    if layer:
        width = max(len(m) for m, _ in PER_LAYER)
        for name, unit in PER_LAYER:
            print(f"{name:{width}s} {layer[name]:16.6g}  {unit}")
    print(f"checks: {len(checks)} attempted, {failed} failed")
    for c in checks:
        if not c["ok"]:
            print(f"FAILED CHECK: {c['name']} ({c['detail']})")
    if "telemetry_sha256" in reps[0]:
        print(f"telemetry sha256: {reps[0]['telemetry_sha256']}")
    env = dict(reps[0]["env"], nproc=os.cpu_count(), cpu_model=_cpu_model())
    print("env: " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "claimgan", "__init__.py")):
        print(f"error: {SRC}/claimgan not found; run from a claimgan checkout",
              file=sys.stderr)
        return 2
    os.makedirs(BUILD_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD_DIR)
    try:
        inputs_path = inputs.write_inputs(args.workload, args.seed, workdir)
        with open(inputs_path) as f:
            inp = json.load(f)
        t0 = time.perf_counter()
        try:
            setups, reps = run_reps(args.workload, inputs_path, workdir, args.seconds,
                                    args.trace)
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - t0
        checks = run_checks(args.workload, args.seed, inp, reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(args.workload, setups, reps)
    layer = per_layer(reps) if args.trace else None
    _print_report(args.workload, args.seed, reps, elapsed, e2e, layer, checks)
    failed = sum(1 for c in checks if not c["ok"])
    if args.trace:
        units = dict(PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
