"""What the benchmark in perfbench/ relies on, checked on every tier-1 run.

perfbench/ is read here, never edited. Its tracer wraps package functions
by module attribute, and its output checks pin the work a training step
does (forward passes per step in perfbench/run.py). A change that renames
a traced function or changes the work per step fails here first, and so
does a change to the API the benchmark builds its inputs with: each
workload's set-up is run here as the benchmark child runs it.

The counts below are the work of one training step at the time they were
recorded. The proposed step's forwards must equal the benchmark's own
FORWARDS_PER_STEP; dropping g_y's forwards or reusing generator outputs
changes both in one commit. A rule that returns no gradient takes no
optimizer step, so the variants' counts may change without a benchmark
change.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import claimgan.cli  # noqa: F401 - loads every module the tracer patches
from claimgan import metrics, trigan
from claimgan.data import gaussian_mixture
from claimgan.nets import forward, make_optimizer, net_init
from claimgan.variants import STEP_FUNCTIONS

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name: str):
    """perfbench/<name>.py, loaded as a module without touching sys.path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_module(monkeypatch):
    """perfbench/run.py, which imports perfbench/inputs.py by name."""
    monkeypatch.setitem(sys.modules, "inputs", _perfbench("inputs"))
    return _perfbench("run")


def _traced():
    return _perfbench("spans").TRACED


def test_every_traced_function_exists():
    for module, name in _traced():
        fn = getattr(sys.modules[f"claimgan.{module}"], name, None)
        assert callable(fn), f"claimgan.{module}.{name}"
    assert callable(trigan.proposed_step)


def test_tracer_times_the_nearest_neighbour_class(monkeypatch):
    """spans.py binds metrics.cKDTree outside TRACED: it wraps the class as
    the construction span and its unbound `query` as the query span, on
    both sides of metrics.KD_TREE_MAX_DIM."""
    assert isinstance(metrics.cKDTree, type) and callable(metrics.cKDTree.query)
    rng = np.random.default_rng(0)
    cases = [(rng.standard_normal((80, dim)), rng.standard_normal((40, dim))) for dim in (2, 64)]
    untraced = [metrics.similarity_report(real, gen) for real, gen in cases]
    # install() rebinds module attributes; re-set them here so that
    # monkeypatch restores every one after the test
    names = {name for _, name in _traced()} | {"cKDTree"}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("claimgan"):
            for name in names & set(vars(mod)):
                monkeypatch.setattr(mod, name, getattr(mod, name))
    spans = _perfbench("spans")
    tracer = spans.Tracer()
    tracer.install()
    assert [metrics.similarity_report(real, gen) for real, gen in cases] == untraced
    summary = tracer.summary()
    assert summary[spans.KDTREE_SPAN]["calls"] == summary[spans.KDTREE_QUERY_SPAN]["calls"] == 2


def test_backward_work_reads_the_batch_from_the_cache():
    """spans.py counts backward work as 4 * len(cache[0][0]) * weights, so
    the cache's first entry must start with the input batch; a layout that
    moved it would silently zero or rescale nets.matmul_flops_per_step."""
    net = net_init([3, 5, 4, 1], ["relu", "tanh", "sigmoid"], 0)
    x = np.random.default_rng(0).standard_normal((7, 3))
    out, cache = forward(net, x)
    assert cache[0][0] is x
    weights = 3 * 5 + 5 * 4 + 4 * 1
    assert _perfbench("spans")._backward_work(net, cache, np.ones_like(out)) == 4 * 7 * weights


# (variant, g_y mode) -> forward, backward, optimizer_step calls in one step
WORK_PER_STEP = {
    ("proposed", "alg1-line14"): (21, 13, 5),
    ("proposed", "eq4"): (23, 15, 6),
    ("proposed", "generator-labels"): (21, 15, 6),
    ("inverted", "alg1-line14"): (15, 5, 2),
    ("symmetric", "alg1-line14"): (17, 7, 3),
    ("symmetric-intended", "alg1-line14"): (19, 11, 5),
}


def test_proposed_forwards_per_step_match_the_benchmark(monkeypatch):
    """run.py checks FORWARDS_PER_STEP[mode] forwards per training step for
    the g_y modes its workloads run; the proposed rows above must agree."""
    per_step = _run_module(monkeypatch).FORWARDS_PER_STEP
    assert per_step and set(per_step) <= set(trigan.G_Y_LOSS_MODES)
    for mode, forwards in per_step.items():
        assert WORK_PER_STEP["proposed", mode][0] == forwards, mode


def _count_calls(monkeypatch, targets, results=None) -> dict:
    """Rebind every package binding of each (module, name) target to a
    counting wrapper, as the tracer does; returns the live counts. Given a
    dict `results`, also lists each target's return values under its name."""
    counts = {}
    modules = [m for n, m in sys.modules.items() if n.startswith("claimgan")]
    for module, name in targets:
        orig = getattr(sys.modules[f"claimgan.{module}"], name)
        counts[name] = 0
        if results is not None:
            results[name] = []

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            result = _orig(*args, **kwargs)
            if results is not None:
                results[_name].append(result)
            return result

        for mod in modules:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_an_evaluating_iteration_adds_the_benchmarks_forwards_per_eval(monkeypatch):
    """run.py expects FORWARDS_PER_EVAL more nets.forward calls inside
    trigan.train for each evaluating iteration: classify_batch on the
    validation split and g_p on the similarity noise."""
    per_eval = _run_module(monkeypatch).FORWARDS_PER_EVAL
    ds = gaussian_mixture(40, 3, [[-1.0] * 3, [1.0] * 3], 1.0, 0)
    model = trigan.build_model(3, 2, 0.5, 0.5, seed=0, hidden=8)
    counts = _count_calls(monkeypatch, [("nets", "forward")])
    calls = []
    for every in (0, 1):
        counts["forward"] = 0
        cfg = trigan.TrainConfig(iterations=1, batch_size=4, eval_every=every)
        trigan.train(model, ds, cfg, val_data=ds)
        calls.append(counts["forward"])
    assert calls[1] - calls[0] == per_eval


@pytest.mark.parametrize("variant, mode", sorted(WORK_PER_STEP))
def test_work_per_step(variant, mode, monkeypatch):
    work = ("forward", "backward", "optimizer_step")
    rules = [t for t in _traced() if t[1].endswith("_grads")]
    results = {}
    counts = _count_calls(monkeypatch, [("nets", n) for n in work] + rules, results)

    model = trigan.build_model(2, 3, 0.6, 0.4, seed=0, hidden=8)
    opts = {name: make_optimizer(net) for name, net in model.nets().items()}
    cfg = trigan.TrainConfig(iterations=1, g_y_loss_mode=mode)
    rng = np.random.default_rng(0)
    x_p, x_n, x = (rng.standard_normal((4, 2)) for _ in range(3))
    z, z2 = (rng.standard_normal((4, 3)) for _ in range(2))
    STEP_FUNCTIONS[variant](model, opts, cfg, x_p, x_n, x, z, z2)
    assert tuple(counts[n] for n in work) == WORK_PER_STEP[variant, mode]
    # optimizer steps are exactly the rule calls that returned a gradient
    # (a rebound rule, so none bypasses the tracer)
    with_grads = sum(grads is not None for _, name in rules for grads, _ in results[name])
    assert with_grads == counts["optimizer_step"]


@pytest.mark.parametrize("workload", ["toy-train", "corpus-oracle"])
def test_bench_setup_builds_a_trainable_model(workload, tmp_path, monkeypatch):
    """Each workload's set-up, run as the benchmark child runs it, builds a
    model and TrainConfig that one proposed_step accepts."""
    child, inputs = _perfbench("child"), _perfbench("inputs")
    with open(inputs.write_inputs(workload, 0, str(tmp_path))) as f:
        inp = json.load(f)
    monkeypatch.setattr(sys, "path", list(sys.path))  # _Package prepends src/
    state = child.WORKLOADS[workload][0](inp, child._Package(str(ROOT / "src")))
    model, cfg, data = state["model"], state["tcfg"], state["train_ds"]
    opts = {
        name: make_optimizer(net, cfg.optimizer, cfg.lr_for(name))
        for name, net in model.nets().items()
    }
    rng = np.random.default_rng(0)
    classes = (data.features[data.labels == 1], data.features[data.labels == 0])
    x_p, x_n, x = (a[rng.integers(0, a.shape[0], cfg.batch_size)]
                   for a in (*classes, data.features))
    z, z2 = (rng.standard_normal((cfg.batch_size, model.noise_dim)) for _ in range(2))
    losses = trigan.proposed_step(model, opts, cfg, x_p, x_n, x, z, z2)
    assert np.isfinite(list(losses.values())).all()
