"""Process footprint: importing the package, and nearest pairing of 64-D
data, load no scipy, and training steps do not page-fault their
temporaries back in from the OS, each measured in a fresh interpreter; the
corpus embedding, a generator's forward pass, the similarity report and an
evaluating training step allocate little beyond their inputs and outputs."""

import json
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import claimgan
from claimgan import data, metrics, trigan
from claimgan.nets import forward

SRC = os.path.dirname(os.path.dirname(os.path.abspath(claimgan.__file__)))


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _traced_peak(fn):
    """(fn(), the peak bytes Python allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_importing_every_module_loads_no_scipy():
    out = _run("import sys, claimgan.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"


NEAREST_PAIRING_64D = """
import sys
import numpy as np
from claimgan import metrics

rng = np.random.default_rng(0)
real, gen = rng.standard_normal((500, 64)), rng.standard_normal((300, 64))
metrics.similarity_report(real, gen, pairing="nearest")
print('scipy' in sys.modules)
"""


def test_high_dimensional_nearest_pairing_loads_no_scipy():
    # the exact scan answers above metrics.KD_TREE_MAX_DIM; importing
    # scipy.spatial would cost about 30 MB resident in every 64-D eval
    assert _run(NEAREST_PAIRING_64D).strip() == "False"


FAULTS_PER_STEP = """
import json, resource, sys
from claimgan import data, trigan

ds = data.gaussian_mixture(500, 2, [[-2.0, -2.0], [2.0, 2.0]], 1.0, 0)
pi_p, pi_n = data.class_priors(ds)
model = trigan.build_model(2, 8, pi_p, pi_n, 0, hidden=64)
cfg = trigan.TrainConfig(iterations=300, batch_size=64, seed=1, eval_every=0)
faults = []

def step(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = trigan.proposed_step(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out

trigan.train(model, ds, cfg, step_fn=step)
print(json.dumps({"scipy": "scipy" in sys.modules, "faults": faults}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_training_steps_do_not_page_fault():
    # At glibc's default trim threshold every toy step faults about 360
    # pages back in; scipy's import used to hide that by raising it.
    result = json.loads(_run(FAULTS_PER_STEP))
    assert not result["scipy"]
    steady = result["faults"][100:300]  # steps 101-300
    assert sum(steady) / len(steady) < 5, steady


def test_corpus_embedding_peaks_below_twice_its_output():
    # 5000 claim/evidence pairs of 10-24 tokens at dim 64, the benchmark
    # corpus's shape; keeping every token string, or a count matrix beside
    # the float output, would go past 2x
    rng = random.Random(0)
    words = [f"Word{i}" for i in range(400)]
    pairs = [
        (" ".join(rng.choice(words) for _ in range(rng.randrange(10, 25))) + ".", i % 2)
        for i in range(5000)
    ]
    ds, peak = _traced_peak(lambda: data.embed_pairs(pairs, 64, 0))
    assert peak <= 2 * ds.features.nbytes, peak / ds.features.nbytes


# the benchmark corpus's shapes: 64-D samples, noise 8, hidden 64, and an
# eval that generates one sample per real positive (about 3000)
CORPUS_MODEL = dict(sample_dim=64, noise_dim=8, pi_p=0.5, pi_n=0.5, seed=0, hidden=64)


def test_generator_forward_peaks_below_three_and_a_half_outputs():
    # the output and the two hidden layers' outputs, one 3000 x 64 array
    # each; caching pre-activations beside them, or activating into new
    # arrays, would go to about 6x
    g_p = trigan.build_model(**CORPUS_MODEL).g_p
    z = np.random.default_rng(0).standard_normal((3000, 8))
    (out, _), peak = _traced_peak(lambda: forward(g_p, z))
    assert peak <= 3.5 * out.nbytes, peak / out.nbytes


def test_cache_free_generator_forward_peaks_below_two_and_a_half_outputs():
    # a layer's input and its output, each freed once the next layer's
    # output exists; keeping every layer's output, as the cache does, would
    # go to about 3x
    g_p = trigan.build_model(**CORPUS_MODEL).g_p
    z = np.random.default_rng(0).standard_normal((3000, 8))
    (out, _), peak = _traced_peak(lambda: forward(g_p, z, keep_cache=False))
    assert peak <= 2.5 * out.nbytes, peak / out.nbytes


def test_similarity_report_peaks_below_one_and_a_half_generated_arrays():
    # the scan's 1 MiB work arrays, 64 KiB row blocks and three per-row
    # score vectors, about 1.03x; copying the whole sample, or pairing it
    # with a whole partner array, would go to 2x or more
    rng = np.random.default_rng(1)
    real, gen = rng.standard_normal((3000, 64)), rng.standard_normal((3000, 64))
    _, peak = _traced_peak(lambda: metrics.similarity_report(real, gen))
    assert peak <= 1.5 * gen.nbytes, peak / gen.nbytes


def test_evaluating_training_step_peaks_below_five_positive_sets():
    # batches are drawn by row index, so no class is copied out of the
    # data; the eval generates 3000 samples without a forward cache, then
    # copies the real positives and pairs the two in blocks, about 4.1x.
    # Keeping class copies for the whole run, or pairing whole-sample
    # arrays, would each go to about 6x
    ds = data.gaussian_mixture(3000, 64, [[-1.0] * 64, [1.0] * 64], 1.0, 0)
    model = trigan.build_model(**CORPUS_MODEL)
    cfg = trigan.TrainConfig(iterations=1, batch_size=64, seed=0, eval_every=1)
    _, peak = _traced_peak(lambda: trigan.train(model, ds, cfg))
    positives = ds.features[ds.labels == 1].nbytes
    assert peak <= 5 * positives, peak / positives
