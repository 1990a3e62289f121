"""Process footprint, each measured in a fresh interpreter: importing the
package loads no scipy, and training steps do not page-fault their
temporaries back in from the OS."""

import json
import os
import subprocess
import sys

import pytest

import claimgan

SRC = os.path.dirname(os.path.dirname(os.path.abspath(claimgan.__file__)))


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_every_module_loads_no_scipy():
    out = _run("import sys, claimgan.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"


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
