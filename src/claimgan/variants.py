"""GenPU-derived ablations and a plain supervised baseline.

The inverted variant exchanges the two per-class value functions; the
symmetric variant ships in two modes: "as-printed", where both value
functions are literally the same positive-class expression (so the second
generator/discriminator pair receives no gradient at all), and "intended",
where the second function mirrors onto the negative class. Both variants
are step tables for trigan.run_steps that keep the main model's label pair
rows (d_y, g_y), so their telemetry is interchangeable with it.

In the printed inverted equations the positive generator's objective does
not mention the positive generator, and the third equation names players
absent from its expression; those updates are implemented literally as
no gradient (None, so no step) rather than silently repaired.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import trigan
from .data import LabeledDataset
from .metrics import MetricsRecord
from .nets import NeuralNet, ParamGrads, make_optimizer, optimizer_step
from .trigan import TrainConfig, TriGanModel


# --- gradient rules --------------------------------------------------------
#
# The three exchanged equations on real batches: the negative discriminator
# is trained against *positive* data, the positive generator's objective is
# the negated exchanged form, and the third is the positive-pair bracket.
# A known-zero gradient is None, and a value no column takes is not computed.


def inverted_d_n_grads(model: TriGanModel, x_p, z) -> tuple[ParamGrads, float]:
    return trigan.bracket_grads(model.d_n, model.g_n, x_p, z)


def inverted_g_p_grads(model: TriGanModel) -> tuple[None, None]:
    # the printed objective contains no g_p term
    return None, None


def inverted_g_n_grads(model: TriGanModel, x_p, z) -> tuple[None, float]:
    # the printed expression mentions only d_p and g_p; g_n gets nothing
    return None, trigan.bracket_value(model.d_p, model.g_p, x_p, z)


def symmetric_d_p_grads(model: TriGanModel, x_p, z) -> tuple[ParamGrads, float]:
    return trigan.bracket_grads(model.d_p, model.g_p, x_p, z)


def _saturating_grads(gen: NeuralNet, disc: NeuralNet, z) -> tuple[ParamGrads, None]:
    """gen's gradients of gan_objective(disc(real), disc(gen(z))), which it minimizes."""
    return trigan.generator_grads(gen, z, [(disc, trigan.log1m_grad())]), None


def symmetric_g_p_grads(model: TriGanModel, z) -> tuple[ParamGrads, None]:
    return _saturating_grads(model.g_p, model.d_p, z)


def symmetric_d_n_grads(
    model: TriGanModel, x_p, x_n, z, mode: str
) -> tuple[ParamGrads | None, float]:
    if mode == "as-printed":
        # the second value function is the positive-pair bracket again
        return None, trigan.bracket_value(model.d_p, model.g_p, x_p, z)
    return trigan.bracket_grads(model.d_n, model.g_n, x_n, z)


def symmetric_g_n_grads(model: TriGanModel, z, mode: str) -> tuple[ParamGrads | None, None]:
    if mode == "as-printed":
        return None, None
    return _saturating_grads(model.g_n, model.d_n, z)


# --- trainer steps: tables like trigan.PROPOSED_STEPS, same d_y and g_y rows --

INVERTED_STEPS = (
    ("d_n", lambda m, cfg, b: inverted_d_n_grads(m, b.x_p, b.z), "loss_neg"),
    trigan.D_Y_ROW,
    ("g_p", lambda m, cfg, b: inverted_g_p_grads(m), None),
    ("g_n", lambda m, cfg, b: inverted_g_n_grads(m, b.x_p, b.z2), "loss_pos"),
    trigan.G_Y_ROW,
)


# the positive pair's rows do not depend on the symmetric mode
SYMMETRIC_D_P_ROW = ("d_p", lambda m, cfg, b: symmetric_d_p_grads(m, b.x_p, b.z), "loss_pos")
SYMMETRIC_G_P_ROW = ("g_p", lambda m, cfg, b: symmetric_g_p_grads(m, b.z2), None)


def _symmetric_steps(mode: str) -> tuple:
    return (
        SYMMETRIC_D_P_ROW,
        ("d_n", lambda m, cfg, b: symmetric_d_n_grads(m, b.x_p, b.x_n, b.z, mode), "loss_neg"),
        trigan.D_Y_ROW,
        SYMMETRIC_G_P_ROW,
        ("g_n", lambda m, cfg, b: symmetric_g_n_grads(m, b.z2, mode), None),
        trigan.G_Y_ROW,
    )


# variant name -> the rows training runs and gradcheck checks; every variant but "baseline"
STEP_TABLES = {
    "proposed": trigan.PROPOSED_STEPS,
    "inverted": INVERTED_STEPS,
    "symmetric": _symmetric_steps("as-printed"),
    "symmetric-intended": _symmetric_steps("intended"),
}
# variant name -> trigan.train step_fn
STEP_FUNCTIONS = {name: partial(trigan.run_steps, table) for name, table in STEP_TABLES.items()}


# --- supervised baseline ----------------------------------------------------


def bce_grad(labels: np.ndarray):
    # d/ds of the mean binary cross-entropy of sigmoid outputs s against labels
    return lambda s, m: (s - labels) / (m * s * (1 - s))


def baseline_train(
    data: LabeledDataset,
    cfg: TrainConfig,
    val_data: LabeledDataset | None = None,
    run_id: int = 0,
    hidden: int = 64,
) -> tuple[NeuralNet, list[MetricsRecord]]:
    """Plain BCE classifier on the same telemetry pipeline.

    The cross-entropy value is recorded in the loss_label column."""
    net_seed = int(np.random.SeedSequence(cfg.seed).generate_state(1)[0])
    net = trigan.judge_net(data.dim, hidden, net_seed)
    opt = make_optimizer(net, cfg.optimizer, cfg.learning_rate)
    n = len(data)

    def step(rng):
        idx = rng.integers(0, n, cfg.batch_size)
        xb = data.features[idx]
        yb = data.labels[idx].astype(np.float64).reshape(-1, 1)
        grads, (s,) = trigan.net_grads(net, [(xb, bce_grad(yb))])
        bce = float(-(yb * np.log(s) + (1 - yb) * np.log(1 - s)).mean())
        optimizer_step(net, grads, opt, "descend")
        return {"loss_label": bce}

    records = trigan.run_loop(cfg, run_id, data, val_data, step,
                              lambda xs: trigan.predict(net, xs)[1])
    return net, records
