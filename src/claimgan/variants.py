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
from .data import LabeledDataset, class_priors
from .metrics import MetricsRecord, precision_recall_f1
from .nets import (
    NeuralNet,
    ParamGrads,
    keep_heap_for_steps,
    make_optimizer,
    net_init,
    optimizer_step,
)
from .trigan import TrainConfig, TriGanModel, gan_objective


SYMMETRIC_MODES = ("as-printed", "intended")


# --- printed value functions, on probability vectors ----------------------


def symmetric_values(
    d_p_on_pos,
    d_p_on_gp_fake,
    mode: str,
    d_n_on_neg=None,
    d_n_on_gn_fake=None,
) -> tuple[float, float]:
    """The two symmetric-variant value functions.

    as-printed: both are the same positive-pair expression (they agree to
    the last bit by construction). intended: the second mirrors onto the
    negative pair.
    """
    if mode not in SYMMETRIC_MODES:
        raise ValueError(f"unknown symmetric mode {mode!r}")
    v1 = gan_objective(d_p_on_pos, d_p_on_gp_fake)
    if mode == "as-printed":
        return v1, v1
    if d_n_on_neg is None or d_n_on_gn_fake is None:
        raise ValueError("intended mode needs the negative-pair probabilities")
    return v1, gan_objective(d_n_on_neg, d_n_on_gn_fake)


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
    return trigan.generator_grads(gen, z, [(disc, trigan.log1m_grad())])[0], None


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


def _symmetric_steps(mode: str) -> tuple:
    return (
        ("d_p", lambda m, cfg, b: symmetric_d_p_grads(m, b.x_p, b.z), "loss_pos"),
        ("d_n", lambda m, cfg, b: symmetric_d_n_grads(m, b.x_p, b.x_n, b.z, mode), "loss_neg"),
        trigan.D_Y_ROW,
        ("g_p", lambda m, cfg, b: symmetric_g_p_grads(m, b.z2), None),
        ("g_n", lambda m, cfg, b: symmetric_g_n_grads(m, b.z2, mode), None),
        trigan.G_Y_ROW,
    )


# variant name -> trigan.train step_fn; every variant but "baseline"
STEP_FUNCTIONS = {
    "proposed": trigan.proposed_step,
    "inverted": partial(trigan.run_steps, INVERTED_STEPS),
    "symmetric": partial(trigan.run_steps, _symmetric_steps("as-printed")),
    "symmetric-intended": partial(trigan.run_steps, _symmetric_steps("intended")),
}


# --- supervised baseline ----------------------------------------------------


def baseline_train(
    data: LabeledDataset,
    cfg: TrainConfig,
    val_data: LabeledDataset | None = None,
    run_id: int = 0,
    hidden: int = 64,
) -> tuple[NeuralNet, list[MetricsRecord]]:
    """Plain BCE classifier on the same telemetry pipeline.

    The cross-entropy value is recorded in the loss_label column."""
    class_priors(data)  # rejects empty / single-class data
    rng = np.random.default_rng(cfg.seed)
    net_seed = int(np.random.SeedSequence(cfg.seed).generate_state(1)[0])
    net = trigan.judge_net(data.dim, hidden, net_seed)
    if cfg.iterations == 0:
        return net, []
    keep_heap_for_steps()
    opt = make_optimizer(net, cfg.optimizer, cfg.learning_rate)
    records: list[MetricsRecord] = []
    n = len(data)
    for it in range(1, cfg.iterations + 1):
        idx = rng.integers(0, n, cfg.batch_size)
        xb = data.features[idx]
        yb = data.labels[idx].astype(np.float64).reshape(-1, 1)
        grads, (s,) = trigan.net_grads(net, [(xb, lambda s, m: (s - yb) / (m * s * (1 - s)))])
        bce = float(-(yb * np.log(s) + (1 - yb) * np.log(1 - s)).mean())
        optimizer_step(net, grads, opt, "descend")
        rec = MetricsRecord(run=run_id, iter=it, loss_label=bce)
        if cfg.eval_every and it % cfg.eval_every == 0 and val_data is not None:
            _, preds = trigan.predict(net, val_data.features)
            p, r, f1, _ = precision_recall_f1(preds, val_data.labels)
            rec.precision, rec.recall, rec.f1 = p, r, f1
        records.append(rec)
    return net, records
