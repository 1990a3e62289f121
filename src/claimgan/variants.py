"""GenPU-derived ablations and a plain supervised baseline.

The inverted variant exchanges the two per-class value functions; the
symmetric variant ships in two modes: "as-printed", where both value
functions are literally the same positive-class expression (so the second
generator/discriminator pair receives no gradient at all), and "intended",
where the second function mirrors onto the negative class. Both variants
keep the label pair (d_y, g_y) and the trainer skeleton of the main model,
so their telemetry is interchangeable with it.

In the printed inverted equations the positive generator's objective does
not mention the positive generator, and the third equation names players
absent from its expression; those updates are implemented literally as
zero gradients rather than silently repaired.
"""

from __future__ import annotations

from enum import Enum
from functools import partial

import numpy as np

from . import trigan
from .data import LabeledDataset, class_priors
from .metrics import MetricsRecord, precision_recall_f1
from .nets import (
    NeuralNet,
    ParamGrads,
    backward,
    forward,
    keep_heap_for_steps,
    make_optimizer,
    net_init,
    optimizer_step,
    zero_grads,
)
from .trigan import TrainConfig, TriGanModel, gan_objective


class VariantKind(str, Enum):
    INVERTED_GENPU = "inverted"
    SYMMETRIC_GENPU = "symmetric"
    SYMMETRIC_GENPU_INTENDED = "symmetric-intended"
    MLP_BASELINE = "baseline"


SYMMETRIC_MODES = ("as-printed", "intended")


# --- printed value functions, on probability vectors ----------------------


def inverted_d_n_value(d_n_on_pos, d_n_on_gn_fake) -> float:
    """Negative discriminator trained against *positive* data."""
    return gan_objective(d_n_on_pos, d_n_on_gn_fake)


def inverted_g_p_value(d_n_on_pos, d_n_on_gn_fake) -> float:
    """Positive generator objective: the negated exchanged form."""
    return -gan_objective(d_n_on_pos, d_n_on_gn_fake)


def inverted_g_n_value(d_p_on_pos, d_p_on_gp_fake) -> float:
    """Third exchanged equation: the standard positive-pair expression."""
    return gan_objective(d_p_on_pos, d_p_on_gp_fake)


def inverted_losses(model: TriGanModel, x_p, z) -> dict[str, float]:
    """Per-net scalars of the three exchanged equations on real batches."""
    fake_p, _ = forward(model.g_p, z)
    fake_n, _ = forward(model.g_n, z)
    dn_pos, _ = forward(model.d_n, x_p)
    dn_fake, _ = forward(model.d_n, fake_n)
    dp_pos, _ = forward(model.d_p, x_p)
    dp_fake, _ = forward(model.d_p, fake_p)
    return {
        "d_n": inverted_d_n_value(dn_pos, dn_fake),
        "g_p": inverted_g_p_value(dn_pos, dn_fake),
        "g_n": inverted_g_n_value(dp_pos, dp_fake),
    }


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


def symmetric_losses(model: TriGanModel, x_p, x_n, z, mode: str) -> tuple[float, float]:
    fake_p, _ = forward(model.g_p, z)
    dp_pos, _ = forward(model.d_p, x_p)
    dp_fake, _ = forward(model.d_p, fake_p)
    if mode == "as-printed":
        return symmetric_values(dp_pos, dp_fake, mode)
    fake_n, _ = forward(model.g_n, z)
    dn_neg, _ = forward(model.d_n, x_n)
    dn_fake, _ = forward(model.d_n, fake_n)
    return symmetric_values(dp_pos, dp_fake, mode, dn_neg, dn_fake)


# --- gradient rules --------------------------------------------------------


def _disc_ascent_grads(disc, gen, real, z) -> tuple[ParamGrads, float]:
    """Unweighted two-player bracket gradients for one discriminator."""
    fake, _ = forward(gen, z)
    d_real, cache_r = forward(disc, real)
    d_fake, cache_f = forward(disc, fake)
    value = gan_objective(d_real, d_fake)
    m = d_real.shape[0]
    g_real, _ = backward(disc, cache_r, 1.0 / (m * d_real), input_grad=False)
    g_fake, _ = backward(disc, cache_f, -1.0 / (m * (1.0 - d_fake)), input_grad=False)
    return [(a + b, c + d) for (a, c), (b, d) in zip(g_real, g_fake)], value


def _gen_descent_grads(disc, gen, real, z) -> tuple[ParamGrads, float]:
    """Gradients for a generator minimizing the bracket (saturating form)."""
    fake, cache_g = forward(gen, z)
    d_real, _ = forward(disc, real)
    d_fake, cache_f = forward(disc, fake)
    value = gan_objective(d_real, d_fake)
    m = fake.shape[0]
    _, into_fake = backward(disc, cache_f, -1.0 / (m * (1.0 - d_fake)), param_grads=False)
    grads, _ = backward(gen, cache_g, into_fake, input_grad=False)
    return grads, value


def inverted_d_n_grads(model: TriGanModel, x_p, z) -> tuple[ParamGrads, float]:
    return _disc_ascent_grads(model.d_n, model.g_n, x_p, z)


def inverted_g_p_grads(model: TriGanModel, x_p, z) -> tuple[ParamGrads, float]:
    # the printed objective contains no g_p term
    vals = inverted_losses(model, x_p, z)
    return zero_grads(model.g_p), vals["g_p"]


def inverted_g_n_grads(model: TriGanModel, x_p, z) -> tuple[ParamGrads, float]:
    # the printed expression mentions only d_p and g_p; g_n gets nothing
    vals = inverted_losses(model, x_p, z)
    return zero_grads(model.g_n), vals["g_n"]


def symmetric_d_p_grads(model: TriGanModel, x_p, z) -> tuple[ParamGrads, float]:
    return _disc_ascent_grads(model.d_p, model.g_p, x_p, z)


def symmetric_g_p_grads(model: TriGanModel, x_p, z) -> tuple[ParamGrads, float]:
    return _gen_descent_grads(model.d_p, model.g_p, x_p, z)


def symmetric_d_n_grads(
    model: TriGanModel, x_p, x_n, z, mode: str
) -> tuple[ParamGrads, float]:
    if mode == "as-printed":
        v1, v2 = symmetric_losses(model, x_p, x_n, z, mode)
        return zero_grads(model.d_n), v2
    return _disc_ascent_grads(model.d_n, model.g_n, x_n, z)


def symmetric_g_n_grads(
    model: TriGanModel, x_p, x_n, z, mode: str
) -> tuple[ParamGrads, float]:
    if mode == "as-printed":
        v1, v2 = symmetric_losses(model, x_p, x_n, z, mode)
        return zero_grads(model.g_n), v2
    return _gen_descent_grads(model.d_n, model.g_n, x_n, z)


# --- trainer steps ----------------------------------------------------------


def inverted_step(model, opts, cfg, x_p, x_n, x, z, z2):
    grads, loss_neg = inverted_d_n_grads(model, x_p, z)
    optimizer_step(model.d_n, grads, opts["d_n"], "ascend")
    grads, loss_label = trigan.d_y_step_grads(model, x, z)
    optimizer_step(model.d_y, grads, opts["d_y"], "ascend")

    grads, _ = inverted_g_p_grads(model, x_p, z2)
    optimizer_step(model.g_p, grads, opts["g_p"], "descend")
    grads, loss_pos = inverted_g_n_grads(model, x_p, z2)
    optimizer_step(model.g_n, grads, opts["g_n"], "descend")
    grads, _ = trigan.g_y_step_grads(model, z2, cfg.g_y_loss_mode)
    optimizer_step(model.g_y, grads, opts["g_y"], "descend")
    return loss_pos, loss_neg, loss_label


def symmetric_step(mode, model, opts, cfg, x_p, x_n, x, z, z2):
    grads, loss_pos = symmetric_d_p_grads(model, x_p, z)
    optimizer_step(model.d_p, grads, opts["d_p"], "ascend")
    grads, loss_neg = symmetric_d_n_grads(model, x_p, x_n, z, mode)
    optimizer_step(model.d_n, grads, opts["d_n"], "ascend")
    grads, loss_label = trigan.d_y_step_grads(model, x, z)
    optimizer_step(model.d_y, grads, opts["d_y"], "ascend")

    grads, _ = symmetric_g_p_grads(model, x_p, z2)
    optimizer_step(model.g_p, grads, opts["g_p"], "descend")
    grads, _ = symmetric_g_n_grads(model, x_p, x_n, z2, mode)
    optimizer_step(model.g_n, grads, opts["g_n"], "descend")
    grads, _ = trigan.g_y_step_grads(model, z2, cfg.g_y_loss_mode)
    optimizer_step(model.g_y, grads, opts["g_y"], "descend")
    return loss_pos, loss_neg, loss_label


def step_fn_for(kind: VariantKind):
    if kind == VariantKind.INVERTED_GENPU:
        return inverted_step
    if kind == VariantKind.SYMMETRIC_GENPU:
        return partial(symmetric_step, "as-printed")
    if kind == VariantKind.SYMMETRIC_GENPU_INTENDED:
        return partial(symmetric_step, "intended")
    raise ValueError(f"{kind} has no adversarial trainer step")


def train_variant(
    model: TriGanModel,
    data: LabeledDataset,
    cfg: TrainConfig,
    kind: VariantKind,
    val_data: LabeledDataset | None = None,
    run_id: int = 0,
):
    return trigan.train(
        model, data, cfg, val_data=val_data, run_id=run_id, step_fn=step_fn_for(kind)
    )


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
    net = net_init(
        [data.dim, hidden, hidden, 1],
        ["relu", "relu", "sigmoid"],
        int(np.random.SeedSequence(cfg.seed).generate_state(1)[0]),
    )
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
        s, cache = forward(net, xb)
        m = s.shape[0]
        bce = float(-(yb * np.log(s) + (1 - yb) * np.log(1 - s)).mean())
        grad_out = (s - yb) / (m * s * (1 - s))
        grads, _ = backward(net, cache, grad_out, input_grad=False)
        optimizer_step(net, grads, opt, "descend")
        rec = MetricsRecord(run=run_id, iter=it, loss_label=bce)
        if cfg.eval_every and it % cfg.eval_every == 0 and val_data is not None:
            scores, _ = forward(net, val_data.features)
            preds = (scores[:, 0] >= 0.5).astype(np.int64)
            p, r, f1, _ = precision_recall_f1(preds, val_data.labels)
            rec.precision, rec.recall, rec.f1 = p, r, f1
        records.append(rec)
    return net, records
