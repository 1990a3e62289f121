"""The three-pair adversarial model and its training loop.

Six networks: g_p / g_n map noise to synthetic positive / negative samples,
g_y maps a sample to a class probability, d_p / d_n judge real-vs-synthetic
per class, and d_y judges real-vs-synthetic over the label-weighted mixture.
Per iteration the three discriminators ascend their objectives, then (on
fresh noise) the three generators descend theirs.

The label generator's loss has three modes (G_Y_LOSS_MODES). The first two
are the two stated readings of its update, and neither trains a classifier:

* "alg1-line14" (default) has no g_y term, so g_y's gradient is exactly
  zero and g_y keeps its initial weights.
* "eq4" uses d_y's judgment t as a soft target, but its second term
  (1-t)*log(1-t) does not depend on g_y's output u; the only gradient
  pushes u up, and g_y ends up predicting positive everywhere.
* "generator-labels" is an extension, not a stated reading: the
  pseudo-discriminative loss of Triple-GAN (Li et al., NeurIPS 2017).
  g_y is trained with prior-weighted BCE on generated samples, each
  labelled by the generator that made it (1 for g_p, 0 for g_n).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from .data import LabeledDataset, check_priors, class_priors
from .metrics import PAIRINGS, MetricsRecord, precision_recall_f1, similarity_report
from .nets import (
    OPTIMIZERS,
    NeuralNet,
    ParamGrads,
    backward,
    forward,
    keep_heap_for_steps,
    make_optimizer,
    net_init,
    optimizer_step,
)

# The roster, in build_model's seed order. Sample generators map noise to a
# sample, the rest a sample to one probability; discriminators ascend, the rest descend.
NET_NAMES = ("g_p", "g_n", "g_y", "d_p", "d_n", "d_y")
SAMPLE_GENERATORS = ("g_p", "g_n")
DISCRIMINATORS = ("d_p", "d_n", "d_y")

G_Y_LOSS_MODES = ("alg1-line14", "eq4", "generator-labels")


def _probs(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ValueError(f"empty batch for {name}")
    if not ((v > 0.0) & (v < 1.0)).all():  # False for NaN too
        raise ValueError(f"{name} entries must lie strictly inside (0, 1)")
    return v


def _mean(x: np.ndarray):
    """x.mean() to the last bit (numpy's mean is this sum and division),
    without its per-call overhead."""
    return x.sum() / x.size


def gan_objective(d_real, d_fake) -> float:
    """mean(log D(real)) + mean(log(1 - D(fake))): the two-player bracket
    the per-class discriminators ascend."""
    d_real = _probs(d_real, "d_real")
    d_fake = _probs(d_fake, "d_fake")
    return float(_mean(np.log(d_real)) + _mean(np.log1p(-d_fake)))


def d_y_objective(d_on_real_mixed, d_on_gp, d_on_gn, pi_p: float, pi_n: float) -> float:
    """mean(log D_y(x)) + pi_p*mean(log(1-D_y(Gp))) + pi_n*mean(log(1-D_y(Gn)))."""
    check_priors(pi_p, pi_n)
    d_real = _probs(d_on_real_mixed, "d_on_real_mixed")
    d_gp = _probs(d_on_gp, "d_on_gp")
    d_gn = _probs(d_on_gn, "d_on_gn")
    return float(
        _mean(np.log(d_real))
        + pi_p * _mean(np.log1p(-d_gp))
        + pi_n * _mean(np.log1p(-d_gn))
    )


def generator_loss(d_on_fake, d_y_on_fake, prior: float) -> float:
    """prior * mean(-log D(G(z)) - log D_y(G(z))), the non-saturating loss of
    a sample generator: D_p and pi_p for g_p, D_n and pi_n for g_n."""
    d = _probs(d_on_fake, "d_on_fake")
    d_y = _probs(d_y_on_fake, "d_y_on_fake")
    return float(prior * _mean(-np.log(d) - np.log(d_y)))


# The label generator's loss in each of G_Y_LOSS_MODES. t_p, t_n are D_y's
# judgments and u_p, u_n g_y's class probabilities on Gp(z), Gn(z).


def g_y_loss_alg1_line14(t_p, t_n, pi_p: float, pi_n: float) -> float:
    """-pi_p*mean(log t_p) - pi_n*mean(log t_n): no g_y term."""
    check_priors(pi_p, pi_n)
    t_p = _probs(t_p, "t_p")
    t_n = _probs(t_n, "t_n")
    return float(-pi_p * _mean(np.log(t_p)) - pi_n * _mean(np.log(t_n)))


def g_y_loss_eq4(t_p, t_n, u_p, u_n, pi_p: float, pi_n: float) -> float:
    """-sum_c pi_c * mean(t_c*log(u_c) + (1-t_c)*log(1-t_c)): D_y's judgment
    is the soft target of g_y's prediction."""
    check_priors(pi_p, pi_n)
    t_p = _probs(t_p, "t_p")
    t_n = _probs(t_n, "t_n")
    u_p = _probs(u_p, "u_p")
    u_n = _probs(u_n, "u_n")
    ll = pi_p * _mean(t_p * np.log(u_p) + (1.0 - t_p) * np.log1p(-t_p))
    ll += pi_n * _mean(t_n * np.log(u_n) + (1.0 - t_n) * np.log1p(-t_n))
    return float(-ll)


def g_y_loss_generator_labels(u_p, u_n, pi_p: float, pi_n: float) -> float:
    """-pi_p*mean(log u_p) - pi_n*mean(log(1 - u_n)): BCE with each sample
    labelled by the generator that made it."""
    check_priors(pi_p, pi_n)
    u_p = _probs(u_p, "u_p")
    u_n = _probs(u_n, "u_n")
    return float(-pi_p * _mean(np.log(u_p)) - pi_n * _mean(np.log1p(-u_n)))


@dataclass(eq=False)
class TriGanModel:
    g_p: NeuralNet
    g_n: NeuralNet
    g_y: NeuralNet
    d_p: NeuralNet
    d_n: NeuralNet
    d_y: NeuralNet
    pi_p: float
    pi_n: float
    noise_dim: int
    sample_dim: int

    def __post_init__(self):
        check_priors(self.pi_p, self.pi_n)
        for name, net in self.nets().items():
            if name in SAMPLE_GENERATORS:
                io, shape = (self.noise_dim, self.sample_dim), "noise_dim -> sample_dim"
            else:
                io, shape = (self.sample_dim, 1), "sample_dim -> 1"
            if (net.input_dim, net.output_dim) != io:
                raise ValueError(f"{name} must map {shape}")

    def nets(self) -> dict[str, NeuralNet]:
        return {name: getattr(self, name) for name in NET_NAMES}

    def copy(self) -> "TriGanModel":
        return replace(self, **{name: net.copy() for name, net in self.nets().items()})


def judge_net(dim: int, hidden: int, seed: int) -> NeuralNet:
    """[dim, h, h, 1], relu hidden, sigmoid output: g_y, the discriminators, the baseline."""
    return net_init([dim, hidden, hidden, 1], ["relu", "relu", "sigmoid"], seed)


def build_model(
    sample_dim: int,
    noise_dim: int,
    pi_p: float,
    pi_n: float,
    seed: int,
    hidden: int = 64,
) -> TriGanModel:
    """Sample generators [noise, h, h, sample], tanh hidden, identity output; the
    rest judge_net(sample_dim, hidden, .). NET_NAMES[i] seeds from SeedSequence(seed) child i."""
    nets = {}
    for name, child in zip(NET_NAMES, np.random.SeedSequence(seed).spawn(len(NET_NAMES))):
        net_seed = int(child.generate_state(1)[0])
        if name in SAMPLE_GENERATORS:
            dims = [noise_dim, hidden, hidden, sample_dim]
            nets[name] = net_init(dims, ["tanh", "tanh", "identity"], net_seed)
        else:
            nets[name] = judge_net(sample_dim, hidden, net_seed)
    return TriGanModel(**nets, pi_p=pi_p, pi_n=pi_n, noise_dim=noise_dim, sample_dim=sample_dim)


@dataclass
class TrainConfig:
    iterations: int
    batch_size: int = 64
    seed: int = 0
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    learning_rates: dict[str, float] = field(default_factory=dict)
    g_y_loss_mode: str = "alg1-line14"
    eval_every: int = 0  # 0 disables checkpoint evaluation
    similarity_sample_cap: int = 20000
    pairing: str = "nearest"

    def __post_init__(self):
        problems = self.problems()
        if problems:
            raise ValueError("; ".join(problems))

    def problems(self) -> list[str]:
        """One "field: ..." line per out-of-range setting."""
        problems = []
        if self.iterations < 0:
            problems.append("iterations: must be nonnegative")
        if self.batch_size < 1:
            problems.append("batch_size: must be at least 1")
        if self.seed < 0:
            problems.append("seed: must be nonnegative")
        if self.optimizer not in OPTIMIZERS:
            problems.append(f"optimizer: must be {' or '.join(OPTIMIZERS)}")
        if self.learning_rate <= 0:
            problems.append("learning_rate: must be positive")
        unknown_nets = sorted(set(self.learning_rates) - set(NET_NAMES))
        if unknown_nets:
            problems.append(f"learning_rates: unknown nets {unknown_nets}")
        if any(r <= 0 for r in self.learning_rates.values()):
            problems.append("learning_rates: must be positive")
        if self.g_y_loss_mode not in G_Y_LOSS_MODES:
            problems.append(f"g_y_loss_mode: must be one of {G_Y_LOSS_MODES}")
        if self.eval_every < 0:
            problems.append("eval_every: must be nonnegative")
        if self.similarity_sample_cap < 1:
            problems.append("similarity_sample_cap: must be at least 1")
        if self.pairing not in PAIRINGS:
            problems.append(f"pairing: must be {' or '.join(PAIRINGS)}")
        return problems

    def lr_for(self, name: str) -> float:
        return self.learning_rates.get(name, self.learning_rate)


# --- gradient primitives ----------------------------------------------------
#
# A rule maps a net's output d on a batch of m rows to dLoss/dd; these two
# differentiate w*mean(log d) and w*mean(log(1-d)), w a scalar or per-row.


def log_grad(w=1.0):
    return lambda d, m: w / (m * d)


def log1m_grad(w=1.0):
    return lambda d, m: -w / (m * (1.0 - d))


def net_grads(net: NeuralNet, terms) -> tuple[ParamGrads, list[np.ndarray]]:
    """Parameter gradients of `net` summed over (batch, rule) terms, left to
    right; also returns the net's output on each batch."""
    runs = [forward(net, batch) for batch, _ in terms]
    total = None
    for (out, cache), (_, rule) in zip(runs, terms):
        grads, _ = backward(net, cache, rule(out, out.shape[0]), input_grad=False)
        if total is None:
            total = grads  # fresh from backward, so the sum can go into it
        else:
            total += grads
    return total, [out for out, _ in runs]


def generator_grads(gen: NeuralNet, z, judges) -> ParamGrads:
    """Parameter gradients of `gen` through (judge net, rule) terms on gen(z),
    summed left to right at gen's output."""
    fake, cache = forward(gen, z)
    runs = [forward(judge, fake) for judge, _ in judges]
    into = None
    for (out, judge_cache), (judge, rule) in zip(runs, judges):
        _, g = backward(judge, judge_cache, rule(out, out.shape[0]), param_grads=False)
        if into is None:
            into = g  # fresh from backward, so the sum can go into it
        else:
            into += g
    grads, _ = backward(gen, cache, into, input_grad=False)
    return grads


def bracket_grads(disc: NeuralNet, gen: NeuralNet, real, z) -> tuple[ParamGrads, float]:
    """Gradients of gan_objective(disc(real), disc(gen(z))) for disc."""
    fake, _ = forward(gen, z)
    grads, outs = net_grads(disc, [(real, log_grad()), (fake, log1m_grad())])
    return grads, gan_objective(*outs)


def bracket_value(disc: NeuralNet, gen: NeuralNet, real, z) -> float:
    """gan_objective(disc(real), disc(gen(z))): bracket_grads' value, forward only."""
    return gan_objective(forward(disc, real)[0], forward(disc, forward(gen, z)[0])[0])


# --- per-update gradient rules -------------------------------------------
#
# Each returns (flat grads for the net being updated, the objective or loss
# value its row's telemetry column takes, or None when the row has none).
# One value has no column: g_y's under "alg1-line14", whose four forwards
# exist only to compute it and which perfbench/run.py's FORWARDS_PER_STEP
# counts.
# Discriminator rules carry the prior factor their update line prints;
# d_y's printed leading prior is dropped as a typo (it would rescale the
# whole ascent direction by pi_p for no stated reason).


def d_p_step_grads(model: TriGanModel, x_p, z) -> tuple[ParamGrads, float]:
    grads, value = bracket_grads(model.d_p, model.g_p, x_p, z)
    grads *= model.pi_p
    return grads, value


def d_n_step_grads(model: TriGanModel, x_n, z) -> tuple[ParamGrads, float]:
    grads, value = bracket_grads(model.d_n, model.g_n, x_n, z)
    grads *= model.pi_n
    return grads, value


def d_y_step_grads(model: TriGanModel, x, z) -> tuple[ParamGrads, float]:
    fake_p, _ = forward(model.g_p, z)
    fake_n, _ = forward(model.g_n, z)
    terms = [(x, log_grad()), (fake_p, log1m_grad(model.pi_p)), (fake_n, log1m_grad(model.pi_n))]
    grads, (d_real, d_gp, d_gn) = net_grads(model.d_y, terms)
    return grads, d_y_objective(d_real, d_gp, d_gn, model.pi_p, model.pi_n)


def g_p_step_grads(model: TriGanModel, z) -> tuple[ParamGrads, None]:
    # gradients of generator_loss with d_p and pi_p; no column takes its value
    rule = log_grad(-model.pi_p)
    return generator_grads(model.g_p, z, [(model.d_p, rule), (model.d_y, rule)]), None


def g_n_step_grads(model: TriGanModel, z) -> tuple[ParamGrads, None]:
    # gradients of generator_loss with d_n and pi_n; no column takes its value
    rule = log_grad(-model.pi_n)
    return generator_grads(model.g_n, z, [(model.d_n, rule), (model.d_y, rule)]), None


def g_y_step_grads(model: TriGanModel, z, mode: str) -> tuple[ParamGrads | None, float | None]:
    # gradients of g_y_loss_<mode>; no column takes its value
    pi_p, pi_n = model.pi_p, model.pi_n
    fake_p, _ = forward(model.g_p, z)
    fake_n, _ = forward(model.g_n, z)
    if mode == "generator-labels":
        # d_y takes no part in this loss, so it is not evaluated
        terms = [(fake_p, log_grad(-pi_p)), (fake_n, log1m_grad(-pi_n))]
        return net_grads(model.g_y, terms)[0], None
    t_p, _ = forward(model.d_y, fake_p)
    t_n, _ = forward(model.d_y, fake_n)
    if mode == "alg1-line14":
        # the printed rule contains no g_y term: the gradient is known zero.
        # The value is computed only because FORWARDS_PER_STEP in
        # perfbench/run.py counts the four forwards that feed it.
        return None, g_y_loss_alg1_line14(t_p, t_n, pi_p, pi_n)
    if mode == "eq4":
        terms = [(fake_p, log_grad(-pi_p * t_p)), (fake_n, log_grad(-pi_n * t_n))]
        return net_grads(model.g_y, terms)[0], None
    raise ValueError(f"unknown g_y loss mode {mode!r}")


# --- one training iteration, as a table of updates ---------------------------
#
# A row (net, rule, column): rule(model, cfg, batches) returns (grads,
# value), the net steps in its roster direction unless grads is None (a
# known-zero gradient: from zero moments its step would add only +-0.0),
# and the value fills the MetricsRecord field `column`, or nothing if None.
# Rules call the update rules through module globals, so a rebinding (a
# tracer, a test double) sees every call.

D_Y_ROW = ("d_y", lambda m, cfg, b: d_y_step_grads(m, b.x, b.z), "loss_label")
G_Y_ROW = ("g_y", lambda m, cfg, b: g_y_step_grads(m, b.z2, cfg.g_y_loss_mode), None)

PROPOSED_STEPS = (
    ("d_p", lambda m, cfg, b: d_p_step_grads(m, b.x_p, b.z), "loss_pos"),
    ("d_n", lambda m, cfg, b: d_n_step_grads(m, b.x_n, b.z), "loss_neg"),
    D_Y_ROW,
    ("g_p", lambda m, cfg, b: g_p_step_grads(m, b.z2), None),
    ("g_n", lambda m, cfg, b: g_n_step_grads(m, b.z2), None),
    G_Y_ROW,
)


def run_steps(table, model, opts, cfg, x_p, x_n, x, z, z2):
    """One training iteration: the rows of `table` in order, discriminators
    on noise z and generators on fresh noise z2. Returns {column: value}."""
    batches = SimpleNamespace(x_p=x_p, x_n=x_n, x=x, z=z, z2=z2)
    losses = {}
    for name, rule, column in table:
        grads, value = rule(model, cfg, batches)
        if grads is not None:
            direction = "ascend" if name in DISCRIMINATORS else "descend"
            optimizer_step(getattr(model, name), grads, opts[name], direction)
        if column is not None:
            losses[column] = value
    return losses


proposed_step = partial(run_steps, PROPOSED_STEPS)


def _eval_seed(base_seed: int, run_id: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng([base_seed, run_id, iteration, 0xE7A1])


class TrainingError(ValueError):
    """An iteration of run_loop failed; `records` holds the telemetry of the
    iterations before it."""

    def __init__(self, iteration: int, cause: Exception, records: list[MetricsRecord]):
        super().__init__(f"iteration {iteration}: {cause}")
        self.records = records


def run_loop(cfg: TrainConfig, run_id: int, data: LabeledDataset,
             val_data: LabeledDataset | None, step, classify, on_eval=None) -> list[MetricsRecord]:
    """The minibatch loop both trainers run (Goodfellow et al., NeurIPS 2014,
    Algorithm 1); returns one telemetry record per iteration.

    Before the first step it rejects empty or single-class `data` and a
    non-empty `val_data` of another width; an empty `val_data` is not scored.
    Iteration `it` fills its record from step(rng), a {column: value} dict,
    all iterations drawing from one default_rng(cfg.seed). Every
    cfg.eval_every iterations P/R/F1 score classify(val_data.features)'s hard
    labels, then on_eval(record, it) runs. A ValueError in an iteration
    stops the loop as a TrainingError that keeps the records before it.
    """
    class_priors(data)  # rejects empty or single-class data
    if val_data is not None and not len(val_data):
        val_data = None
    elif val_data is not None and val_data.dim != data.dim:
        raise ValueError(f"val_data dim {val_data.dim} does not match model sample_dim {data.dim}")
    rng = np.random.default_rng(cfg.seed)
    records: list[MetricsRecord] = []
    # a failed iteration is reported once, by the TrainingError below, not
    # also by numpy's overflow and invalid-value warnings
    with keep_heap_for_steps(), np.errstate(all="ignore"):
        for it in range(1, cfg.iterations + 1):
            try:
                rec = MetricsRecord(run=run_id, iter=it, **step(rng))
                if cfg.eval_every and it % cfg.eval_every == 0:
                    if val_data is not None:
                        preds = classify(val_data.features)
                        p, r, f1, _ = precision_recall_f1(preds, val_data.labels)
                        rec.precision, rec.recall, rec.f1 = p, r, f1
                    if on_eval is not None:
                        on_eval(rec, it)
            except ValueError as e:  # a non-finite gradient, say
                raise TrainingError(it, e, records) from e
            records.append(rec)
    return records


def train(
    model: TriGanModel,
    data: LabeledDataset,
    cfg: TrainConfig,
    val_data: LabeledDataset | None = None,
    run_id: int = 0,
    step_fn=proposed_step,
) -> tuple[TriGanModel, list[MetricsRecord]]:
    """Run the training loop on a copy of the model.

    run_loop's records, with similarity scores against the real positives
    beside P/R/F1 every cfg.eval_every iterations. An empty val_data leaves
    P/R/F1 empty.
    """
    if data.dim != model.sample_dim:
        raise ValueError("dataset dim does not match model sample_dim")
    model = model.copy()
    opts = {
        name: make_optimizer(net, cfg.optimizer, cfg.lr_for(name))
        for name, net in model.nets().items()
    }
    # batches are drawn as row indices into the features, so no copy of
    # either class is kept between evals
    allx = data.features
    pos_rows = np.flatnonzero(data.labels == 1)
    neg_rows = np.flatnonzero(data.labels == 0)
    m = cfg.batch_size

    def step(rng):
        z = rng.standard_normal((m, model.noise_dim))
        x_p = allx[pos_rows[rng.integers(0, len(pos_rows), m)]]
        x_n = allx[neg_rows[rng.integers(0, len(neg_rows), m)]]
        x = allx[rng.integers(0, allx.shape[0], m)]
        z2 = rng.standard_normal((m, model.noise_dim))
        return step_fn(model, opts, cfg, x_p, x_n, x, z, z2)

    def similarity_eval(rec, it):
        eval_rng = _eval_seed(cfg.seed, run_id, it)
        n_gen = min(cfg.similarity_sample_cap, len(pos_rows))
        z_eval = eval_rng.standard_normal((n_gen, model.noise_dim))
        gen_pos = forward(model.g_p, z_eval, keep_cache=False)[0]
        del z_eval  # not held through the pairing
        rec.cos, rec.man, rec.euc = similarity_report(
            allx[pos_rows], gen_pos, seed=int(eval_rng.integers(0, 2**32)), pairing=cfg.pairing
        )

    records = run_loop(cfg, run_id, data, val_data, step,
                       lambda xs: classify_batch(model, xs)[1], similarity_eval)
    return model, records


def predict(net: NeuralNet, xs) -> tuple[np.ndarray, np.ndarray]:
    """Class scores of a one-output net and hard labels: 1 iff score >= 0.5.
    A score that is not finite raises ValueError, not numpy's warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores, _ = forward(net, np.asarray(xs, dtype=np.float64), keep_cache=False)
    scores = scores[:, 0]
    if not np.isfinite(scores).all():
        raise ValueError("non-finite class scores")
    return scores, (scores >= 0.5).astype(np.int64)


def classify_batch(model: TriGanModel, xs) -> tuple[np.ndarray, np.ndarray]:
    return predict(model.g_y, xs)
