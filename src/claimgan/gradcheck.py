"""Finite-difference validation of every update rule in the framework.

For each network, the analytic backprop gradient of its training objective
is compared against central differences of the same scalar, over several
randomly drawn small models and batches. The analytic side runs the rows of
variants.STEP_TABLES that training runs: the main model's (g_y in the two
stated loss modes) and the inverted / symmetric variants'. The
"generator-labels" mode is not in the rule list: its row is checked in
tests/test_trigan.py.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import trigan, variants
from .nets import forward, max_relative_error, numeric_gradients
from .trigan import TriGanModel, build_model


def _random_instance(seed: int, sample_dim=3, noise_dim=2, hidden=4, batch=4):
    rng = np.random.default_rng(seed)
    model = build_model(sample_dim, noise_dim, 0.6, 0.4, seed, hidden=hidden)
    # nudge parameters off their init scale so nothing is symmetric
    for net in model.nets().values():
        net.flat += 0.1 * rng.standard_normal(net.flat.size)
    x_p = rng.standard_normal((batch, sample_dim))
    x_n = rng.standard_normal((batch, sample_dim))
    x = rng.standard_normal((batch, sample_dim))
    z = rng.standard_normal((batch, noise_dim))
    return model, x_p, x_n, x, z


def table_row(variant: str, net: str) -> tuple:
    """The row that updates `net` in variants.STEP_TABLES[variant]."""
    (found,) = [r for r in variants.STEP_TABLES[variant] if r[0] == net]
    return found


def _rules(model: TriGanModel, x_p, x_n, x, z):
    """(name, variant, net, g_y mode, scalar_fn) for every update rule. Its
    gradient is table_row(variant, net)'s, on these batches with z2 = z and
    the g_y mode (None for rows that do not read it), or None if known zero.

    The scalars are recomputed forward-only from the loss definitions so the
    finite-difference side never touches the backprop code it is checking.
    """
    out = lambda net, batch: forward(net, batch)[0]

    def d_y_scalar():
        fp, fn_ = out(model.g_p, z), out(model.g_n, z)
        return trigan.d_y_objective(
            out(model.d_y, x), out(model.d_y, fp), out(model.d_y, fn_),
            model.pi_p, model.pi_n,
        )

    def generator_scalar(gen, disc, prior):
        fake = out(gen, z)
        return trigan.generator_loss(out(disc, fake), out(model.d_y, fake), prior)

    def g_y_scalar(loss, *judges):
        """loss on the judges' outputs on Gp(z), Gn(z), judge by judge."""
        fakes = out(model.g_p, z), out(model.g_n, z)
        return loss(*[out(net, f) for net in judges for f in fakes], model.pi_p, model.pi_n)

    p_bracket = lambda: trigan.bracket_value(model.d_p, model.g_p, x_p, z)
    n_bracket = lambda: trigan.bracket_value(model.d_n, model.g_n, x_n, z)

    return [
        ("d_p", "proposed", "d_p", None, lambda: model.pi_p * p_bracket()),
        ("d_n", "proposed", "d_n", None, lambda: model.pi_n * n_bracket()),
        ("d_y", "proposed", "d_y", None, d_y_scalar),
        ("g_p", "proposed", "g_p", None,
         lambda: generator_scalar(model.g_p, model.d_p, model.pi_p)),
        ("g_n", "proposed", "g_n", None,
         lambda: generator_scalar(model.g_n, model.d_n, model.pi_n)),
        ("g_y[alg1-line14]", "proposed", "g_y", "alg1-line14",
         lambda: g_y_scalar(trigan.g_y_loss_alg1_line14, model.d_y)),
        ("g_y[eq4]", "proposed", "g_y", "eq4",
         lambda: g_y_scalar(trigan.g_y_loss_eq4, model.d_y, model.g_y)),
        ("inverted:d_n", "inverted", "d_n", None,
         lambda: trigan.bracket_value(model.d_n, model.g_n, x_p, z)),
        ("inverted:g_p", "inverted", "g_p", None,
         lambda: -trigan.bracket_value(model.d_n, model.g_n, x_p, z)),
        ("inverted:g_n", "inverted", "g_n", None, p_bracket),
        ("symmetric:d_p", "symmetric", "d_p", None, p_bracket),
        ("symmetric:g_p", "symmetric", "g_p", None, p_bracket),
        ("symmetric[as-printed]:d_n", "symmetric", "d_n", None, p_bracket),
        ("symmetric[as-printed]:g_n", "symmetric", "g_n", None, p_bracket),
        ("symmetric[intended]:d_n", "symmetric-intended", "d_n", None, n_bracket),
        ("symmetric[intended]:g_n", "symmetric-intended", "g_n", None, n_bracket),
    ]


def check_all_gradients(base_seed: int = 0, n_instances: int = 20) -> dict[str, float]:
    """Max relative backprop-vs-FD error per update rule over n_instances."""
    worst: dict[str, float] = {}
    for i in range(n_instances):
        model, x_p, x_n, x, z = _random_instance(base_seed + i)
        batches = SimpleNamespace(x_p=x_p, x_n=x_n, x=x, z=z, z2=z)
        for name, variant, net_name, mode, scalar_fn in _rules(model, x_p, x_n, x, z):
            rule = table_row(variant, net_name)[1]
            analytic = rule(model, SimpleNamespace(g_y_loss_mode=mode), batches)[0]
            net = getattr(model, net_name)
            if analytic is None:
                analytic = np.zeros_like(net.flat)
            numeric = numeric_gradients(net, scalar_fn)
            err = max_relative_error(analytic, numeric)
            worst[name] = np.maximum(worst.get(name, 0.0), err)  # a NaN sticks
    return worst
