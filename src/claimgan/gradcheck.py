"""Finite-difference validation of every update rule in the framework.

For each network, the analytic backprop gradient of its training objective
is compared against central differences of the same scalar, over several
randomly drawn small models and batches. Covers the main model (the two
stated label-generator loss modes) and the inverted / symmetric variants.
The "generator-labels" mode is not in the rule list: its gradient is
checked in tests/test_trigan.py.
"""

from __future__ import annotations

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


def _rules(model: TriGanModel, x_p, x_n, x, z):
    """(name, net, grads_fn, scalar_fn) for every update rule. grads_fn
    returns None for a known-zero gradient.

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

    def g_p_scalar():
        fake = out(model.g_p, z)
        return trigan.g_p_loss(out(model.d_p, fake), out(model.d_y, fake), model.pi_p)

    def g_n_scalar():
        fake = out(model.g_n, z)
        return trigan.g_n_loss(out(model.d_n, fake), out(model.d_y, fake), model.pi_n)

    def g_y_scalar(mode):
        fp, fn_ = out(model.g_p, z), out(model.g_n, z)
        kwargs = {}
        if mode == "eq4":
            kwargs = {"g_y_on_gp": out(model.g_y, fp), "g_y_on_gn": out(model.g_y, fn_)}
        return trigan.g_y_loss(
            out(model.d_y, fp), out(model.d_y, fn_), model.pi_p, model.pi_n, mode, **kwargs
        )

    p_bracket = lambda: trigan.bracket_value(model.d_p, model.g_p, x_p, z)
    n_bracket = lambda: trigan.bracket_value(model.d_n, model.g_n, x_n, z)

    return [
        ("d_p", model.d_p,
         lambda: trigan.d_p_step_grads(model, x_p, z)[0],
         lambda: model.pi_p * trigan.bracket_value(model.d_p, model.g_p, x_p, z)),
        ("d_n", model.d_n,
         lambda: trigan.d_n_step_grads(model, x_n, z)[0],
         lambda: model.pi_n * trigan.bracket_value(model.d_n, model.g_n, x_n, z)),
        ("d_y", model.d_y,
         lambda: trigan.d_y_step_grads(model, x, z)[0], d_y_scalar),
        ("g_p", model.g_p,
         lambda: trigan.g_p_step_grads(model, z)[0], g_p_scalar),
        ("g_n", model.g_n,
         lambda: trigan.g_n_step_grads(model, z)[0], g_n_scalar),
        ("g_y[alg1-line14]", model.g_y,
         lambda: trigan.g_y_step_grads(model, z, "alg1-line14")[0],
         lambda: g_y_scalar("alg1-line14")),
        ("g_y[eq4]", model.g_y,
         lambda: trigan.g_y_step_grads(model, z, "eq4")[0],
         lambda: g_y_scalar("eq4")),
        ("inverted:d_n", model.d_n,
         lambda: variants.inverted_d_n_grads(model, x_p, z)[0],
         lambda: trigan.bracket_value(model.d_n, model.g_n, x_p, z)),
        ("inverted:g_p", model.g_p,
         lambda: variants.inverted_g_p_grads(model)[0],
         lambda: -trigan.bracket_value(model.d_n, model.g_n, x_p, z)),
        ("inverted:g_n", model.g_n,
         lambda: variants.inverted_g_n_grads(model, x_p, z)[0],
         lambda: trigan.bracket_value(model.d_p, model.g_p, x_p, z)),
        ("symmetric:d_p", model.d_p,
         lambda: variants.symmetric_d_p_grads(model, x_p, z)[0], p_bracket),
        ("symmetric:g_p", model.g_p,
         lambda: variants.symmetric_g_p_grads(model, z)[0], p_bracket),
        ("symmetric[as-printed]:d_n", model.d_n,
         lambda: variants.symmetric_d_n_grads(model, x_p, x_n, z, "as-printed")[0], p_bracket),
        ("symmetric[as-printed]:g_n", model.g_n,
         lambda: variants.symmetric_g_n_grads(model, z, "as-printed")[0], p_bracket),
        ("symmetric[intended]:d_n", model.d_n,
         lambda: variants.symmetric_d_n_grads(model, x_p, x_n, z, "intended")[0], n_bracket),
        ("symmetric[intended]:g_n", model.g_n,
         lambda: variants.symmetric_g_n_grads(model, z, "intended")[0], n_bracket),
    ]


def check_all_gradients(
    base_seed: int = 0, n_instances: int = 20, eps: float = 1e-5
) -> dict[str, float]:
    """Max relative backprop-vs-FD error per update rule over n_instances."""
    worst: dict[str, float] = {}
    for i in range(n_instances):
        model, x_p, x_n, x, z = _random_instance(base_seed + i)
        for name, net, grads_fn, scalar_fn in _rules(model, x_p, x_n, x, z):
            analytic = grads_fn()
            if analytic is None:
                analytic = np.zeros_like(net.flat)
            numeric = numeric_gradients(net, scalar_fn, eps)
            err = max_relative_error(analytic, numeric)
            worst[name] = np.maximum(worst.get(name, 0.0), err)  # a NaN sticks
    return worst
