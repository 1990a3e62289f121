"""Exact minimax-equilibrium checks on finite discrete distributions.

Continuous densities are replaced by probability mass vectors on a shared
finite support, so the closed-form optimal discriminators, the equilibrium
value of the three-player game, and the location of its minimum can all be
verified by direct arithmetic and simplex-grid enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .data import check_priors, is_distribution
from .nets import PROB_EPS

# Equilibrium value of the label game in nats: 2*ln(1/2).
EQUILIBRIUM_VALUE = -2.0 * math.log(2.0)

# the largest simplex grid enumerated: k=4 at step 0.05 (3.1M p_gp, p_gn pairs)
MAX_GRID_POINTS = math.comb(23, 3)


def as_dist(mass) -> np.ndarray:
    """Validate a probability mass vector (is_distribution)."""
    p = np.asarray(mass, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("distribution must be a nonempty 1-D vector")
    if not is_distribution(p):
        raise ValueError(f"masses {p.tolist()} must lie in [0, 1] and sum to 1")
    return p


def _same_support(*dists: np.ndarray) -> None:
    k = dists[0].size
    if any(d.size != k for d in dists):
        raise ValueError("support sizes differ")


def optimal_t_binary(a: float, b: float) -> float:
    """Maximizer of a*ln(t) + b*ln(1-t) over t in (0,1): a/(a+b)."""
    if a < 0 or b < 0:
        raise ValueError("coefficients must be nonnegative")
    if a + b <= 0:
        raise ValueError("a + b must be positive")
    return a / (a + b)


def optimal_t_ternary(a: float, b: float, c: float) -> float:
    """Maximizer of a*ln(t) + (b+c)*ln(1-t): a/(a+b+c); symmetric in b, c."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("coefficients must be nonnegative")
    if a + b + c <= 0:
        raise ValueError("a + b + c must be positive")
    # group b + c first so the b <-> c symmetry holds bitwise
    return a / (a + (b + c))


@dataclass(eq=False)
class OptimalDiscriminators:
    d_p: np.ndarray
    d_n: np.ndarray
    # points where both masses vanish: D* is 0/0 there, set to 0.5 by convention
    undefined_p: np.ndarray = field(repr=False, default=None)
    undefined_n: np.ndarray = field(repr=False, default=None)


def optimal_discriminators(p_p, p_gp, p_n, p_gn) -> OptimalDiscriminators:
    """Pointwise optimal discriminators p_real/(p_real + p_fake), clamped."""
    p_p, p_gp, p_n, p_gn = map(as_dist, (p_p, p_gp, p_n, p_gn))
    _same_support(p_p, p_gp, p_n, p_gn)

    def ratio(real, fake):
        denom = real + fake
        undef = denom == 0.0
        d = np.where(undef, 0.5, real / np.where(undef, 1.0, denom))
        return np.clip(d, PROB_EPS, 1.0 - PROB_EPS), undef

    d_p, u_p = ratio(p_p, p_gp)
    d_n, u_n = ratio(p_n, p_gn)
    return OptimalDiscriminators(d_p, d_n, u_p, u_n)


def value_fn(p_real, p_fake, d: np.ndarray) -> float:
    """Discrete two-player value: sum p_real*ln(D) + sum p_fake*ln(1-D)."""
    p_real, p_fake = as_dist(p_real), as_dist(p_fake)
    d = np.clip(np.asarray(d, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    _same_support(p_real, p_fake, d)
    return float(p_real @ np.log(d) + p_fake @ np.log(1.0 - d))


def v_star(p, p_gp, p_gn, pi_p: float, pi_n: float) -> float:
    """Three-term value of the label game with the optimal D_y substituted.

    E_p[ln(p/(p+q))] + pi_p*E_gp[ln(q/(p+q))] + pi_n*E_gn[ln(q/(p+q))]
    with q = pi_p*p_gp + pi_n*p_gn. The first expectation is taken under p;
    zero-mass points contribute nothing.
    """
    check_priors(pi_p, pi_n)
    p, p_gp, p_gn = as_dist(p), as_dist(p_gp), as_dist(p_gn)
    _same_support(p, p_gp, p_gn)
    q = pi_p * p_gp + pi_n * p_gn
    denom = p + q
    safe = np.where(denom > 0, denom, 1.0)
    # log-ratios, clamped so disjoint-support points stay finite
    lr_p = np.log(np.clip(np.where(denom > 0, p / safe, 0.5), PROB_EPS, None))
    lr_q = np.log(np.clip(np.where(denom > 0, q / safe, 0.5), PROB_EPS, None))
    total = float(np.where(p > 0, p * lr_p, 0.0).sum())
    total += pi_p * float(np.where(p_gp > 0, p_gp * lr_q, 0.0).sum())
    total += pi_n * float(np.where(p_gn > 0, p_gn * lr_q, 0.0).sum())
    return total


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in nats; 0*ln(0) taken as 0."""
    p, q = as_dist(p), as_dist(q)
    _same_support(p, q)
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def grid_divisions(k: int, step: float) -> int:
    """n = 1/step for the simplex grid of `step` on a support of k, once the
    step is checked and the grid's point count is at most MAX_GRID_POINTS."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"grid step must be positive and finite, got {step}")
    inv = 1.0 / step  # inf for a subnormal step
    n = round(inv) if math.isfinite(inv) else 0
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError("grid step must divide 1")
    if k > 1 and n + k - 1 > MAX_GRID_POINTS:
        # over the cap for sure, and counting the points exactly can take minutes
        raise ValueError(
            f"grid step {step} gives over {MAX_GRID_POINTS} points on a support of {k}"
        )
    count = math.comb(n + k - 1, k - 1)
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"grid step {step} gives {count} points on a support of {k}, over {MAX_GRID_POINTS}"
        )
    return n


def simplex_grid(k: int, step: float) -> np.ndarray:
    """All mass vectors on the k-simplex with coordinates multiples of step."""
    n = grid_divisions(k, step)
    # compositions of n into k nonnegative parts: the gaps between k - 1 cuts
    cuts = list(combinations_with_replacement(range(n + 1), k - 1))
    cuts = np.array(cuts, dtype=np.int64).reshape(len(cuts), k - 1)
    return np.diff(cuts, prepend=0, append=n, axis=1) / n


@dataclass(eq=False)
class EquilibriumReport:
    minimizer_gp: np.ndarray
    minimizer_gn: np.ndarray
    min_value: float
    satisfies_gp_eq_pp: bool
    satisfies_gn_eq_pn: bool
    satisfies_mixture: bool
    n_tied: int
    grid_contains_target: bool
    value_slack: float

    @property
    def gap_to_equilibrium(self) -> float:
        return self.min_value - EQUILIBRIUM_VALUE

    @property
    def passed(self) -> bool:
        return (
            self.satisfies_gp_eq_pp
            and self.satisfies_gn_eq_pn
            and self.satisfies_mixture
            and self.grid_contains_target
            and abs(self.gap_to_equilibrium) <= self.value_slack
        )

    def lines(self) -> list[str]:
        ok = lambda b: "ok" if b else "FAIL"
        return [
            f"grid minimizer p_gp = {self.minimizer_gp.tolist()}",
            f"grid minimizer p_gn = {self.minimizer_gn.tolist()}",
            f"grid minimum       = {self.min_value!r}",
            f"gap to 2*ln(1/2)   = {self.gap_to_equilibrium!r} (slack {self.value_slack!r})",
            f"p_gp == p_p within grid tolerance: {ok(self.satisfies_gp_eq_pp)}",
            f"p_gn == p_n within grid tolerance: {ok(self.satisfies_gn_eq_pn)}",
            f"mixture matches data distribution: {ok(self.satisfies_mixture)}",
            f"minimizer unique on grid: {'no (%d tied)' % self.n_tied if self.n_tied > 1 else 'yes'}",
            f"grid contains equilibrium mixture: {ok(self.grid_contains_target)}",
            f"overall: {'PASS' if self.passed else 'FAIL'}",
        ]


def verify_equilibrium(
    p_p, p_n, pi_p: float, grid_step: float = 0.05
) -> EquilibriumReport:
    """Enumerate (p_gp, p_gn) on the simplex grid and minimize v_star.

    Confirms that the minimum sits at p_gp = p_p, p_gn = p_n with the data
    mixture reproduced, and that the minimum value reaches 2*ln(1/2). Every
    pair within 1e-9 of the grid minimum is a tie; the reported minimizer is
    the first tie, in row-major order, nearest the analytic equilibrium in L1.
    """
    p_p, p_n = as_dist(p_p), as_dist(p_n)
    _same_support(p_p, p_n)
    pi_n = 1.0 - pi_p
    check_priors(pi_p, pi_n)
    p = pi_p * p_p + pi_n * p_n

    grid = simplex_grid(p_p.size, grid_step)
    values = np.fromiter(
        (v_star(p, gp, gn, pi_p, pi_n) for gp in grid for gn in grid),
        dtype=np.float64,
        count=len(grid) ** 2,
    )
    best = float(values.min())
    tied_gp, tied_gn = np.divmod(np.flatnonzero(values <= best + 1e-9), len(grid))
    gps, gns = grid[tied_gp], grid[tied_gn]
    nearest = np.argmin(np.abs(gps - p_p).sum(axis=1) + np.abs(gns - p_n).sum(axis=1))
    tol = grid_step + 1e-9
    mixture_err = np.abs(pi_p * gps + pi_n * gns - p).max(axis=1)
    return EquilibriumReport(
        minimizer_gp=gps[nearest],
        minimizer_gn=gns[nearest],
        min_value=best,
        satisfies_gp_eq_pp=bool(np.abs(gps[nearest] - p_p).max() <= tol),
        satisfies_gn_eq_pn=bool(np.abs(gns[nearest] - p_n).max() <= tol),
        satisfies_mixture=bool(mixture_err[nearest] <= tol),
        n_tied=len(gps),
        grid_contains_target=bool((mixture_err <= tol).any()),
        value_slack=grid_step,
    )
