"""Exact minimax-equilibrium checks on finite discrete distributions.

Continuous densities are replaced by probability mass vectors on a shared
finite support, so the closed-form optimal discriminators, the equilibrium
value of the three-player game, and the location of its minimum can all be
verified by direct arithmetic and simplex-grid enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .data import check_priors, is_distribution
from .nets import PROB_EPS

# Equilibrium value of the label game in nats: 2*ln(1/2).
EQUILIBRIUM_VALUE = -2.0 * math.log(2.0)

# the largest simplex grid enumerated: k=4 at step 0.05 (3.1M p_gp, p_gn pairs)
MAX_GRID_POINTS = math.comb(23, 3)

# grid pairs whose game values lie within this of the minimum tie
TIE_TOL = 1e-9


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


def optimal_discriminators(p_p, p_gp, p_n, p_gn) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise optimal discriminators (D*_p, D*_n), each p_real/(p_real +
    p_fake), clamped. Where both masses vanish D* is 0/0, set to 0.5."""
    p_p, p_gp, p_n, p_gn = map(as_dist, (p_p, p_gp, p_n, p_gn))
    _same_support(p_p, p_gp, p_n, p_gn)

    def ratio(real, fake):
        denom = real + fake
        undef = denom == 0.0
        d = np.where(undef, 0.5, real / np.where(undef, 1.0, denom))
        return np.clip(d, PROB_EPS, 1.0 - PROB_EPS)

    return ratio(p_p, p_gp), ratio(p_n, p_gn)


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
    zero-mass points contribute nothing. The masses and priors must be checked
    (as_dist, check_priors); verify_equilibrium checks them once per grid.
    """
    p, p_gp, p_gn = (np.asarray(m, dtype=np.float64) for m in (p, p_gp, p_gn))
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


def class_values(p_p, p_n, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each class's two-player value with its optimal discriminator, for every
    grid point as that class's generator: (V(p_p, g, D*_p), V(p_n, g, D*_n))
    over the rows g of `grid`. Each equals 2*JSD(real, g) - 2*ln(2)."""
    pos, neg = np.empty(len(grid)), np.empty(len(grid))
    for i, g in enumerate(grid):
        d_p, d_n = optimal_discriminators(p_p, g, p_n, g)
        pos[i], neg[i] = value_fn(p_p, g, d_p), value_fn(p_n, g, d_n)
    return pos, neg


def _ties(values: np.ndarray, grid: np.ndarray, p_p, p_n):
    """(minimum, tied p_gp rows, tied p_gn rows, index of the tie nearest
    (p_p, p_n) in L1) of a grid x grid array of game values. Every pair within
    TIE_TOL of the minimum is a tie; of equally near ties the first in
    row-major order is taken."""
    best = float(values.min())
    tied_gp, tied_gn = np.divmod(np.flatnonzero(values <= best + TIE_TOL), len(grid))
    gps, gns = grid[tied_gp], grid[tied_gn]
    nearest = np.argmin(np.abs(gps - p_p).sum(axis=1) + np.abs(gns - p_n).sum(axis=1))
    return best, gps, gns, nearest


def _on_class(tied: np.ndarray, target: np.ndarray, pi: float, term: np.ndarray, tol: float):
    """True if every whole-game tie puts this generator on one grid point within
    tol of its class. None (free) at pi == 0, or when pi times the gap between
    its term's two least distinct values is within TIE_TOL: above that, any
    other grid point raises the game past a tie when the target is on the grid."""
    least = np.unique(term)[:2]
    if pi == 0 or (least.size == 2 and pi * (least[1] - least[0]) <= TIE_TOL):
        return None
    return bool((tied == tied[0]).all() and np.abs(tied[0] - target).max() <= tol)


@dataclass(eq=False)
class EquilibriumReport:
    minimizer_gp: np.ndarray
    minimizer_gn: np.ndarray
    min_value: float
    n_tied: int
    # every label-game tie reproduces the data mixture within a grid step
    ties_reproduce_mixture: bool
    value_slack: float
    # the whole game: the label game plus each class's two-player value
    whole_minimizer_gp: np.ndarray
    whole_minimizer_gn: np.ndarray
    whole_min_value: float
    whole_n_tied: int
    # _on_class for each generator: True, False, or None where it is free
    whole_gp_on_class: bool | None
    whole_gn_on_class: bool | None

    @property
    def gap_to_equilibrium(self) -> float:
        return self.min_value - EQUILIBRIUM_VALUE

    @property
    def whole_gap(self) -> float:
        return self.whole_min_value - 2.0 * EQUILIBRIUM_VALUE

    @property
    def passed(self) -> bool:
        return (
            self.ties_reproduce_mixture
            and False not in (self.whole_gp_on_class, self.whole_gn_on_class)
            and abs(self.gap_to_equilibrium) <= self.value_slack
            and abs(self.whole_gap) <= self.value_slack
        )

    def lines(self) -> list[str]:
        ok = lambda b: "free" if b is None else "ok" if b else "FAIL"
        unique = lambda n: "no (%d tied)" % n if n > 1 else "yes"
        return [
            f"grid minimizer p_gp = {self.minimizer_gp.tolist()}",
            f"grid minimizer p_gn = {self.minimizer_gn.tolist()}",
            f"grid minimum       = {self.min_value!r}",
            f"gap to 2*ln(1/2)   = {self.gap_to_equilibrium!r} (slack {self.value_slack!r})",
            f"ties reproduce the data mixture within a step: {ok(self.ties_reproduce_mixture)}",
            f"minimizer unique on grid: {unique(self.n_tied)}",
            f"whole-game minimizer p_gp = {self.whole_minimizer_gp.tolist()}",
            f"whole-game minimizer p_gn = {self.whole_minimizer_gn.tolist()}",
            f"whole-game minimum       = {self.whole_min_value!r}",
            f"gap to 4*ln(1/2)         = {self.whole_gap!r} (slack {self.value_slack!r})",
            *(f"whole-game ties put p_g{c} on one point within a step of p_{c}: {ok(on_class)}"
              for c, on_class in (("p", self.whole_gp_on_class), ("n", self.whole_gn_on_class))),
            f"whole-game minimizer unique on grid: {unique(self.whole_n_tied)}",
            f"overall: {'PASS' if self.passed else 'FAIL'}",
        ]


def verify_equilibrium(
    p_p, p_n, pi_p: float, grid_step: float = 0.05
) -> EquilibriumReport:
    """Enumerate (p_gp, p_gn) on the simplex grid and minimize two games.

    The label game is v_star. It sees the generators only through the mixture
    pi_p*p_gp + pi_n*p_gn, so every tie must reproduce the data mixture within
    a grid step, and the minimum must reach 2*ln(1/2). The whole game adds
    pi_p*V(p_p, p_gp, D*_p) + pi_n*V(p_n, p_gn, D*_n) (class_values), so every
    tie must put each generator on its class (_on_class), and the minimum must
    reach 4*ln(1/2). The printed minimizers are the ties nearest (p_p, p_n).
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
    ).reshape(len(grid), len(grid))
    best, gps, gns, nearest = _ties(values, grid, p_p, p_n)
    tol = grid_step + TIE_TOL

    pos, neg = class_values(p_p, p_n, grid)
    whole = values + pi_p * pos[:, None] + pi_n * neg[None, :]
    w_best, w_gps, w_gns, w_nearest = _ties(whole, grid, p_p, p_n)
    return EquilibriumReport(
        minimizer_gp=gps[nearest],
        minimizer_gn=gns[nearest],
        min_value=best,
        n_tied=len(gps),
        ties_reproduce_mixture=bool(np.abs(pi_p * gps + pi_n * gns - p).max() <= tol),
        value_slack=grid_step,
        whole_minimizer_gp=w_gps[w_nearest],
        whole_minimizer_gn=w_gns[w_nearest],
        whole_min_value=w_best,
        whole_n_tied=len(w_gps),
        whole_gp_on_class=_on_class(w_gps, p_p, pi_p, pos, tol),
        whole_gn_on_class=_on_class(w_gns, p_n, pi_n, neg, tol),
    )
