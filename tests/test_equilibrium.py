import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimgan import equilibrium
from claimgan.equilibrium import (
    EQUILIBRIUM_VALUE,
    MAX_GRID_POINTS,
    as_dist,
    jsd,
    optimal_discriminators,
    optimal_t_binary,
    optimal_t_ternary,
    simplex_grid,
    v_star,
    value_fn,
    verify_equilibrium,
)

LN4 = math.log(4.0)


class TestAsDist:
    def test_accepts_valid(self):
        p = as_dist([0.25, 0.75])
        assert p.sum() == 1.0

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            as_dist([0.5, -0.5, 1.0])
        with pytest.raises(ValueError):
            as_dist([0.5, 0.6])
        with pytest.raises(ValueError):
            as_dist([])
        for mass in ([math.nan, 1.0], [1.0, math.nan], [1 + 1e-10, 0.0]):
            with pytest.raises(ValueError, match="must lie in"):
                as_dist(mass)


class TestOptimalT:
    def test_binary_closed_form(self):
        assert optimal_t_binary(0.6, 0.2) == pytest.approx(0.75, abs=1e-15)
        assert optimal_t_binary(1.0, 1.0) == 0.5

    def test_binary_is_argmax_numerically(self):
        a, b = 0.37, 0.81
        t_star = optimal_t_binary(a, b)
        grid = np.linspace(1e-4, 1 - 1e-4, 9999)
        vals = a * np.log(grid) + b * np.log(1 - grid)
        assert abs(grid[np.argmax(vals)] - t_star) < 1e-3

    def test_ternary_closed_form_and_symmetry(self):
        assert optimal_t_ternary(0.5, 0.3, 0.2) == pytest.approx(0.5, abs=1e-15)
        assert optimal_t_ternary(0.4, 0.1, 0.3) == optimal_t_ternary(0.4, 0.3, 0.1)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            optimal_t_binary(0.0, 0.0)
        with pytest.raises(ValueError):
            optimal_t_ternary(-0.1, 0.5, 0.5)


class TestOptimalDiscriminators:
    def test_equal_masses_give_half(self):
        d_p, d_n = optimal_discriminators([0.5, 0.5], [0.5, 0.5], [0.3, 0.7], [0.3, 0.7])
        assert np.allclose(d_p, 0.5) and np.allclose(d_n, 0.5)

    def test_frozen_pointwise_values(self):
        d_p, _ = optimal_discriminators(
            [0.6, 0.4], [0.2, 0.8], [0.5, 0.5], [0.5, 0.5]
        )
        assert d_p[0] == pytest.approx(0.75, abs=1e-12)
        assert d_p[1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_disjoint_supports_clamped(self):
        d_p, _ = optimal_discriminators([1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.5])
        assert d_p[0] < 1.0 and d_p[1] > 0.0

    def test_zero_mass_points_flagged(self):
        d_p, _ = optimal_discriminators(
            [1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]
        )
        assert d_p[1] == 0.5

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            optimal_discriminators([1.0], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5])


class TestValueFn:
    def test_uniform_discriminator(self):
        assert value_fn([0.6, 0.4], [0.2, 0.8], [0.5, 0.5]) == pytest.approx(
            -LN4, abs=1e-12
        )

    def test_equal_dists_at_optimum(self):
        p = [0.3, 0.7]
        d_p, _ = optimal_discriminators(p, p, p, p)
        assert value_fn(p, p, d_p) == pytest.approx(-LN4, abs=1e-12)

    def test_frozen_value(self):
        # 0.6 ln .75 + 0.4 ln(1/3) + 0.2 ln .25 + 0.8 ln(2/3)
        v = value_fn([0.6, 0.4], [0.2, 0.8], [0.75, 1.0 / 3.0])
        assert v == pytest.approx(-1.2136851176, abs=1e-9)

    def test_optimum_dominates_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p_real = as_dist(rng.dirichlet(np.ones(3)))
            p_fake = as_dist(rng.dirichlet(np.ones(3)))
            d_star = p_real / (p_real + p_fake)
            v_opt = value_fn(p_real, p_fake, d_star)
            for _ in range(50):
                assert v_opt >= value_fn(p_real, p_fake, rng.uniform(0.01, 0.99, 3)) - 1e-12


class TestVStar:
    def test_equilibrium_value_constant(self):
        assert EQUILIBRIUM_VALUE == pytest.approx(-2 * math.log(2), abs=1e-15)

    def test_matched_generators_hit_equilibrium(self):
        p_p, p_n, pi_p = [0.7, 0.3], [0.2, 0.8], 0.6
        p = 0.6 * np.array(p_p) + 0.4 * np.array(p_n)
        assert v_star(p, p_p, p_n, 0.6, 0.4) == pytest.approx(
            EQUILIBRIUM_VALUE, abs=1e-12
        )

    def test_jsd_identity(self):
        # v_star(p, gp, gn) = 2*JSD(p, q) - 2 ln 2 with q the prior mixture
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = rng.dirichlet(np.ones(4))
            gp = rng.dirichlet(np.ones(4))
            gn = rng.dirichlet(np.ones(4))
            pi_p = rng.uniform(0.05, 0.95)
            q = pi_p * gp + (1 - pi_p) * gn
            lhs = v_star(p, gp, gn, pi_p, 1 - pi_p)
            assert lhs == pytest.approx(2 * jsd(p, q) - 2 * math.log(2), abs=1e-9)

    def test_lower_bounded_by_equilibrium(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            gp = rng.dirichlet(np.ones(3))
            gn = rng.dirichlet(np.ones(3))
            assert v_star(p, gp, gn, 0.5, 0.5) >= EQUILIBRIUM_VALUE - 1e-9


class TestJsd:
    def test_identical_dists(self):
        assert jsd([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_supports_max(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_frozen_value(self):
        # 0.9*ln(1.8) + 0.1*ln(0.2), by symmetry of the two divergences
        assert jsd([0.9, 0.1], [0.1, 0.9]) == pytest.approx(0.3680642071684971, abs=1e-12)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_nonnegative(self, a, b):
        p = np.array(a) / sum(a)
        q = np.array(b) / sum(b)
        assert jsd(p, q) >= -1e-12
        assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-12)


class TestSimplexGrid:
    def test_counts_and_normalization(self):
        g = simplex_grid(2, 0.25)
        assert g.shape == (5, 2)
        assert np.allclose(g.sum(axis=1), 1.0)
        # k=3, n=4: C(6,2)=15 compositions
        assert simplex_grid(3, 0.25).shape == (15, 3)
        # k=1 has no cuts: its one point is all the mass on one outcome
        assert simplex_grid(1, 0.25).tolist() == [[1.0]]

    def test_contains_corners(self):
        g = simplex_grid(3, 0.5)
        assert any(np.array_equal(row, [1.0, 0.0, 0.0]) for row in g)

    def test_rejects_nondivisor_step(self):
        with pytest.raises(ValueError):
            simplex_grid(2, 0.3)

    def test_point_cap(self):
        # k=4 at step 0.05 is the largest grid; k=4 at 0.04 has C(28, 3) points
        assert simplex_grid(4, 0.05).shape == (MAX_GRID_POINTS, 4) == (1771, 4)
        with pytest.raises(ValueError, match="gives 3276 points"):
            simplex_grid(4, 0.04)
        with pytest.raises(ValueError, match="points"):
            simplex_grid(2, 1e-7)

    @pytest.mark.parametrize("step", [0.0, -0.5, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_step(self, step):
        # -0.5 and -1.0 pass the "divides 1" test and used to give an empty grid
        with pytest.raises(ValueError, match="positive and finite"):
            simplex_grid(2, step)


class TestVerifyEquilibrium:
    def test_disjoint_onehot_case(self):
        report = verify_equilibrium([1.0, 0.0], [0.0, 1.0], pi_p=0.5, grid_step=0.05)
        assert report.passed
        assert report.n_tied > 1  # any (a,1-a)/(1-a,a) pair ties
        assert np.allclose(report.minimizer_gp, [1.0, 0.0])
        assert np.allclose(report.minimizer_gn, [0.0, 1.0])

    def test_overlapping_case(self):
        report = verify_equilibrium([0.75, 0.25], [0.25, 0.75], pi_p=0.5, grid_step=0.05)
        assert report.passed
        assert abs(report.gap_to_equilibrium) <= report.value_slack

    def test_asymmetric_priors(self):
        report = verify_equilibrium([0.8, 0.2], [0.4, 0.6], pi_p=0.7, grid_step=0.05)
        assert report.passed

    def test_report_lines_render(self):
        report = verify_equilibrium([1.0, 0.0], [0.0, 1.0], pi_p=0.5, grid_step=0.25)
        lines = report.lines()
        assert any("PASS" in l for l in lines)

    def test_large_support_rejected(self):
        with pytest.raises(ValueError):
            verify_equilibrium([0.2] * 5, [0.2] * 5, pi_p=0.5)


class TestGridTies:
    """Ties are every grid pair within 1e-9 of the grid minimum; v_star is
    replaced by a crafted sequence of values, one per pair in row-major order."""

    GRID = simplex_grid(2, 0.5)  # 3 points, 9 pairs

    def verify_with_values(self, monkeypatch, head):
        values = list(head) + [2.0] * (len(self.GRID) ** 2 - len(head))
        calls = []

        def crafted(p, gp, gn, pi_p, pi_n):
            calls.append((gp.tolist(), gn.tolist()))
            return values[len(calls) - 1]

        monkeypatch.setattr(equilibrium, "v_star", crafted)
        report = verify_equilibrium([1.0, 0.0], [0.0, 1.0], pi_p=0.5, grid_step=0.5)
        grid = self.GRID.tolist()
        assert calls == [(gp, gn) for gp in grid for gn in grid]
        return report

    def test_a_tie_of_the_minimum_is_kept_when_a_lower_value_follows(self, monkeypatch):
        # 1 - 0.6e-9 is within 1e-9 of the minimum 1 - 1.2e-9; 1.0 is not
        report = self.verify_with_values(monkeypatch, [1.0, 1.0 - 0.6e-9, 1.0 - 1.2e-9])
        assert report.min_value == 1.0 - 1.2e-9
        assert report.n_tied == 2

    def test_a_value_over_1e9_above_the_minimum_is_no_tie(self, monkeypatch):
        # 1 + 0.9e-9 is 1.4e-9 above the minimum 1 - 0.5e-9; 1.0 is a tie
        report = self.verify_with_values(monkeypatch, [1.0, 1.0 + 0.9e-9, 1.0 - 0.5e-9])
        assert report.min_value == 1.0 - 0.5e-9
        assert report.n_tied == 2

    def test_the_nearest_tie_to_the_target_is_the_minimizer(self, monkeypatch):
        # pairs 0 ([0,1],[0,1]) and 6 ([1,0],[0,1]) tie; pair 6 is the target
        report = self.verify_with_values(monkeypatch, [0.5, 2.0, 2.0, 2.0, 2.0, 2.0, 0.5])
        assert report.n_tied == 2
        assert report.minimizer_gp.tolist() == [1.0, 0.0]
        assert report.minimizer_gn.tolist() == [0.0, 1.0]

    def test_the_first_of_equally_near_ties_is_the_minimizer(self, monkeypatch):
        # pairs 1 ([0,1],[.5,.5]) and 5 ([.5,.5],[1,0]) are both 3 from the target
        report = self.verify_with_values(monkeypatch, [2.0, 0.5, 2.0, 2.0, 2.0, 0.5])
        assert report.minimizer_gp.tolist() == [0.0, 1.0]
        assert report.minimizer_gn.tolist() == [0.5, 0.5]


class TestReportVerdict:
    """`passed` is the conjunction of five measured conditions."""

    @pytest.fixture
    def report(self):
        report = verify_equilibrium([0.75, 0.25], [0.25, 0.75], pi_p=0.5, grid_step=0.05)
        assert report.passed
        return report

    @pytest.mark.parametrize(
        "field", ["satisfies_gp_eq_pp", "satisfies_gn_eq_pn", "satisfies_mixture", "grid_contains_target"]
    )
    def test_fails_on_any_failed_check(self, report, field):
        assert not dataclasses.replace(report, **{field: False}).passed

    def test_fails_when_the_gap_exceeds_the_slack(self, report):
        assert not dataclasses.replace(report, min_value=EQUILIBRIUM_VALUE + 0.06).passed
        assert not dataclasses.replace(report, min_value=EQUILIBRIUM_VALUE - 0.06).passed
        near = dataclasses.replace(report, min_value=EQUILIBRIUM_VALUE + 0.01)
        assert near.passed
        assert not dataclasses.replace(near, value_slack=0.005).passed

    def test_fails_when_the_objective_swaps_the_generators(self, monkeypatch):
        # with the priors' weights on the wrong generators, the minimizers
        # nearest the target reach 0.8*p_gn + 0.2*p_gp = p, not p_gn = p_n
        v_star = equilibrium.v_star
        monkeypatch.setattr(
            equilibrium, "v_star", lambda p, gp, gn, pi_p, pi_n: v_star(p, gn, gp, pi_p, pi_n)
        )
        report = verify_equilibrium([1.0, 0.0], [0.0, 1.0], pi_p=0.8, grid_step=0.05)
        assert not report.satisfies_gn_eq_pn and not report.satisfies_mixture
        assert not report.passed

    @pytest.mark.parametrize("n_tied", [1, 2, 18])
    def test_uniqueness_line(self, report, n_tied):
        line = next(l for l in dataclasses.replace(report, n_tied=n_tied).lines() if "unique" in l)
        assert line.endswith("yes") == (n_tied == 1)
        assert line.endswith(f"no ({n_tied} tied)") == (n_tied > 1)
