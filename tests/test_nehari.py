"""Fiber root solve and manifold projection."""

import dataclasses

import numpy as np
import pytest

from spgs.errors import NonCoerciveError, ZeroFieldError
from spgs.functional import energy_breakdown
from spgs.grid import GridSpec
from spgs.nehari import (
    _solve_fiber,
    nehari_project,
    ray_max_check,
    ray_profile,
)
from spgs.potential import Constant
from spgs.sampling import random_smooth_field


@pytest.fixture(scope="module")
def grid():
    return GridSpec(L=6.0, n=16)


@pytest.fixture(scope="module")
def v_one(grid):
    return Constant(1.0).sample(grid)


def bisection_oracle(A1, B, C, p, iters=300):
    """Independent root solve of t^2 A1 + t^4 B - t^(p+1) C on the raw t axis."""

    def g(t):
        return t**2 * A1 + t**4 * B - t ** (p + 1) * C

    lo, hi = 1e-8, 10.0
    while g(hi) > 0:
        hi *= 10.0
        assert hi < 1e60
    assert g(lo) > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFiberRoot:
    def test_closed_form_when_b_zero(self):
        # t = (A1/C)^(1/(p-1))
        assert _solve_fiber(1.0, 0.0, 1.0, 4.0) == pytest.approx(1.0, abs=1e-12)
        assert _solve_fiber(8.0, 0.0, 1.0, 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_supergolden_case(self):
        # (A1, B, C) = (1, 1, 1), p = 4: t^3 = t^2 + 1
        t = _solve_fiber(1.0, 1.0, 1.0, 4.0)
        assert t == pytest.approx(1.4655712318767682, abs=1e-12)
        assert t == pytest.approx(bisection_oracle(1.0, 1.0, 1.0, 4.0), abs=1e-12)

    @pytest.mark.parametrize("p", [3.2, 3.9, 4.7])
    def test_against_bisection_oracle(self, p):
        rng = np.random.default_rng(int(100 * p))
        for _ in range(20):
            A1 = float(rng.uniform(0.1, 10.0))
            B = float(rng.uniform(0.0, 10.0))
            C = float(rng.uniform(0.1, 10.0))
            t = _solve_fiber(A1, B, C, p)
            assert t == pytest.approx(bisection_oracle(A1, B, C, p), rel=1e-11)

    def test_errors(self):
        with pytest.raises(ZeroFieldError):
            _solve_fiber(1.0, 1.0, 0.0, 4.0)
        with pytest.raises(NonCoerciveError):
            _solve_fiber(-0.5, 1.0, 1.0, 4.0)

    def test_unimodal_sign_pattern(self):
        # q(s) on a log-spaced scan is positive then negative, one change
        rng = np.random.default_rng(5)
        for _ in range(20):
            A1 = float(rng.uniform(0.1, 5.0))
            B = float(rng.uniform(0.0, 5.0))
            C = float(rng.uniform(0.1, 5.0))
            p = float(rng.uniform(3.1, 4.9))
            m = 0.5 * (p - 1.0)
            t = _solve_fiber(A1, B, C, p)
            s_root = t * t
            scan = np.geomspace(s_root * 1e-6, s_root * 1e3, 64)
            signs = np.sign(A1 + scan * B - scan**m * C)
            changes = np.sum(np.abs(np.diff(np.where(signs == 0, 1, signs))) > 0)
            assert changes == 1
            assert signs[0] > 0 and signs[-1] < 0


class TestProjection:
    def test_on_manifold_invariant(self, grid, v_one):
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = random_smooth_field(grid, rng)
            fs = nehari_project(u, v_one, 4.0)
            sb = fs.scaled_breakdown
            assert abs(sb.G) <= 1e-10 * sb.magnitude
            assert fs.t_bar > 0

    def test_fixed_point(self, grid, v_one):
        rng = np.random.default_rng(2)
        u = random_smooth_field(grid, rng)
        fs = nehari_project(u, v_one, 4.0)
        again = nehari_project(u.scaled(fs.t_bar), v_one, 4.0)
        assert again.t_bar == pytest.approx(1.0, abs=1e-10)

    def test_ray_invariance(self, grid, v_one):
        rng = np.random.default_rng(3)
        u = random_smooth_field(grid, rng)
        t1 = nehari_project(u, v_one, 4.0).t_bar
        for c in (0.5, 2.0, 7.5):
            tc = nehari_project(u.scaled(c), v_one, 4.0).t_bar
            assert tc == pytest.approx(t1 / c, rel=1e-10)

    def test_zero_field_error(self, grid, v_one):
        from spgs.grid import ScalarField

        with pytest.raises(ZeroFieldError):
            nehari_project(ScalarField.zeros(grid), v_one, 4.0)

    def test_smooth_dependence_on_field(self, grid, v_one):
        # computational surrogate for manifold smoothness: t_bar moves
        # proportionally to small field perturbations
        from spgs.grid import ScalarField

        rng = np.random.default_rng(4)
        u = random_smooth_field(grid, rng)
        du = random_smooth_field(grid, rng)
        fs = nehari_project(u, v_one, 4.0)
        t0, h1_u = fs.t_bar, fs.breakdown.h1
        h1_du = energy_breakdown(du, v_one, 4.0).h1
        for eps in (1e-3, 1e-4):
            pert = ScalarField(grid, u.values + eps * du.values)
            t1 = nehari_project(pert, v_one, 4.0).t_bar
            assert abs(t1 - t0) / t0 <= 50.0 * eps * h1_du / h1_u

    def test_projected_norm_matches_scaling(self, grid, v_one):
        rng = np.random.default_rng(13)
        u = random_smooth_field(grid, rng)
        fs = nehari_project(u, v_one, 4.0)
        # C is the L^5 integral at p = 4, of t_bar u fresh and of u
        direct = fs.scaled_breakdown.C ** 0.2
        via_ray = fs.t_bar * fs.breakdown.C ** 0.2
        assert direct == pytest.approx(via_ray, rel=1e-12)


class TestRayMax:
    def test_projection_is_ray_max(self, grid, v_one):
        rng = np.random.default_rng(6)
        for _ in range(5):
            u = random_smooth_field(grid, rng)
            fs = nehari_project(u, v_one, 4.0)
            assert ray_max_check(fs)

    def test_equality_at_t_bar(self, grid, v_one):
        rng = np.random.default_rng(7)
        u = random_smooth_field(grid, rng)
        eb = nehari_project(u, v_one, 4.0)
        base = nehari_project(u, v_one, 4.0).scaled_breakdown
        prof = ray_profile(
            nehari_project(u, v_one, 4.0).scaled_breakdown, np.array([1.0])
        )
        assert prof[0] == pytest.approx(base.I, rel=1e-12)

    def test_perturbed_scaling_fails(self, grid, v_one):
        rng = np.random.default_rng(8)
        u = random_smooth_field(grid, rng)
        fs = nehari_project(u, v_one, 4.0)
        fake = dataclasses.replace(
            fs,
            t_bar=fs.t_bar * 1.01,
            scaled_breakdown=fs.scaled_breakdown.at_scale(1.01),
        )
        assert not ray_max_check(fake)

