"""Action breakdown, gradient exactness, preconditioner."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spgs.grid import KINETICS, GridSpec, ScalarField, minus_laplacian
from spgs.functional import (
    EnergyBreakdown,
    el_residual,
    energy_breakdown,
    precondition,
)
from spgs.poisson import solve_phi
from spgs.potential import Constant, CoulombSingular
from spgs.sampling import gaussian_blob, random_smooth_field
from test_grid import kinetic_energy


@pytest.fixture(scope="module")
def grid():
    return GridSpec(L=6.0, n=16)


@pytest.fixture(scope="module")
def v_one(grid):
    return Constant(1.0).sample(grid)


def fields(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    return [random_smooth_field(grid, rng) for _ in range(count)]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kinetic", ["fd", "spectral"])
def test_split_sums_and_residual_match_one_pass(on_cpus, slabs, cpus, n, kinetic):
    # the energy's split into A1, B, C and the residual match their one-pass
    # formulas over whole fields, with as-built or one-plane slabs, on one CPU or two
    on_cpus(cpus)
    g = GridSpec(L=4.0, n=n, kinetic=kinetic)
    rng = np.random.default_rng(n)
    u, v = (ScalarField(g, rng.standard_normal(g.num_nodes)) for _ in range(2))
    p, w = 4.0, g.h**3
    phi = solve_phi(u, residual_correction=False)
    mlap = minus_laplacian(u).values
    u2 = u.values * u.values
    kin = w * float(np.sum(u.values * mlap))
    a1 = kin + w * float(np.sum(v.values * u2))
    b = w * float(np.sum(phi.values * u2))
    c = w * float(np.sum(np.abs(u.values) ** (p + 1.0)))
    h1 = math.sqrt(kin + w * float(np.sum(u2)))
    r = (v.values + phi.values) * u.values + mlap - np.copysign(np.abs(u.values) ** p, u.values)
    norm = math.sqrt(w * float(np.sum(r * r)))

    eb = energy_breakdown(u, v, p, phi=phi)
    got_r, got_norm, got_eb = el_residual(u, v, p, phi=phi)
    for e in (eb, got_eb):
        assert (e.A1, e.B, e.C, e.h1) == (a1, b, c, h1)
    assert np.array_equal(got_r.values, r) and got_norm == norm


class TestEnergyBreakdown:
    def test_zero_field(self, grid, v_one):
        eb = energy_breakdown(ScalarField.zeros(grid), v_one, 4.0)
        assert (eb.A1, eb.B, eb.C, eb.I, eb.G, eb.J) == (0, 0, 0, 0, 0, 0)

    def test_p_range_enforced(self, grid, v_one):
        u = fields(grid, 1)[0]
        for bad in (3.0, 5.0, 2.5, 6.0):
            with pytest.raises(ValueError):
                energy_breakdown(u, v_one, bad)

    @pytest.mark.parametrize("p", [3.5, 4.0, 4.5])
    def test_identity_on_random_fields(self, grid, v_one, p):
        for u in fields(grid, 10, seed=int(10 * p)):
            eb = energy_breakdown(u, v_one, p)
            lhs = eb.I - eb.J
            rhs = eb.G / (p + 1.0)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(eb.I), abs(eb.J), 1.0)

    def test_b_and_c_nonnegative(self, grid, v_one):
        for u in fields(grid, 5, seed=2):
            eb = energy_breakdown(u, v_one, 4.0)
            assert eb.B >= 0.0 and eb.C >= 0.0

    def test_homogeneity_ladder(self, grid, v_one):
        for u in fields(grid, 3, seed=3):
            eb = energy_breakdown(u, v_one, 4.0)
            for t in (0.5, 1.0, 2.0):
                fresh = energy_breakdown(u.scaled(t), v_one, 4.0)
                ray = eb.at_scale(t)
                assert fresh.I == pytest.approx(ray.I, rel=1e-10)
                assert fresh.G == pytest.approx(ray.G, rel=1e-10, abs=1e-10)
                assert fresh.h1 == pytest.approx(ray.h1, rel=1e-10)

    def test_h1_is_the_grid_h1_norm(self, grid):
        # in each kinetic, the norm of the descent's stop test squares to
        # integral |grad u|^2 + u^2, which is A1 at V = 1
        for kinetic in KINETICS:
            g = replace(grid, kinetic=kinetic)
            for u in fields(g, 3, seed=9):
                eb = energy_breakdown(u, Constant(1.0).sample(g), 4.0)
                assert eb.h1**2 == pytest.approx(eb.A1, rel=1e-13), kinetic

    @pytest.mark.parametrize("kinetic", ["fd", "spectral"])
    def test_residual_carries_the_breakdown(self, grid, kinetic):
        g = replace(grid, kinetic=kinetic)
        u, v = fields(g, 1, seed=10)[0], Constant(1.0).sample(g)
        assert el_residual(u, v, 4.0)[2] == energy_breakdown(u, v, 4.0)

    def test_quadratures_against_closed_forms(self):
        # gaussian exp(-r^2/2): A1, B and C have closed forms; the spectral
        # kinetic form is the one able to meet 1e-4 at this resolution
        g = GridSpec(L=10.0, n=40, kinetic="spectral")
        u = ScalarField.from_function(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0))
        v = Constant(1.0).sample(g)
        eb = energy_breakdown(u, v, 4.0)
        # integral |grad u|^2 = (3/2) pi^(3/2); integral u^2 = pi^(3/2)
        a1_exact = 2.5 * math.pi**1.5
        assert eb.A1 == pytest.approx(a1_exact, rel=1e-4)
        # integral |u|^5 = (2 pi / 5)^(3/2)
        assert eb.C == pytest.approx((2.0 * math.pi / 5.0) ** 1.5, rel=1e-4)
        # u^2 = exp(-r^2), charge pi^(3/2): B = pi^(3/2) / (2 sqrt 2), a centred
        # radial charge the screened sine solve gets exactly (measured 4.4e-9)
        assert eb.B == pytest.approx(math.pi**1.5 / (2.0 * math.sqrt(2.0)), rel=1e-7)


class TestResidual:
    def test_zero_field(self, grid, v_one):
        r, norm, _ = el_residual(ScalarField.zeros(grid), v_one, 4.0)
        assert norm == 0.0
        assert np.all(r.values == 0.0)

    @pytest.mark.parametrize("kinetic", ["fd", "spectral"])
    @pytest.mark.parametrize("p", [3.5, 4.0, 4.5])
    def test_directional_derivative(self, grid, p, kinetic):
        g = replace(grid, kinetic=kinetic)
        v_one = Constant(1.0).sample(g)
        rng = np.random.default_rng(int(1000 * p) + (0 if kinetic == "fd" else 1))
        for _ in range(3):
            u = random_smooth_field(g, rng)
            v = random_smooth_field(g, rng)
            r, _, _ = el_residual(u, v_one, p)
            ip = g.h**3 * float(np.sum(r.values * v.values))
            eps = 1e-5
            i_plus = energy_breakdown(ScalarField(g, u.values + eps * v.values), v_one, p).I
            i_minus = energy_breakdown(ScalarField(g, u.values - eps * v.values), v_one, p).I
            fd = (i_plus - i_minus) / (2.0 * eps)
            assert fd == pytest.approx(ip, rel=1e-6)

    def test_gradient_with_singular_potential(self, grid):
        v_sing = CoulombSingular(1.0, 0.05, 2).sample(grid)
        rng = np.random.default_rng(77)
        u = random_smooth_field(grid, rng)
        v = random_smooth_field(grid, rng)
        r, _, _ = el_residual(u, v_sing, 4.0)
        ip = grid.h**3 * float(np.sum(r.values * v.values))
        eps = 1e-5
        i_plus = energy_breakdown(ScalarField(grid, u.values + eps * v.values), v_sing, 4.0).I
        i_minus = energy_breakdown(ScalarField(grid, u.values - eps * v.values), v_sing, 4.0).I
        assert (i_plus - i_minus) / (2.0 * eps) == pytest.approx(ip, rel=1e-6)

    def test_g_equals_residual_pairing_with_u(self, grid, v_one):
        for u in fields(grid, 5, seed=4):
            eb = energy_breakdown(u, v_one, 4.0)
            r, _, _ = el_residual(u, v_one, 4.0)
            ip = grid.h**3 * float(np.sum(r.values * u.values))
            assert eb.G == pytest.approx(ip, rel=1e-10)

    def test_norm_is_weighted_l2(self, grid, v_one):
        u = fields(grid, 1, seed=5)[0]
        r, norm, _ = el_residual(u, v_one, 4.0)
        assert norm == pytest.approx(math.sqrt(grid.h**3 * float(np.sum(r.values**2))))


class TestKineticVariants:
    def test_spectral_matches_fd_for_smooth_field(self):
        g = GridSpec(L=8.0, n=48)
        u = ScalarField.from_function(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 4.0))
        t_fd = kinetic_energy(u)
        t_sp = kinetic_energy(u.on(replace(g, kinetic="spectral")))
        assert t_sp == pytest.approx(t_fd, rel=0.01)

    def test_spectral_is_quadratic_form_of_its_laplacian(self, grid):
        # both kinetics: the energy is the quadratic form of its -Lap
        for kinetic in ("fd", "spectral"):
            u = fields(replace(grid, kinetic=kinetic), 1, seed=6)[0]
            t = kinetic_energy(u)
            ip = grid.h**3 * float(np.sum(u.values * minus_laplacian(u).values))
            assert t == pytest.approx(ip, rel=1e-12)

    def test_unknown_variant_rejected(self, grid):
        with pytest.raises(ValueError):
            replace(grid, kinetic="secret")


class TestPrecondition:
    def test_zero(self, grid):
        out = precondition(ScalarField.zeros(grid))
        assert np.all(out.values == 0.0)

    def test_linearity(self, grid):
        r = fields(grid, 1, seed=7)[0]
        a = precondition(ScalarField(grid, 3.0 * r.values))
        b = precondition(r)
        assert np.allclose(a.values, 3.0 * b.values, rtol=1e-12)

    def test_eigenmode_relation(self, grid):
        # a product of sine modes is an eigenvector of the zero-ghost
        # 7-point Laplacian; the preconditioner must divide by mu + 1
        n, h = grid.n, grid.h
        j = np.arange(n)

        def axis_mode(k):
            return np.sin(np.pi * k * (j + 1) / (n + 1))

        mode3d = (
            axis_mode(1)[:, None, None]
            * axis_mode(2)[None, :, None]
            * axis_mode(3)[None, None, :]
        )
        r = ScalarField.from_3d(grid, mode3d)
        mu = sum((4.0 / h**2) * math.sin(math.pi * k / (2 * (n + 1))) ** 2 for k in (1, 2, 3))
        out = precondition(r)
        assert np.allclose(out.values, r.values / (mu + 1.0), rtol=1e-8)

    def test_positive_definite(self, grid):
        for r in fields(grid, 4, seed=8):
            out = precondition(r)
            assert grid.h**3 * float(np.sum(out.values * r.values)) > 0.0

    @pytest.mark.parametrize("n", [32, 64])
    def test_symmetric_and_positive_on_large_grids(self, n):
        g = GridSpec(L=6.0, n=n)
        rng = np.random.default_rng(n)
        a, b = (ScalarField(g, rng.standard_normal(g.num_nodes)) for _ in range(2))
        pa, pb = precondition(a), precondition(b)
        paa = float(np.dot(pa.values, a.values))
        pbb = float(np.dot(pb.values, b.values))
        assert paa > 0.0 and pbb > 0.0
        cross = float(np.dot(pa.values, b.values)) - float(np.dot(a.values, pb.values))
        assert abs(cross) <= 1e-13 * math.sqrt(paa * pbb)


class TestBreakdownDataclass:
    def test_derived_formulas(self):
        eb = EnergyBreakdown(2.0, 1.0, 4.0, 4.0)
        assert eb.I == pytest.approx(2.0 / 2 + 1.0 / 4 - 4.0 / 5)
        assert eb.G == pytest.approx(2.0 + 1.0 - 4.0)
        assert eb.J == pytest.approx((0.5 - 0.2) * 2.0 + (0.25 - 0.2) * 1.0)
        assert eb.magnitude == pytest.approx(7.0)


@pytest.mark.parametrize("kinetic", ["fd", "spectral"])
@pytest.mark.parametrize("V", [Constant(1.0), CoulombSingular(1.0, 0.5, 1)], ids=["constant", "coulomb"])
def test_pohozaev_is_the_dilation_derivative(V, kinetic):
    # P against a fourth-order central difference of I over the width lam of u(x/lam),
    # u = 1.3 exp(-|x|^2/2); the gap is the grid's error and falls about 4x per halving of h.
    # With V = 1 and the spectral kinetic every term of I is exact for this centred
    # Gaussian up to an h-independent floor (measured 3.1e-10 and 3.4e-10), so there
    # the gap has nothing left to fall by and has to stay below 1e-8 on both grids.
    # The 1/|x|^2 well is left out: its sampled gap does not fall steadily in n.
    eps = 1e-3
    gaps = []
    for n in (32, 64):
        g = GridSpec(L=6.0, n=n, kinetic=kinetic)

        def breakdown(width):
            u = gaussian_blob(g, width=width).scaled(1.3)
            return energy_breakdown(u, V.sample(g), 4.0)

        step = [breakdown(1.0 + k * eps).I - breakdown(1.0 - k * eps).I for k in (1, 2)]
        dilation = (8.0 * step[0] - step[1]) / (12.0 * eps)
        eb = breakdown(1.0)
        u2 = gaussian_blob(g, width=1.0).scaled(1.3).as3d ** 2
        w = g.h**3
        P = eb.pohozaev(w * float(np.sum(V.sample(g).as3d * u2)), w * float(np.sum(V.virial(g.radius) * u2)))
        gaps.append(abs(P - dilation) / eb.magnitude)
    assert gaps[1] < 3e-3
    if isinstance(V, Constant) and kinetic == "spectral":
        assert max(gaps) < 1e-8
    else:
        assert gaps[1] <= gaps[0] / 3.0
