"""Free-space Poisson solve tests: law, scaling, positivity, exact Gaussian energies.

The lattice Coulomb sum of `lattice_reference` is the second
discretization the screened solve is compared with.
"""

import itertools
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lattice_reference import CELL_MEAN_INVERSE_DISTANCE, _convolve_fft
from spgs.functional import energy_breakdown
from spgs.grid import GridSpec, ScalarField
from spgs.poisson import _interior_defect, _lift, _screened_solve, interior_residual, solve_phi
from spgs.potential import Constant
from spgs.sampling import gaussian_blob, random_smooth_field
from test_grid import c_ordered_eigenvalues, reference_sine_transform


@pytest.fixture(scope="module")
def small_grid():
    return GridSpec(L=6.0, n=16)


def seeded_fields(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    return [random_smooth_field(grid, rng) for _ in range(count)]


class TestSelfCellConstant:
    def test_matches_face_quadrature(self):
        # independent oracle: divergence identity turns the cell integral of
        # 1/|x| into six identical smooth face integrals
        m = 2048
        t = (np.arange(m) + 0.5) / m - 0.5
        x, y = np.meshgrid(t, t, indexing="ij")
        face = np.sum(1.0 / np.sqrt(x * x + y * y + 0.25)) / m**2
        oracle = 1.5 * face
        assert CELL_MEAN_INVERSE_DISTANCE == pytest.approx(oracle, abs=1e-6)


class TestSolvePhi:
    def test_zero_field(self, small_grid):
        u = ScalarField.zeros(small_grid)
        phi = solve_phi(u)
        assert np.all(phi.values == 0.0)
        assert interior_residual(u, phi) == 0.0

    def test_quadratic_scaling_entrywise(self, small_grid):
        # both solves: K, which every run uses, and the corrected default
        for u, correction in itertools.product(seeded_fields(small_grid, 3, seed=5), (False, True)):
            base = solve_phi(u, correction).values
            for t in (0.5, 2.0, 3.0):
                scaled = solve_phi(u.scaled(t), correction).values
                assert np.max(np.abs(scaled - t * t * base) / np.abs(t * t * base)) < 1e-12

    def test_positivity(self, small_grid):
        for u, correction in itertools.product(seeded_fields(small_grid, 5, seed=6), (False, True)):
            phi = solve_phi(u, correction).values
            assert phi.min() >= -1e-10 * phi.max()

    def test_interior_residual_to_rounding(self, small_grid):
        for u in seeded_fields(small_grid, 3, seed=7):
            assert interior_residual(u, solve_phi(u)) < 1e-12

    def test_solves_do_not_depend_on_the_grid_kinetic(self, small_grid):
        # the raw solve and the 7-point correction are the same on a spectral grid
        u = seeded_fields(small_grid, 1, seed=8)[0]
        on_spectral = u.on(replace(small_grid, kinetic="spectral"))
        for correction in (False, True):
            phi = solve_phi(on_spectral, residual_correction=correction)
            assert phi.grid.kinetic == "spectral"
            assert np.array_equal(phi.values, solve_phi(u, residual_correction=correction).values)

    @pytest.mark.parametrize("n", [16, 48])
    def test_correction_is_the_reference_dirichlet_solve_of_the_defect(self, n):
        # interior nodes gain the fd solve of the defect, through the
        # reference transforms; the outer layer keeps the raw sum
        g = GridSpec(L=6.0, n=n)
        u = seeded_fields(g, 1, seed=n)[0]
        raw = solve_phi(u, residual_correction=False)
        coeff = reference_sine_transform(_interior_defect(u, raw))
        coeff /= c_ordered_eigenvalues(n - 2, g.h)
        inner = (slice(1, -1),) * 3
        ref = raw.as3d.copy()
        ref[inner] += reference_sine_transform(coeff, inverse=True)
        assert np.array_equal(solve_phi(u).as3d, ref)

    def test_raw_sum_has_large_residual(self, small_grid):
        # the uncorrected kernel quadrature does not satisfy the 7-point
        # equation; the defect solve is what buys the residual contract
        u = seeded_fields(small_grid, 1, seed=8)[0]
        assert interior_residual(u, solve_phi(u, residual_correction=False)) > 1e-3


class TestScreenedSolve:
    @staticmethod
    def gaussian_b_error(grid, center, w):
        # u^2 = exp(-|x - c|^2 / w^2) / (pi^(3/2) w^3), unit charge: B = 1 / (2 sqrt(2) pi^(3/2) w)
        u2 = gaussian_blob(grid, center, w / math.sqrt(2.0)).values / (math.pi**1.5 * w**3)
        u = ScalarField(grid, np.sqrt(u2))
        b = breakdown_b(u, solve_phi(u, residual_correction=False))
        exact = 1.0 / (2.0 * math.sqrt(2.0) * math.pi**1.5 * w)
        return (b - exact) / exact

    def test_centred_gaussian_is_exact(self):
        # a centred radial charge has a pure monopole outside field (measured 6.5e-9)
        assert abs(self.gaussian_b_error(GridSpec(L=4.0, n=64), (0.0, 0.0, 0.0), 0.5)) < 1e-7

    def test_three_unequal_charges_off_centre(self):
        # charges Q exp(-|x - c|^2 / w^2) / (pi^(3/2) w^3) against the continuum
        # B = sum_ij Q_i Q_j erf(d_ij / s_ij) / (4 pi d_ij), s_ij^2 = w_i^2 + w_j^2,
        # whose d -> 0 limit is Q_i Q_j / (2 pi^(3/2) s_ij) (measured -1.50e-4)
        g = GridSpec(L=6.0, n=16)
        charges = [(1.0, (0.0, 0.0, 0.0), 1.2), (0.5, (1.5, 0.5, 0.0), 1.0), (0.5, (-1.5, 0.0, -0.5), 1.0)]
        density = sum(
            q / (math.pi**1.5 * w**3) * gaussian_blob(g, c, w / math.sqrt(2.0)).values for q, c, w in charges
        )
        u = ScalarField(g, np.sqrt(density))
        b = breakdown_b(u, solve_phi(u, residual_correction=False))
        exact = 0.0
        for qi, ci, wi in charges:
            for qj, cj, wj in charges:
                d, s = math.dist(ci, cj), math.hypot(wi, wj)
                exact += qi * qj * (math.erf(d / s) / d if d else 2.0 / (math.sqrt(math.pi) * s))
        exact /= 4.0 * math.pi
        assert abs(b - exact) / exact < 1e-3

    def test_off_centre_blob_needs_the_dipole_terms(self):
        # measured -4.8e-4; the monopole terms alone give -6.7e-3
        assert abs(self.gaussian_b_error(GridSpec(L=4.0, n=64), (1.1, 0.0, 0.0), 0.4)) < 1e-3

    def test_energy_agrees_with_the_lattice_sum(self):
        # two discretizations of one operator, on charges of up to three random
        # off-centre Gaussians: relative B gaps measured within 4.3e-3 at n = 32
        g = GridSpec(L=6.0, n=32)
        rng = np.random.default_rng(15)
        for _ in range(5):
            u = random_smooth_field(g, rng, min_width=1.0)
            q = u.as3d**2
            lattice = float(np.sum(_convolve_fft(q, g) * q))
            screened = float(np.sum(solve_phi(u, residual_correction=False).as3d * q))
            assert lattice == pytest.approx(screened, rel=1e-2)

    def test_tables_are_the_closed_forms_at_the_nodes(self):
        g = GridSpec(L=3.0, n=16)
        sigma = g.L / 4.0
        r = g.radius.T
        erf = np.vectorize(math.erf)(r / sigma)
        phi_g = erf / (4.0 * math.pi * r)
        f = (erf - 2.0 / math.sqrt(math.pi) * (r / sigma) * np.exp(-((r / sigma) ** 2))) / (4.0 * math.pi * r**3)
        lift = _lift(g.L, g.n, g.symmetry)
        assert np.allclose(lift.phi_g, phi_g, rtol=1e-14, atol=0.0)
        assert np.allclose(lift.f, f, rtol=1e-12, atol=0.0)

    def test_one_lift_per_box_whatever_the_kinetic(self):
        # an fd and a spectral grid of one box build Phi_g and f once and get the same K
        fd = GridSpec(L=3.5, n=16)
        u = seeded_fields(fd, 1, seed=16)[0]
        _lift.cache_clear()
        raw = [
            solve_phi(u.on(replace(fd, kinetic=kinetic)), residual_correction=False)
            for kinetic in ("fd", "spectral")
        ]
        assert _lift.cache_info().misses == 1
        assert np.array_equal(raw[0].values, raw[1].values)

    @pytest.mark.parametrize("n", [16, 48])
    def test_symmetric(self, n):
        # <a, K b> = <K a, b> to rounding, relative to the operator's scale on a and b
        # (measured at most 1.1e-15 over three seeds at n = 16 to 64)
        g = GridSpec(L=5.0, n=n)
        rng = np.random.default_rng(19)
        a, b = rng.standard_normal((2, g.num_nodes))
        ka, kb = (_screened_solve(q.copy(), g) for q in (a, b))
        scale = math.sqrt(float(np.sum(a * ka)) * float(np.sum(b * kb)))
        assert abs(float(np.sum(a * kb)) - float(np.sum(ka * b))) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_same_bits_on_one_and_two_cpus(self, on_cpus, split, n):
        # one CPU: the caller runs both halves and no thread starts; two: one helper
        # starts once the passes split
        g = GridSpec(L=5.0, n=n)
        q = np.random.default_rng(n).random(g.num_nodes)
        out = {}
        for cpus in (1, 2):
            on_cpus(cpus)
            threads = threading.active_count()
            out[cpus] = _screened_solve(q.copy(), g)
            assert threading.active_count() == threads + (cpus - 1 if g.num_nodes > split else 0)
        assert np.array_equal(out[1], out[2])

    def test_peak_memory_of_a_raw_solve_is_at_most_four_fields(self):
        g = GridSpec(L=5.0, n=48)
        u = seeded_fields(g, 1, seed=48)[0]
        solve_phi(u, residual_correction=False)  # builds the box's tables
        tracemalloc.start()
        try:
            solve_phi(u, residual_correction=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * g.num_nodes


class TestLatticeReference:
    def test_self_adjoint(self):
        g = GridSpec(L=5.0, n=16)
        rng = np.random.default_rng(19)
        a, b = rng.standard_normal((2, g.n, g.n, g.n))
        lhs = float(np.sum(a * _convolve_fft(b, g)))
        rhs = float(np.sum(_convolve_fft(a, g) * b))
        assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def breakdown_b(u, phi):
    """B of the energy breakdown, evaluated with the given phi."""
    return energy_breakdown(u, Constant(1.0).sample(u.grid), 4.0, phi=phi).B


class TestNonlocalEnergy:
    def test_zero(self, small_grid):
        zero = ScalarField.zeros(small_grid)
        assert energy_breakdown(zero, Constant(1.0).sample(small_grid), 4.0).B == 0.0

    def test_quartic_scaling(self, small_grid):
        u = seeded_fields(small_grid, 1, seed=10)[0]
        b1 = breakdown_b(u, solve_phi(u))
        u2 = u.scaled(2.0)
        b2 = breakdown_b(u2, solve_phi(u2))
        assert b2 == pytest.approx(16.0 * b1, rel=1e-10)

    def test_nonnegative(self, small_grid):
        for u in seeded_fields(small_grid, 4, seed=11):
            assert breakdown_b(u, solve_phi(u)) >= 0.0


class TestBoundednessConstant:
    def test_d12_norm_bounded_by_h1_squared(self):
        # a single constant works across a fixed random sample; ||phi_u||_D^2 =
        # integral phi_u u^2 = B, since -Lap phi_u = u^2 (measured 0.095-0.129)
        g = GridSpec(L=5.0, n=12)
        v_one = Constant(1.0).sample(g)
        rng = np.random.default_rng(17)
        ratios = []
        for _ in range(100):
            eb = energy_breakdown(random_smooth_field(g, rng), v_one, 4.0)
            ratios.append(math.sqrt(eb.B) / eb.h1**2)
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() < 10.0 * ratios.min() + 1.0
