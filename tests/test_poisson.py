"""Free-space Poisson solve tests: law, scaling, positivity, oracles."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from spgs import grid as spgs_grid
from spgs.functional import energy_breakdown
from spgs.grid import GridSpec, ScalarField, dirichlet_energy, h1_norm
from spgs.poisson import (
    CELL_MEAN_INVERSE_DISTANCE,
    KERNEL_CONSTANT,
    _convolve_direct,
    _convolve_fft,
    _interior_defect,
    _kernel_octant,
    _planes_per_block,
    double_integral_oracle,
    interior_residual,
    solve_phi,
)
from spgs.potential import Constant
from spgs.sampling import random_smooth_field
from test_grid import c_ordered_eigenvalues, reference_sine_transform


@pytest.fixture(scope="module")
def small_grid():
    return GridSpec(L=6.0, n=16)


def seeded_fields(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    return [random_smooth_field(grid, rng) for _ in range(count)]


def full_kernel_table(n, h):
    """The (2n, 2n, n + 1) kernel transform, [j0, j1, k2], unfolded from the cached octant."""
    j = np.arange(2 * n)
    fold = np.minimum(j, 2 * n - j)
    return _kernel_octant(n, h)[:, fold][:, :, fold].T


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
        for u in seeded_fields(small_grid, 3, seed=5):
            base = solve_phi(u).values
            for t in (0.5, 2.0, 3.0):
                scaled = solve_phi(u.scaled(t)).values
                assert np.max(np.abs(scaled - t * t * base) / np.abs(t * t * base)) < 1e-12

    def test_positivity(self, small_grid):
        for u in seeded_fields(small_grid, 5, seed=6):
            phi = solve_phi(u).values
            assert phi.min() >= -1e-10 * phi.max()

    def test_interior_residual_to_rounding(self, small_grid):
        for u in seeded_fields(small_grid, 3, seed=7):
            assert interior_residual(u, solve_phi(u)) < 1e-12

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

    def test_direct_and_fft_agree(self):
        for g in (GridSpec(L=5.0, n=12), GridSpec(L=5.0, n=16)):
            u = seeded_fields(g, 1, seed=9)[0]
            pd = ScalarField.from_3d(g, _convolve_direct(u.as3d**2, g)).values
            pf = solve_phi(u, residual_correction=False).values
            assert np.max(np.abs(pd - pf)) <= 1e-8 * np.max(np.abs(pf))


class TestKernelTable:
    @pytest.mark.parametrize("n", [12, 13, 32])
    def test_octant_dct_equals_full_rfftn(self, n):
        # the kernel on the whole doubled (2n)^3 lattice, d taken mod 2n into (-n, n]
        h = 0.3
        m = 2 * n
        d = np.arange(m)
        d = np.where(d <= n, d, d - m).astype(np.float64)
        r = h * np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2)
        with np.errstate(divide="ignore"):
            k = KERNEL_CONSTANT / r
        k[0, 0, 0] = KERNEL_CONSTANT * CELL_MEAN_INVERSE_DISTANCE / h
        ref = scipy.fft.rfftn(k).real
        table = full_kernel_table(n, h)
        assert table.shape == ref.shape
        assert np.max(np.abs(table - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [12, 13, 32, 64])
    def test_octant_is_scipy_dct1_bit_for_bit(self, n):
        # the per-axis rfft of the even extension is the DCT-I scipy.fft.dctn runs
        h = 0.3
        d = np.arange(n + 1, dtype=np.float64)
        r = h * np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2)
        with np.errstate(divide="ignore"):
            k = KERNEL_CONSTANT / r
        k[0, 0, 0] = KERNEL_CONSTANT * CELL_MEAN_INVERSE_DISTANCE / h
        assert np.array_equal(_kernel_octant(n, h), scipy.fft.dctn(k, type=1).T)


class TestPrunedConvolution:
    @staticmethod
    def padded_reference(q, grid):
        # the unpruned transform: zero-pad to (2n)^3, full rfftn/irfftn, crop
        n = grid.n
        m = 2 * n
        pad = np.zeros((m, m, m))
        pad[:n, :n, :n] = q
        out = scipy.fft.irfftn(scipy.fft.rfftn(pad) * full_kernel_table(n, grid.h), s=(m, m, m))
        return grid.h**3 * out[:n, :n, :n]

    @pytest.mark.parametrize(
        "grid",
        [GridSpec(L=5.0, n=12), GridSpec(L=5.0, n=16), GridSpec(L=5.0, n=24),
         GridSpec(L=5.0, n=32), GridSpec(L=5.0, n=40), GridSpec(L=5.0, n=48),
         GridSpec(L=5.0, n=64)],
        ids=["n12", "n16", "n24", "n32", "n40", "n48", "n64"],
    )
    def test_bit_identical_to_padded_transform(self, grid):
        rng = np.random.default_rng(grid.n)
        q = rng.random((grid.n,) * 3)
        for src in (q, np.asfortranarray(q)):
            assert np.array_equal(_convolve_fft(src, grid), self.padded_reference(q, grid))

    def test_n40_runs_several_plane_blocks_the_last_partial(self):
        # keeps the n40 case above on the multi-block path; the n <= 16 grids run one block
        b = _planes_per_block(40)
        assert 41 // b >= 2 and 41 % b != 0

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_shares_cover_the_planes_once_in_unequal_block_counts(self, on_cpus, n):
        # keeps the n32, n48 and n64 cases above on shares of different block counts
        on_cpus(2)
        b = _planes_per_block(n)
        shares = []
        spgs_grid._in_two_shares(shares.append, n + 1, b)
        first, second = sorted(shares, key=lambda blocks: blocks[0].start)
        assert [i for sl in first + second for i in range(n + 1)[sl]] == list(range(n + 1))
        assert max(sl.stop - sl.start for sl in first + second) <= b
        assert len(first) != len(second)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_helper_only_on_two_cpus(self, on_cpus, cpus, n):
        # one CPU: the caller runs both shares and no thread starts; two: one helper starts
        on_cpus(cpus)
        threads = threading.active_count()
        self.test_bit_identical_to_padded_transform(GridSpec(L=5.0, n=n))
        assert threading.active_count() == threads + cpus - 1
        assert (spgs_grid._helper is None) == (cpus == 1)

    def test_peak_memory_below_the_padded_spectrum(self):
        # the unblocked transform held one (2n, 2n, n + 1) complex buffer: 7.2 MB at n = 48
        g = GridSpec(L=5.0, n=48)
        q = np.asfortranarray(np.random.default_rng(48).random((g.n,) * 3))
        _convolve_fft(q, g)  # caches the kernel octant
        tracemalloc.start()
        try:
            _convolve_fft(q, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (2 * g.n) ** 2 * (g.n + 1)

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


class TestDoubleIntegralOracle:
    def test_zero(self, small_grid):
        assert double_integral_oracle(ScalarField.zeros(small_grid)) == 0.0

    def test_rejects_large_grids(self):
        g = GridSpec(L=6.0, n=32)
        with pytest.raises(ValueError):
            double_integral_oracle(ScalarField.zeros(g))

    def test_matches_transparent_reimplementation(self):
        # independent oracle for the oracle: tiny grid, plain nested loops
        g = GridSpec(L=2.0, n=8)
        rng = np.random.default_rng(12)
        u = random_smooth_field(g, rng)
        q = u.values**2
        x, y, z = g.coords()
        pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        h = g.h
        total = 0.0
        for i in range(q.size):
            d = np.sqrt(np.sum((pts - pts[i]) ** 2, axis=1))
            d[i] = np.inf
            total += q[i] * np.sum(q / d)
        total = h**6 * (total + CELL_MEAN_INVERSE_DISTANCE / h * np.sum(q**2))
        assert double_integral_oracle(u) == pytest.approx(total, rel=1e-12)

    def test_symmetric_under_role_swap(self):
        # summing x-first or y-first gives the same value (kernel symmetry)
        g = GridSpec(L=2.0, n=8)
        rng = np.random.default_rng(13)
        u = random_smooth_field(g, rng)
        q = u.values**2
        x, y, z = g.coords()
        pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        acc_rows = 0.0
        acc_cols = 0.0
        for i in range(q.size):
            d = np.sqrt(np.sum((pts - pts[i]) ** 2, axis=1))
            d[i] = np.inf
            acc_rows += q[i] * np.sum(q / d)
            acc_cols += np.sum(q[i] * q / d)
        assert acc_rows == pytest.approx(acc_cols, rel=1e-12)

    def test_uncorrected_energy_identity_exact(self, small_grid):
        # with the raw kernel sum the lattice bookkeeping is an identity:
        # integral(phi u^2) = oracle / (4 pi) to rounding
        for u in seeded_fields(small_grid, 3, seed=14):
            b = energy_breakdown(u, Constant(1.0).sample(small_grid), 4.0).B
            target = double_integral_oracle(u) / (4.0 * math.pi)
            assert b == pytest.approx(target, rel=1e-11)

    def test_corrected_energy_within_coarse_tolerance(self, small_grid):
        # the residual-corrected solution differs by the O(h^2) gap between
        # the lattice kernel sum and the exact 7-point solution; the gap
        # comparison needs grid-resolved charges (>= 2.5 nodes per width)
        rng = np.random.default_rng(15)
        for _ in range(3):
            u = random_smooth_field(small_grid, rng, min_width=2.5 * small_grid.h)
            b = breakdown_b(u, solve_phi(u))
            target = double_integral_oracle(u) / (4.0 * math.pi)
            assert b == pytest.approx(target, rel=0.02)

    def test_region_restriction(self, small_grid):
        # Lemma-style identity on a proper sub-region, uncorrected solve
        u = seeded_fields(small_grid, 1, seed=16)[0]
        phi = solve_phi(u, residual_correction=False)
        radius = 2.5
        mask = small_grid.radius.ravel(order="F") <= radius
        q = u.values**2
        lhs = small_grid.h**3 * float(np.sum((phi.values * q)[mask]))
        rhs = double_integral_oracle(u, region_radius=radius) / (4.0 * math.pi)
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestBoundednessConstant:
    def test_d12_norm_bounded_by_h1_squared(self):
        # a single constant works across a fixed random sample
        g = GridSpec(L=5.0, n=12)
        rng = np.random.default_rng(17)
        ratios = []
        for _ in range(100):
            u = random_smooth_field(g, rng)
            phi = solve_phi(u, residual_correction=False)
            ratios.append(math.sqrt(dirichlet_energy(phi)) / h1_norm(u) ** 2)
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() < 10.0 * ratios.min() + 1.0
