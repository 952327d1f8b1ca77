"""Grid, quadrature, norm and dump-format tests."""

import math

import numpy as np
import pytest
import scipy.fft

from spgs.grid import (
    GridSpec,
    ScalarField,
    annulus_integral,
    boundary_mass_fraction,
    dirichlet_eigenvalues,
    dirichlet_energy,
    gradient_squared,
    h1_norm,
    integrate,
    l2_norm,
    lp_integral,
    minus_laplacian,
    radialize,
    read_field,
    sine_transform,
    write_field,
)


def gaussian(grid, width=1.0):
    return ScalarField.from_function(
        grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / (2.0 * width**2))
    )


class TestGridSpec:
    def test_spacing_exact(self):
        g = GridSpec(L=12.0, n=32)
        assert g.h == 2.0 * 12.0 / 32

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(L=-1.0, n=16)
        with pytest.raises(ValueError):
            GridSpec(L=1.0, n=4)
        with pytest.raises(ValueError):
            GridSpec(L=1.0, n=9, staggered=True)

    def test_staggered_keeps_origin_clear(self):
        g = GridSpec(L=4.0, n=16)
        assert g.min_radius() >= g.h / 2.0

    def test_unstaggered_contains_origin(self):
        g = GridSpec(L=4.0, n=16, staggered=False)
        assert g.min_radius() == 0.0


class TestScalarField:
    def test_length_checked(self):
        g = GridSpec(L=1.0, n=8)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(7))

    def test_finite_checked(self):
        g = GridSpec(L=1.0, n=8)
        vals = np.zeros(8**3)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(g, vals)

    def test_values_immutable(self):
        g = GridSpec(L=1.0, n=8)
        f = ScalarField.zeros(g)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_x_fastest_ordering(self):
        g = GridSpec(L=1.0, n=8)
        x, _, _ = g.coords()
        f = ScalarField.from_3d(g, x)
        # first 8 flat entries walk the x axis
        assert np.allclose(f.values[: g.n], g.axis)


class TestIntegrate:
    def test_zero_field(self):
        g = GridSpec(L=1.0, n=8)
        assert integrate(ScalarField.zeros(g)) == 0.0

    def test_box_volume(self):
        g = GridSpec(L=1.0, n=16)
        one = ScalarField(g, np.ones(g.num_nodes))
        assert integrate(one) == pytest.approx(8.0, rel=1e-12)

    def test_gaussian_closed_form(self):
        g = GridSpec(L=8.0, n=64)
        f = ScalarField.from_function(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
        assert integrate(f) == pytest.approx(math.pi**1.5, rel=1e-6)

    def test_linearity(self):
        g = GridSpec(L=2.0, n=12)
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.standard_normal(g.num_nodes))
        gfield = ScalarField(g, rng.standard_normal(g.num_nodes))
        for a, b in [(2.0, -3.0), (0.25, 11.0)]:
            combo = ScalarField(g, a * f.values + b * gfield.values)
            assert integrate(combo) == pytest.approx(
                a * integrate(f) + b * integrate(gfield), rel=1e-12, abs=1e-12
            )


class TestDirichletEnergy:
    def test_zero(self):
        g = GridSpec(L=1.0, n=8)
        assert dirichlet_energy(ScalarField.zeros(g)) == 0.0

    def test_quadratic_homogeneity(self):
        g = GridSpec(L=3.0, n=16)
        u = gaussian(g)
        assert dirichlet_energy(u.scaled(2.0)) == pytest.approx(
            4.0 * dirichlet_energy(u), rel=1e-13
        )

    def test_matches_refined_quadrature_oracle(self):
        # u = sin(pi x / L) * gaussian bump confined to the box; the oracle
        # integrates the analytic |grad u|^2 by midpoint quadrature on a
        # twice-refined grid, independent of the difference stencils.
        L = 6.0

        def bump(x, y, z):
            return np.sin(np.pi * x / L) * np.exp(-(x * x + y * y + z * z) / 2.0)

        def grad_sq(x, y, z):
            e = np.exp(-(x * x + y * y + z * z) / 2.0)
            s = np.sin(np.pi * x / L)
            c = np.cos(np.pi * x / L)
            gx = (np.pi / L * c - x * s) * e
            gy = -y * s * e
            gz = -z * s * e
            return gx * gx + gy * gy + gz * gz

        oracle_grid = GridSpec(L=L, n=192)
        oracle = integrate(ScalarField.from_function(oracle_grid, grad_sq))

        # the discrete Dirichlet form converges to the oracle at second
        # order; the refine-and-compare pair (n, 2n) extrapolates the h^2
        # term away and lands within 1e-4 of the analytic-integrand oracle
        vals = {}
        for n in (48, 96):
            u = ScalarField.from_function(GridSpec(L=L, n=n), bump)
            vals[n] = dirichlet_energy(u)
        errs = [abs(vals[n] - oracle) / oracle for n in (48, 96)]
        assert errs[1] < errs[0] / 3.0
        extrapolated = (4.0 * vals[96] - vals[48]) / 3.0
        assert extrapolated == pytest.approx(oracle, rel=1e-4)


    @pytest.mark.parametrize(
        "g", [GridSpec(L=4.0, n=24), GridSpec(L=3.0, n=13, staggered=False)], ids=["staggered-24", "nodal-13"]
    )
    def test_fd_stencil_bit_identical_to_padded_sum(self, g):
        # the in-place stencil keeps the neighbour order of the zero-padded expression
        u = ScalarField(g, np.random.default_rng(g.n).standard_normal(g.num_nodes))
        a = u.as3d
        p = np.pad(a, 1)
        ref = (
            p[2:, 1:-1, 1:-1]
            + p[:-2, 1:-1, 1:-1]
            + p[1:-1, 2:, 1:-1]
            + p[1:-1, :-2, 1:-1]
            + p[1:-1, 1:-1, 2:]
            + p[1:-1, 1:-1, :-2]
            - 6.0 * a
        ) / -(g.h**2)
        assert np.array_equal(minus_laplacian(u).as3d, ref)


class TestSineTransform:
    @pytest.mark.parametrize("m", [24, 30, 46, 62, 64, 96])
    def test_matches_scipy_dst1_and_round_trips(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m, m))
        fwd = scipy.fft.dstn(a, type=1)
        inv = scipy.fft.idstn(a, type=1)
        for src in (a, np.asfortranarray(a)):
            got = sine_transform(src)
            assert np.max(np.abs(got - fwd)) <= 1e-13 * np.max(np.abs(fwd))
            got = sine_transform(src, inverse=True)
            assert np.max(np.abs(got - inv)) <= 1e-13 * np.max(np.abs(inv))
            back = sine_transform(sine_transform(src), inverse=True)
            assert np.max(np.abs(back - a)) <= 1e-13 * np.max(np.abs(a))
            assert sine_transform(src).flags.f_contiguous == src.flags.f_contiguous

    @pytest.mark.parametrize("m", [24, 32, 48, 64])
    def test_bit_identical_to_single_axis_products(self, m):
        # every block runs slab by slab; where m is a multiple of 8 the
        # values are those of one (m^2, m) product per axis
        k = np.arange(1, m + 1)
        s = 2.0 * np.sin(np.pi * np.outer(k, k) / (m + 1))
        a = np.random.default_rng(m).standard_normal((m, m, m))
        ref = np.matmul(a.reshape(m * m, m), s).reshape(m, m, m)
        ref = np.matmul(s, ref)
        ref = np.matmul(s, ref.reshape(m, m * m)).reshape(m, m, m)
        assert np.array_equal(sine_transform(a), ref)
        assert np.array_equal(sine_transform(np.asfortranarray(a.T)), ref.T)

    @pytest.mark.parametrize(
        "g",
        [GridSpec(L=4.0, n=24), GridSpec(L=5.0, n=32), GridSpec(L=3.0, n=13, staggered=False)],
        ids=["staggered-24", "staggered-32", "nodal-13"],
    )
    @pytest.mark.parametrize("kinetic", ["fd", "spectral"])
    def test_one_table_diagonalises_each_kinetic(self, g, kinetic):
        # the preconditioner and the Poisson defect solve invert -Lap through this table
        u = ScalarField(g, np.random.default_rng(g.n).standard_normal(g.num_nodes))
        direct = minus_laplacian(u, kinetic).as3d
        lam = dirichlet_eigenvalues(g.n, g.h, kinetic)
        modal = sine_transform(lam * sine_transform(u.as3d), inverse=True)
        assert np.max(np.abs(direct - modal)) <= 1e-12 * np.max(np.abs(direct))


class TestLpIntegral:
    def test_zero(self):
        g = GridSpec(L=1.0, n=8)
        assert lp_integral(ScalarField.zeros(g), 3.0) == 0.0

    def test_volume(self):
        g = GridSpec(L=1.0, n=12)
        one = ScalarField(g, np.ones(g.num_nodes))
        assert lp_integral(one, 2.0) == pytest.approx(8.0, rel=1e-12)

    def test_gaussian_fourth_power(self):
        g = GridSpec(L=8.0, n=64)
        u = gaussian(g)  # exp(-r^2/2), so u^4 = exp(-2 r^2)
        assert lp_integral(u, 4.0) == pytest.approx((math.pi / 2.0) ** 1.5, rel=1e-6)

    def test_rejects_s_below_one(self):
        g = GridSpec(L=1.0, n=8)
        with pytest.raises(ValueError):
            lp_integral(ScalarField.zeros(g), 0.5)


class TestAnnulusIntegral:
    def test_zero_field(self):
        g = GridSpec(L=6.0, n=24)
        assert annulus_integral(ScalarField.zeros(g), 1.0) == 0.0

    def test_shell_volume(self):
        g = GridSpec(L=6.0, n=64)
        one = ScalarField(g, np.ones(g.num_nodes))
        r = 3.0
        vol = annulus_integral(one, r)
        exact = 4.0 * math.pi * ((r + 1.0) ** 3 - r**3) / 3.0
        assert vol == pytest.approx(exact, rel=3.0 * g.h / r)

    def test_rejects_negative_radius(self):
        g = GridSpec(L=6.0, n=24)
        with pytest.raises(ValueError):
            annulus_integral(ScalarField.zeros(g), -0.5)

    def test_rejects_annulus_beyond_corner(self):
        g = GridSpec(L=6.0, n=24)
        with pytest.raises(ValueError):
            annulus_integral(ScalarField.zeros(g), 6.0 * math.sqrt(3.0))


class TestRefinementConvergence:
    def test_second_order_or_better(self):
        # doubling n shrinks the change for smooth concentrated fields
        L = 6.0

        def field(x, y, z):
            return (1.0 + 0.5 * x) * np.exp(-(x * x + y * y + z * z) / 1.5)

        vals = {}
        for n in (16, 32, 64):
            u = ScalarField.from_function(GridSpec(L=L, n=n), field)
            vals[n] = (integrate(u), dirichlet_energy(u), lp_integral(u, 2.5))
        for idx in range(3):
            change_coarse = abs(vals[32][idx] - vals[16][idx])
            change_fine = abs(vals[64][idx] - vals[32][idx])
            assert change_fine < change_coarse


class TestHelpers:
    def test_norms(self):
        g = GridSpec(L=5.0, n=32)
        u = gaussian(g)
        assert l2_norm(u) == pytest.approx(math.sqrt(integrate(ScalarField(g, u.values**2))))
        assert h1_norm(u) ** 2 == pytest.approx(dirichlet_energy(u) + l2_norm(u) ** 2)

    def test_gradient_squared_integral_near_dirichlet_energy(self):
        g = GridSpec(L=6.0, n=48)
        u = gaussian(g)
        a = integrate(gradient_squared(u))
        b = dirichlet_energy(u)
        assert a == pytest.approx(b, rel=0.05)

    def test_radialize_fixes_radial_fields(self):
        g = GridSpec(L=4.0, n=24)
        u = ScalarField.from_3d(g, np.exp(-g.radius**2))
        v = radialize(u)
        assert np.allclose(v.values, u.values, rtol=1e-12)

    def test_boundary_mass_small_for_confined_field(self):
        g = GridSpec(L=8.0, n=32)
        u = gaussian(g)
        assert boundary_mass_fraction(u) < 1e-8


class TestFieldDump:
    def test_round_trip_bit_exact(self, tmp_path):
        g = GridSpec(L=7.25, n=16)
        rng = np.random.default_rng(3)
        u = ScalarField(g, rng.standard_normal(g.num_nodes))
        path = tmp_path / "field.spgs"
        write_field(u, path)
        v = read_field(path)
        assert v.grid == g
        assert np.array_equal(v.values, u.values)

    def test_header_format(self, tmp_path):
        g = GridSpec(L=12.0, n=8)
        path = tmp_path / "field.spgs"
        write_field(ScalarField.zeros(g), path)
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii")
        assert header == "SPGS1 n=8 L=12.0 staggered=1\n"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "junk.spgs"
        for header in (b"NOPE 1 2 3\n", b"SPGS1 a=1 b=2 c=3\n"):
            path.write_bytes(header)
            with pytest.raises(ValueError):
                read_field(path)
