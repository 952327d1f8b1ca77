"""Grid, -Lap, sine-transform, split-pass and dump-format tests."""

import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from spgs import grid as spgs_grid
from spgs.functional import energy_breakdown, precondition
from spgs.grid import (
    KINETICS,
    GridSpec,
    ScalarField,
    boundary_mass_fraction,
    dirichlet_eigenvalues,
    minus_laplacian,
    radialize,
    read_field,
    sine_transform,
    write_field,
)


def sine_matrix(m):
    k = np.arange(1, m + 1)
    return 2.0 * np.sin(np.pi * np.outer(k, k) / (m + 1))


def reference_sine_transform(a, inverse=False):
    # the transform as one call per product, before its passes were split
    m = a.shape[0]
    s = sine_matrix(m)
    flip = a.flags.f_contiguous and not a.flags.c_contiguous
    c = np.ascontiguousarray(a.T if flip else a)
    t = np.matmul(s, np.matmul(c, s))
    out = np.empty_like(t)
    np.matmul(s, t.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    if inverse:
        out *= 1.0 / (2.0 * (m + 1)) ** 3
    return out.T if flip else out


def c_ordered_eigenvalues(m, h, kinetic="fd"):
    k = np.arange(1, m + 1)
    if kinetic == "fd":
        lam1 = (4.0 / h**2) * np.sin(np.pi * k / (2.0 * (m + 1))) ** 2
    else:
        lam1 = (np.pi * k / ((m + 1) * h)) ** 2
    return lam1[:, None, None] + lam1[None, :, None] + lam1[None, None, :]


def padded_stencil(a, h):
    # the 7-point sum over a zero-padded copy, neighbours in the order x+, x-, y+, y-, z+, z-
    p = np.pad(a, 1)
    return (
        p[2:, 1:-1, 1:-1]
        + p[:-2, 1:-1, 1:-1]
        + p[1:-1, 2:, 1:-1]
        + p[1:-1, :-2, 1:-1]
        + p[1:-1, 1:-1, 2:]
        + p[1:-1, 1:-1, :-2]
        - 6.0 * a
    ) / -(h**2)


def kinetic_energy(u):
    # with V = 0, A1 is the Dirichlet form h^3 <u, -Lap u> of u's grid alone
    return energy_breakdown(u, ScalarField.zeros(u.grid), 4.0).A1


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
            GridSpec(L=1.0, n=9)
        with pytest.raises(ValueError, match="kinetic must be one of"):
            GridSpec(L=1.0, n=8, kinetic="bogus")

    def test_staggered_keeps_origin_clear(self):
        g = GridSpec(L=4.0, n=16)
        assert g.radius.min() >= g.h / 2.0

    @pytest.mark.parametrize("L, n", [(2.5, 24), (4.0, 64), (6.0, 48)])
    def test_radius_is_the_norm_of_the_node_coordinates(self, L, n):
        # bit for bit: the broadcast sum keeps the order x^2 + y^2 + z^2
        g = GridSpec(L=L, n=n)
        x, y, z = g.coords()
        assert g.radius.tobytes() == np.sqrt(x * x + y * y + z * z).tobytes()


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

    def test_on_takes_the_grid_and_keeps_the_values(self):
        g = GridSpec(L=2.0, n=8)
        f = gaussian(g)
        assert f.on(g) is f
        spectral = replace(g, kinetic="spectral")
        moved = f.on(spectral)
        assert moved.grid == spectral and np.array_equal(moved.values, f.values)
        for other in (GridSpec(L=2.5, n=8), GridSpec(L=2.0, n=10)):
            with pytest.raises(ValueError, match="table box .* does not match the run grid"):
                f.on(other, "table")


class TestDirichletEnergy:
    def test_zero(self):
        g = GridSpec(L=1.0, n=8)
        assert kinetic_energy(ScalarField.zeros(g)) == 0.0

    def test_quadratic_homogeneity(self):
        g = GridSpec(L=3.0, n=16)
        u = gaussian(g)
        assert kinetic_energy(u.scaled(2.0)) == pytest.approx(4.0 * kinetic_energy(u), rel=1e-13)

    def test_matches_refined_quadrature_oracle(self):
        # u = sin(pi x / L) * gaussian bump confined to the box; the oracle is
        # the midpoint sum of the analytic |grad u|^2 on a twice-refined grid,
        # independent of the difference stencils.  u = a(x) e(y) e(z) with
        # a = s e, s = sin(pi x / L), e = exp(-t^2 / 2), so that 3-D sum is
        # exactly h^3 (A' E^2 + 2 S E' E), from the 1-D sums A' of a'^2, S of
        # a^2, E of e^2 and E' of e'^2 over the refined grid's axis
        L = 6.0

        def bump(x, y, z):
            return np.sin(np.pi * x / L) * np.exp(-(x * x + y * y + z * z) / 2.0)

        oracle_grid = GridSpec(L=L, n=192)
        t = oracle_grid.axis
        e = np.exp(-t * t / 2.0)
        s = np.sin(np.pi * t / L)
        a, da = s * e, (np.pi / L * np.cos(np.pi * t / L) - t * s) * e
        de = -t * e
        A_prime, S, E, E_prime = (float(np.sum(f * f)) for f in (da, a, e, de))
        oracle = oracle_grid.h**3 * (A_prime * E * E + 2.0 * S * E_prime * E)

        # the discrete Dirichlet form converges to the oracle at second
        # order; the refine-and-compare pair (n, 2n) extrapolates the h^2
        # term away and lands within 1e-4 of the analytic-integrand oracle
        vals = {}
        for n in (48, 96):
            u = ScalarField.from_function(GridSpec(L=L, n=n), bump)
            vals[n] = kinetic_energy(u)
        errs = [abs(vals[n] - oracle) / oracle for n in (48, 96)]
        assert errs[1] < errs[0] / 3.0
        extrapolated = (4.0 * vals[96] - vals[48]) / 3.0
        assert extrapolated == pytest.approx(oracle, rel=1e-4)

    @pytest.mark.parametrize("g", [GridSpec(L=4.0, n=24)], ids=["staggered-24"])
    def test_fd_stencil_bit_identical_to_padded_sum(self, g):
        # the in-place stencil keeps the neighbour order of the zero-padded expression
        u = ScalarField(g, np.random.default_rng(g.n).standard_normal(g.num_nodes))
        assert np.array_equal(minus_laplacian(u).as3d, padded_stencil(u.as3d, g.h))


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
        s = sine_matrix(m)
        a = np.random.default_rng(m).standard_normal((m, m, m))
        ref = np.matmul(a.reshape(m * m, m), s).reshape(m, m, m)
        ref = np.matmul(s, ref)
        ref = np.matmul(s, ref.reshape(m, m * m)).reshape(m, m, m)
        assert np.array_equal(sine_transform(a), ref)
        assert np.array_equal(sine_transform(np.asfortranarray(a.T)), ref.T)

    @pytest.mark.parametrize(
        "g",
        [GridSpec(L=4.0, n=24), GridSpec(L=5.0, n=32)],
        ids=["staggered-24", "staggered-32"],
    )
    @pytest.mark.parametrize("kinetic", ["fd", "spectral"])
    def test_one_table_diagonalises_each_kinetic(self, g, kinetic):
        # the preconditioner and the Poisson defect solve invert -Lap through these eigenvalues
        g = replace(g, kinetic=kinetic)
        u = ScalarField(g, np.random.default_rng(g.n).standard_normal(g.num_nodes))
        direct = minus_laplacian(u).as3d
        lam1 = dirichlet_eigenvalues(g.n, g.h, kinetic)
        assert lam1.shape == (g.n,) and not lam1.flags.writeable
        lam = lam1[:, None, None] + lam1[None, :, None] + lam1[None, None, :]
        modal = sine_transform(lam * sine_transform(u.as3d), inverse=True)
        assert np.max(np.abs(direct - modal)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    @pytest.mark.parametrize("m", [8, 30, 64])
    def test_in_sine_modes_divides_by_the_table_entries(self, monkeypatch, split, m, shift):
        # with the transforms taken out, the op sees the entries (lam_i + lam_j) + lam_k,
        # plus shift, of the full table, bit for bit, in every slab of every half
        def untransformed(c, inverse=False, overwrite=False, octant=False):
            return c if inverse else c.copy(order="F")

        monkeypatch.setattr(spgs_grid, "sine_transform", untransformed)
        coeff = np.asfortranarray(np.random.default_rng(m).standard_normal((m, m, m)))
        for kinetic in KINETICS:
            lam = dirichlet_eigenvalues(m, 0.25, kinetic)
            got = spgs_grid.in_sine_modes(coeff, lam, np.divide, shift)
            assert got.flags.f_contiguous
            assert np.array_equal(got, coeff / (c_ordered_eigenvalues(m, 0.25, kinetic) + shift)), kinetic

    def test_first_precondition_at_a_new_n_keeps_no_table(self):
        # the cached one-axis eigenvalues are all a new n adds; the n^3 table is gone
        g = GridSpec(L=3.3, n=40)
        r = ScalarField(g, np.random.default_rng(40).standard_normal(g.num_nodes))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = precondition(r)
            del out
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < g.num_nodes


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [8, 16, 32, 48, 64, 96])
# the forced mode keeps these tests' earlier id, one-slab, so their ids stay stable
@pytest.mark.parametrize("split", ["as-built", "forced"], ids=["as-built", "one-slab"], indirect=True)
@pytest.mark.usefixtures("split")
class TestSplitPassesBitIdentical:
    # one CPU runs the halves in turn on the caller, two on the caller and
    # the helper; both must give the one-call values bit for bit

    def field(self, n):
        g = GridSpec(L=4.0, n=n)
        return ScalarField(g, np.random.default_rng(n).standard_normal(g.num_nodes))

    def test_sine_transform(self, on_cpus, cpus, n):
        on_cpus(cpus)
        a = np.random.default_rng(n).standard_normal((n, n, n))
        for src in (a, np.asfortranarray(a)):
            for inverse in (False, True):
                got = sine_transform(src, inverse=inverse)
                assert np.array_equal(got, reference_sine_transform(src, inverse))
                assert got.flags.f_contiguous == src.flags.f_contiguous

    def test_fd_stencil(self, on_cpus, cpus, n):
        on_cpus(cpus)
        u = self.field(n)
        assert np.array_equal(minus_laplacian(u).as3d, padded_stencil(u.as3d, u.grid.h))

    def test_precondition(self, on_cpus, cpus, n):
        on_cpus(cpus)
        r = self.field(n)
        for kinetic in KINETICS:
            coeff = reference_sine_transform(r.as3d)
            coeff /= c_ordered_eigenvalues(n, r.grid.h, kinetic) + 1.0
            ref = reference_sine_transform(coeff, inverse=True)
            assert np.array_equal(precondition(r.on(replace(r.grid, kinetic=kinetic))).as3d, ref), kinetic


class TestHalves:
    # every flat size a per-node pass may split: the 3-D fields above the
    # threshold, the radial ladder's meshes and 2^18
    SIZES = [n**3 for n in range(42, 129, 2)] + [8192, 32768, 131072, 262144]

    def test_halves_add_to_numpys_one_pass_sum(self, monkeypatch):
        # numpy's pairwise summation adds the sums of the two halves `_halves`
        # cuts; a numpy with another summation tree fails here instead of
        # moving levels
        monkeypatch.setattr(spgs_grid, "_BLOCK_BYTES", 0)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(128**3) * np.exp(5.0 * rng.standard_normal(128**3))
        for size in self.SIZES:
            x = a[:size]
            first, second = spgs_grid._halves(size)
            assert first.start == 0 and first.stop == second.start and second.stop == size
            assert np.sum(x) == np.sum(x[first]) + np.sum(x[second]), size

    def test_fields_of_n_40_stay_whole(self):
        # as 40^3 values, so 40 planes of 40^2
        assert spgs_grid._halves(40**3) == [slice(0, 40**3)]
        assert spgs_grid._halves(40, 40 * 40) == [slice(0, 40)]
        assert len(spgs_grid._halves(42**3)) == 2
        assert len(spgs_grid._halves(42, 42 * 42)) == 2

    def test_planes_cut_at_the_middle_plane(self):
        # every even n that splits, so also the n - 2 block of each defect
        # correction from n = 44 on
        for m in range(42, 129, 2):
            assert spgs_grid._halves(m, m * m) == [slice(0, m // 2), slice(m // 2, m)], m

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pairings_and_updates_match_one_pass(self, on_cpus, split, cpus):
        on_cpus(cpus)
        rng = np.random.default_rng(cpus)
        for size in (100, 4 * split + 3, 262144):
            a, b, w = rng.standard_normal((3, size))
            assert spgs_grid._sum_of_products(a, b) == float(np.sum(a * b))
            assert spgs_grid._sum_of_products(a, b, w) == float(np.sum(w * a * b))
            assert np.array_equal(spgs_grid._scaled_add(-0.3, a, b), b - 0.3 * a)
            assert np.array_equal(spgs_grid._scaled_add(0.7, a), 0.7 * a)


class TestHelperThread:
    SIZE = 1 << 17  # flat values, above the split size

    def test_an_error_in_the_helpers_half_reaches_the_caller(self, on_cpus):
        on_cpus(2)
        ran = []

        def failing(sl):
            ran.append((sl.start, threading.current_thread().name))
            if sl.start > 0:
                raise ValueError("second half")
            return sl.start

        with pytest.raises(ValueError, match="second half"):
            spgs_grid._on_halves(failing, self.SIZE)
        assert sorted(start for start, _ in ran) == [0, self.SIZE // 2]
        # the next split still runs its second half on the helper
        names = spgs_grid._on_halves(lambda sl: threading.current_thread().name, self.SIZE)
        assert names == [threading.current_thread().name, "spgs-helper"]

    def test_threads_splitting_at_once_get_the_one_pass_bits(self, on_cpus):
        # more user threads than cores, switching often: a split that finds the helper
        # busy runs both halves itself, and no result crosses to another thread
        on_cpus(2)
        rng = np.random.default_rng(5)
        inputs = [rng.standard_normal((2, self.SIZE)) for _ in range(4)]
        wrong = []

        def work(a, b):
            dot, axpy = float(np.sum(a * b)), b - 0.3 * a
            try:
                for _ in range(25):
                    if spgs_grid._sum_of_products(a, b) != dot:
                        wrong.append("sum")
                    if not np.array_equal(spgs_grid._scaled_add(-0.3, a, b), axpy):
                        wrong.append("update")
            except Exception as exc:  # reported by the assertion below, not lost in the thread
                wrong.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(a, b)) for a, b in inputs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_shutdown_stops_the_thread_and_later_splits_run_on_the_caller(self, on_cpus):
        on_cpus(2)
        spgs_grid._on_halves(lambda sl: None, self.SIZE)
        helper = spgs_grid._helper
        helper.shutdown()
        assert not helper.thread.is_alive()
        names = spgs_grid._on_halves(lambda sl: threading.current_thread().name, self.SIZE)
        assert names == [threading.current_thread().name] * 2


class TestRefinementConvergence:
    def test_second_order_or_better(self):
        # doubling n shrinks the change for smooth concentrated fields
        L = 6.0

        def field(x, y, z):
            return (1.0 + 0.5 * x) * np.exp(-(x * x + y * y + z * z) / 1.5)

        vals = {}
        for n in (16, 32, 64):
            u = ScalarField.from_function(GridSpec(L=L, n=n), field)
            w = u.grid.h**3
            # the integrals of u and of |u|^2.5, and the Dirichlet form
            vals[n] = (
                w * float(np.sum(u.values)),
                kinetic_energy(u),
                w * float(np.sum(np.abs(u.values) ** 2.5)),
            )
        for idx in range(3):
            change_coarse = abs(vals[32][idx] - vals[16][idx])
            change_fine = abs(vals[64][idx] - vals[32][idx])
            assert change_fine < change_coarse


class TestHelpers:
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
        payload = bytes(8 * 8**3)
        for data, match in [
            # a header n that announces 6.4e19 payload bytes; 4 KB follow
            (b"SPGS1 n=2000000 L=4.0 staggered=1\n" + payload, "payload bytes"),
            (b"SPGS1 n=8 L=4.0 staggered=1\n" + payload[:-8], "payload bytes"),
            (b"SPGS1 n=8 L=4.0 staggered=1\n" + payload + b"\0", "payload bytes"),
            (b"SPGS1 n=8 L=4.0 staggered=0\n" + payload, "nodal layout"),
            (b"SPGS1 n=8 L=inf staggered=1\n" + payload, "half-width"),
        ]:
            path.write_bytes(data)
            with pytest.raises(ValueError, match=match):
                read_field(path)
