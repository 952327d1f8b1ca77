"""The octant box: mirror-even fields stored on the positive octant, each layer against the full box."""

import math

import numpy as np
import pytest
import scipy.fft

from spgs.errors import NoDescentError
from spgs.functional import energy_breakdown, precondition
from spgs.grid import (
    GridSpec,
    ScalarField,
    boundary_mass_fraction,
    minus_laplacian,
    read_field,
    sine_transform,
    write_field,
)
from spgs.minimize import GaussianBlob, SolverConfig, find_ground_state
from spgs.poisson import _screened_solve, solve_phi
from spgs.potential import Composite, Constant, CoulombSingular, Tabulated
from spgs.sampling import random_smooth_field


def _octant(L=4.0, n=16, kinetic="fd"):
    return GridSpec(L=L, n=n, kinetic=kinetic, symmetry="octant")


def _even(grid, seed=0):
    """A random smooth field on the octant grid; unfolded, it is mirror-even."""
    return random_smooth_field(grid, np.random.default_rng(seed))


def _unfold(a):
    """The mirror-even (2m)^3 extension of an (m, m, m) block."""
    m = a.shape[0]
    mirror = np.concatenate([np.arange(m)[::-1], np.arange(m)])
    return a[np.ix_(mirror, mirror, mirror)]


def _folded(full):
    """The stored octant of a full-box field, by slicing: no evenness check."""
    k = full.grid.n // 2
    return full.as3d[k:, k:, k:]


def _close(octant, full, rel):
    """octant equals the positive octant of full within rel of full's largest value."""
    reference = _folded(full)
    return np.max(np.abs(octant.as3d - reference)) <= rel * np.max(np.abs(reference))


class TestGrid:
    def test_axis_is_the_upper_half_of_the_full_axis_bit_for_bit(self):
        for L, n in [(4.0, 24), (6.0, 16), (2.5, 24), (4.0, 64)]:
            g = _octant(L, n)
            assert np.array_equal(g.axis, GridSpec(L, n).axis[n // 2 :])
            assert (g.m, g.num_nodes, g.h) == (n // 2, (n // 2) ** 3, GridSpec(L, n).h)
            assert g.weight == 8.0 * g.h**3 and g.full == GridSpec(L, n)

    def test_unknown_symmetry_is_refused(self):
        with pytest.raises(ValueError, match="symmetry"):
            GridSpec(L=4.0, n=16, symmetry="quadrant")

    def test_fold_and_unfold_round_trip(self):
        g = _octant()
        u = _even(g)
        full = u.on(g.full)
        assert full.grid == g.full and full.mirror_even
        assert np.array_equal(full.as3d, _unfold(u.as3d))
        assert np.array_equal(full.on(g).values, u.values)

    def test_a_field_that_is_not_mirror_even_is_refused(self):
        g = _octant()
        full = _even(g).on(g.full)
        values = full.values.copy()
        values[0] = np.nextafter(values[0], np.inf)
        with pytest.raises(ValueError, match="mirror images"):
            ScalarField(g.full, values).on(g, "initial field")

    def test_boundary_mass_and_dump_are_the_full_boxs(self, tmp_path):
        g = _octant()
        u = _even(g)
        full = u.on(g.full)
        assert boundary_mass_fraction(u) == boundary_mass_fraction(full)
        write_field(u, tmp_path / "u.field")
        dumped = read_field(tmp_path / "u.field")
        assert dumped.grid == GridSpec(g.L, g.n) and np.array_equal(dumped.values, full.values)


class TestOddModeTransform:
    @pytest.mark.parametrize("n", [8, 16, 24, 64])
    def test_forward_is_the_full_transforms_odd_modes(self, n):
        block = np.random.default_rng(n).standard_normal((n // 2,) * 3)
        full = scipy.fft.dstn(_unfold(block), type=1)
        odd = full[::2, ::2, ::2]
        got = sine_transform(block, octant=True)
        assert np.max(np.abs(got - odd)) <= 1e-13 * np.max(np.abs(odd))
        # a mirror-even field has no even mode
        assert np.max(np.abs(full[1::2])) <= 1e-13 * np.max(np.abs(odd))

    @pytest.mark.parametrize("n", [8, 16, 24, 64])
    def test_round_trip(self, n):
        block = np.asfortranarray(np.random.default_rng(n).standard_normal((n // 2,) * 3))
        back = sine_transform(sine_transform(block, octant=True), inverse=True, octant=True)
        assert back.flags.f_contiguous
        assert np.max(np.abs(back - block)) <= 1e-13 * np.max(np.abs(block))


class TestOperators:
    @pytest.mark.parametrize("kinetic", ["fd", "spectral"])
    @pytest.mark.parametrize("n", [16, 24])
    def test_minus_laplacian_and_precondition(self, kinetic, n):
        g = _octant(n=n, kinetic=kinetic)
        u = _even(g, seed=n)
        full = u.on(g.full)
        assert _close(minus_laplacian(u), minus_laplacian(full), 1e-13)
        assert _close(precondition(u), precondition(full), 1e-13)

    def test_fd_stencil_is_the_full_boxs_bit_for_bit(self):
        # the mirror ghost is the mirror node's value, added where the full box adds it
        g = _octant(n=24)
        u = _even(g, seed=3)
        assert np.array_equal(minus_laplacian(u).as3d, _folded(minus_laplacian(u.on(g.full))))

    @pytest.mark.parametrize("correction", [False, True])
    def test_poisson_solve(self, correction):
        g = _octant(L=5.0, n=24)
        u = _even(g, seed=5)
        phi = solve_phi(u, residual_correction=correction)
        assert _close(phi, solve_phi(u.on(g.full), residual_correction=correction), 1e-13)

    def test_k_is_symmetric_in_the_octant_pairing(self):
        g = _octant(L=5.0, n=32)
        rng = np.random.default_rng(19)
        a, b = rng.standard_normal((2, g.num_nodes))
        ka, kb = (_screened_solve(q.copy(), g) for q in (a, b))
        w = g.weight
        scale = w * math.sqrt(float(np.sum(a * ka)) * float(np.sum(b * kb)))
        assert abs(w * float(np.sum(a * kb)) - w * float(np.sum(ka * b))) <= 1e-14 * scale

    @pytest.mark.parametrize("kinetic", ["fd", "spectral"])
    def test_split_passes_give_the_one_thread_bits(self, on_cpus, split, kinetic):
        # m = 48 splits as built, and every pass splits when forced
        u = _even(_octant(L=5.0, n=96, kinetic=kinetic), seed=11)
        out = {}
        for cpus in (1, 2):
            on_cpus(cpus)
            out[cpus] = [f(u).values for f in (minus_laplacian, precondition, solve_phi)]
        for one, two in zip(out[1], out[2]):
            assert np.array_equal(one, two)

    def test_energies_are_the_full_boxs(self):
        g = _octant(L=5.0, n=24)
        u = _even(g, seed=7)
        V = CoulombSingular(1.0, 0.5, 1)
        got, want = (energy_breakdown(f, V.sample(f.grid), 4.0) for f in (u, u.on(g.full)))
        for name in ("A1", "B", "C", "h1"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13), name


@pytest.mark.parametrize(
    "V, L, n, kinetic, tol",
    [
        (Constant(1.0), 4.0, 24, "fd", 1e-7),
        (Constant(1.0), 4.0, 24, "spectral", 1e-7),
        (CoulombSingular(1.0, 0.5, 1), 6.0, 16, "fd", 1e-6),
    ],
    ids=["fd", "spectral", "coulomb"],
)
def test_octant_solve_is_the_full_box_solve(V, L, n, kinetic, tol):
    cfg = SolverConfig(p=4.0, tol_residual=tol)
    octant = find_ground_state(V, cfg, _octant(L, n, kinetic))
    full = find_ground_state(V, cfg, GridSpec(L, n, kinetic))
    assert octant.converged and full.converged
    assert octant.iterations == full.iterations
    assert abs(octant.c_estimate - full.c_estimate) <= 1e-12 * full.c_estimate
    for got, want in ((octant.u, full.u), (octant.phi, full.phi)):
        assert _close(got, want, 1e-10)
    assert octant.boundary_mass == pytest.approx(full.boundary_mass, rel=1e-9)
    assert octant.pohozaev == pytest.approx(full.pohozaev, rel=1e-9)


def test_tight_tolerance_on_the_octant_stays_at_the_centred_level():
    # the full box walks off the centred saddle along odd modes at this tolerance
    # (tests/test_minimize.py); the octant holds none, so it ends at the centred level
    cfg = SolverConfig(p=4.0, tol_residual=1e-13, max_iters=300)
    try:
        result = find_ground_state(Constant(1.0), cfg, _octant(n=24))
    except NoDescentError as exc:
        assert "level 10.0933180547" in str(exc)
    else:
        assert result.converged
        assert result.c_estimate == pytest.approx(10.0933180547, abs=1e-10)


class TestRefusals:
    def test_more_than_one_start(self):
        with pytest.raises(ValueError, match="starts=2"):
            find_ground_state(Constant(1.0), SolverConfig(starts=2), _octant())

    def test_off_centre_blob(self):
        with pytest.raises(ValueError, match="centred"):
            cfg = SolverConfig(init=GaussianBlob(center=(0.5, 0.0, 0.0)))
            find_ground_state(Constant(1.0), cfg, _octant())

    def test_callable_perturbation(self):
        V = Composite(Constant(1.0), lambda x, y, z: np.exp(-(x * x + y * y + z * z)), 0.5)
        with pytest.raises(ValueError, match="callable perturbation"):
            find_ground_state(V, SolverConfig(), _octant())

    def test_field_perturbation_and_table_fold_only_when_mirror_even(self):
        g = _octant(L=6.0)
        even = ScalarField.from_function(g.full, lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
        assert even.mirror_even
        folded = Composite(Constant(1.0), even, 0.5).sample(g)
        assert np.array_equal(folded.as3d, 1.0 - 0.5 * _folded(even))
        shifted = ScalarField.from_function(g.full, lambda x, y, z: np.exp(-((x - 0.5) ** 2 + y * y + z * z)))
        for V in (Composite(Constant(1.0), shifted, 0.5), Tabulated(shifted)):
            with pytest.raises(ValueError, match="mirror images"):
                V.sample(g)

    def test_tabulated_coercivity_on_the_octant_is_the_full_boxs(self):
        # the lowest generalised eigenvector of a mirror-even well is mirror-even
        g = _octant(L=6.0, n=16)
        V = Tabulated(CoulombSingular(1.0, 0.5, 2).sample(g.full))
        assert V.coercivity_constant(g) == pytest.approx(V.coercivity_constant(g.full), rel=1e-6)
