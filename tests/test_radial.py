"""Radial oracle: shell-theorem Poisson solve and radial descent."""

import math

import numpy as np
import pytest
import scipy.linalg

import spgs.radial
from spgs.minimize import SolverConfig, GaussianBlob
from spgs.potential import Composite, Constant, CoulombSingular
from spgs.radial import (
    RadialProfile,
    _mesh,
    _radial_precondition,
    _radial_residual,
    radial_energy_breakdown,
    radial_ground_state,
    radial_kinetic_energy,
    radial_quadrature,
    radial_solve_phi,
    write_radial_csv,
)
from spgs.validate import run_validation


def gaussian_profile(r_max=30.0, n_r=4096, width=1.0):
    dr = r_max / n_r
    nodes = (np.arange(n_r) + 0.5) * dr
    return RadialProfile(r_max, n_r, np.exp(-(nodes**2) / (2.0 * width**2)))


class TestRadialProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialProfile(-1.0, 16, np.zeros(16))
        with pytest.raises(ValueError):
            RadialProfile(1.0, 16, np.zeros(15))
        bad = np.zeros(16)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            RadialProfile(1.0, 16, bad)

    def test_staggered_nodes(self):
        prof = RadialProfile(10.0, 16, np.zeros(16))
        assert prof.nodes[0] == pytest.approx(prof.dr / 2.0)
        assert prof.nodes[-1] == pytest.approx(10.0 - prof.dr / 2.0)


class TestRadialSolvePhi:
    def test_zero(self):
        prof = RadialProfile(10.0, 64, np.zeros(64))
        phi = radial_solve_phi(prof)
        assert np.all(phi.values == 0.0)

    def test_exterior_shell_theorem(self):
        # compactly supported charge: phi(r) = M / r outside the support,
        # with M the discrete enclosed-mass integral itself
        r_max, n_r = 20.0, 2048
        dr = r_max / n_r
        nodes = (np.arange(n_r) + 0.5) * dr
        vals = np.where(nodes < 2.0, (1.0 - (nodes / 2.0) ** 2) ** 2, 0.0)
        u = RadialProfile(r_max, n_r, vals)
        phi = radial_solve_phi(u)
        q = u.values**2
        m_total = np.sum(dr * nodes**2 * q)
        outside = nodes > 2.5
        assert np.allclose(phi.values[outside], m_total / nodes[outside], rtol=1e-8)

    def test_gaussian_center_value(self):
        u = gaussian_profile(r_max=30.0, n_r=16384)
        phi = radial_solve_phi(u)
        # phi(0) = 1/2 for the unit gaussian charge exp(-r^2)
        assert phi.values[0] == pytest.approx(0.5, abs=1e-6)

    def test_erf_closed_form(self):
        u = gaussian_profile(r_max=30.0, n_r=16384)
        phi = radial_solve_phi(u)
        r = u.nodes
        exact = math.sqrt(math.pi) / 4.0 * np.array([math.erf(x) for x in r]) / r
        assert np.max(np.abs(phi.values - exact)) < 1e-6

    def test_self_adjoint_in_the_r2_pairing(self):
        # q -> phi is linear in q = u^2 and symmetric in sum r^2 a b
        r_max, n_r = 15.0, 512
        nodes = (np.arange(n_r) + 0.5) * (r_max / n_r)
        rng = np.random.default_rng(5)
        qa = np.abs(rng.standard_normal(n_r)) * np.exp(-nodes)
        qb = np.abs(rng.standard_normal(n_r)) * np.exp(-nodes / 3.0)
        pa = radial_solve_phi(RadialProfile(r_max, n_r, np.sqrt(qa))).values
        pb = radial_solve_phi(RadialProfile(r_max, n_r, np.sqrt(qb))).values
        lhs = float(np.sum(nodes**2 * pa * qb))
        rhs = float(np.sum(nodes**2 * qa * pb))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_nonnegative_and_nonincreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            r_max, n_r = 15.0, 512
            dr = r_max / n_r
            nodes = (np.arange(n_r) + 0.5) * dr
            w = rng.uniform(0.5, 3.0)
            c = rng.uniform(0.0, 3.0)
            vals = np.exp(-((nodes - c) ** 2) / (2 * w * w))
            phi = radial_solve_phi(RadialProfile(r_max, n_r, vals))
            assert phi.values.min() >= 0.0
            assert np.all(np.diff(phi.values) <= 1e-14)


class TestRadialEnergies:
    def test_kinetic_closed_form(self):
        # integral |u'|^2 over R^3 for exp(-r^2/2) is (3/2) pi^(3/2)
        u = gaussian_profile(r_max=20.0, n_r=8192)
        assert radial_kinetic_energy(u) == pytest.approx(1.5 * math.pi**1.5, rel=1e-5)

    def test_quadrature_closed_form(self):
        u = gaussian_profile(r_max=20.0, n_r=8192)
        mass = radial_quadrature(u, u.values**2)
        assert mass == pytest.approx(math.pi**1.5, rel=1e-8)

    def test_breakdown_identity(self):
        u = gaussian_profile(r_max=20.0, n_r=1024)
        phi = radial_solve_phi(u)
        eb = radial_energy_breakdown(u, np.ones(u.n_r), 4.0, phi)
        assert abs(eb.I - eb.J - eb.G / 5.0) <= 1e-12 * max(abs(eb.I), 1.0)

    def test_breakdown_h1_is_the_radial_sobolev_norm(self):
        u = gaussian_profile(r_max=20.0, n_r=1024)
        eb = radial_energy_breakdown(u, np.ones(u.n_r), 4.0, radial_solve_phi(u))
        assert eb.h1 == math.sqrt(radial_kinetic_energy(u) + radial_quadrature(u, u.values * u.values))


class TestRadialResidual:
    @pytest.mark.parametrize("direction", ["core bump", "wide gaussian", "random decaying"])
    def test_directional_derivative(self, direction):
        # <r, v> in the r^2-weighted quadrature is the derivative of I along v
        r_max, n_r, p = 15.0, 512, 4.0
        nodes = (np.arange(n_r) + 0.5) * (r_max / n_r)
        ones = np.ones(n_r)
        v = {
            "core bump": np.exp(-((nodes / 0.3) ** 2)),
            "wide gaussian": np.exp(-((nodes / 4.0) ** 2) / 2.0),
            "random decaying": np.random.default_rng(3).standard_normal(n_r) * np.exp(-nodes / 2.0),
        }[direction]
        u = RadialProfile(r_max, n_r, 1.3 * np.exp(-((nodes / 1.5) ** 2) / 2.0))
        r, _, _ = _radial_residual(u, ones, p, radial_solve_phi(u))
        ip = radial_quadrature(u, r * v)

        def action(values):
            prof = RadialProfile(r_max, n_r, values)
            return radial_energy_breakdown(prof, ones, p, radial_solve_phi(prof)).I

        eps = 1e-5
        fd = (action(u.values + eps * v) - action(u.values - eps * v)) / (2.0 * eps)
        assert fd == pytest.approx(ip, rel=1e-6)


def test_validate_suite_checks_the_radial_gradient():
    results = run_validation(seed=0)
    checks = {c.name: c for c in results}
    assert checks["radial.gradient"].passed
    # the whole invariant suite of `spgs validate`, so any regression fails here
    assert len(checks) == len(results) == 18
    assert [c.name for c in results if not c.passed] == []


class TestRadialMesh:
    @pytest.mark.parametrize("r_max, n_r", [(15.0, 512), (30.0, 8192)])
    def test_factored_preconditioner_equals_the_banded_solve(self, r_max, n_r):
        # the per-call assembly and solveh_banded (LAPACK ptsv) that the
        # mesh's dpttrf factor and dpttrs replace, to the last bit
        dr = r_max / n_r
        r = (np.arange(n_r) + 0.5) * dr
        w = (np.arange(1, n_r + 1) * dr) ** 2
        r2 = r * r
        ab = np.zeros((2, n_r))
        ab[0, 1:] = -w[:-1] / (dr * dr * np.sqrt(r2[:-1] * r2[1:]))
        ab[1, :] = (w + np.concatenate(([0.0], w[:-1]))) / (dr * dr * r2) + 1.0
        rng = np.random.default_rng(n_r)
        for _ in range(3):
            res = rng.standard_normal(n_r) * np.exp(-r / rng.uniform(1.0, 5.0))
            old = scipy.linalg.solveh_banded(ab, res * r) / r
            assert np.array_equal(_radial_precondition(res, _mesh(r_max, n_r)), old)

    def test_mesh_constants_are_read_only(self):
        mesh = RadialProfile(10.0, 16, np.zeros(16)).mesh
        for a in (mesh.r, mesh.r2, mesh.w, *mesh.sobolev):
            assert not a.flags.writeable

    def test_meshes_sharing_n_r_do_not_share_constants(self):
        # same n_r, different r_max: each level is the same whichever mesh is built first
        cfg = SolverConfig(p=4.0, tol_residual=1e-7, max_iters=600)

        def solve(r_max):
            u, _, c = radial_ground_state(Constant(1.0), 4.0, r_max=r_max, n_r=512, cfg=cfg)
            return c, u.values

        _mesh.cache_clear()
        first = {r_max: solve(r_max) for r_max in (15.0, 30.0)}
        _mesh.cache_clear()
        second = {r_max: solve(r_max) for r_max in (30.0, 15.0)}
        assert first[15.0][0] != first[30.0][0]
        for r_max in (15.0, 30.0):
            assert first[r_max][0] == second[r_max][0]
            assert np.array_equal(first[r_max][1], second[r_max][1])


def test_descent_looks_up_the_traced_layers_at_call_time(monkeypatch):
    # the bench's per-layer radial metrics wrap these two module attributes
    cfg = SolverConfig(p=4.0, tol_residual=1e-7, max_iters=600)
    _, _, c_plain = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=512, cfg=cfg)
    calls = {"radial_solve_phi": 0, "radial_energy_breakdown": 0}

    def counting(name):
        original = getattr(spgs.radial, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(spgs.radial, name, counting(name))
    _, _, c_traced = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=512, cfg=cfg)
    assert calls["radial_solve_phi"] > 0
    assert calls["radial_energy_breakdown"] > 0
    assert c_traced == c_plain


class TestRadialGroundState:
    def test_level_and_refinement_stability(self):
        cfg = SolverConfig(p=4.0, tol_residual=1e-8, max_iters=600)
        _, _, c1 = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=2048, cfg=cfg)
        _, _, c2 = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=4096, cfg=cfg)
        assert abs(c1 - c2) / abs(c2) < 0.005

    def test_lambda_ordering(self):
        cfg = SolverConfig(p=4.0, tol_residual=1e-7, max_iters=600)
        _, _, c1 = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=1024, cfg=cfg)
        _, _, c2 = radial_ground_state(Constant(2.0), 4.0, r_max=30.0, n_r=1024, cfg=cfg)
        assert c1 < c2

    def test_residual_and_manifold_contracts(self):
        cfg = SolverConfig(p=4.0, tol_residual=1e-8, max_iters=600)
        u, phi, c = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=2048, cfg=cfg)
        eb = radial_energy_breakdown(u, np.ones(u.n_r), 4.0, phi)
        assert abs(eb.G) <= 1e-9 * eb.magnitude
        assert eb.I == pytest.approx(c)

    def test_singular_potential_supported(self):
        cfg = SolverConfig(p=4.0, tol_residual=1e-7, max_iters=600)
        _, _, c_sing = radial_ground_state(
            CoulombSingular(1.0, 0.05, 1), 4.0, r_max=30.0, n_r=1024, cfg=cfg
        )
        _, _, c_one = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=1024, cfg=cfg)
        assert c_sing < c_one

    def test_fine_mesh_converges_to_the_reference(self):
        # this point ended in NoDescentError at iteration 85 under steepest descent
        _, _, c = radial_ground_state(Constant(1.0), 4.0, r_max=15.0, n_r=32768)
        assert abs(c - 9.863277389) <= 1e-6

    def test_rejects_nonradial_potential(self):
        comp = Composite(Constant(1.0), lambda x, y, z: x, 0.1)
        with pytest.raises(ValueError):
            radial_ground_state(comp, 4.0, n_r=128)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            radial_ground_state(Constant(1.0), 5.5, n_r=128)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"n_r": 2}, "n_r"), ({"n_r": 1}, "n_r"), ({"n_r": 0}, "n_r"), ({"r_max": 0.0}, "r_max")],
        ids=["n_r=2", "n_r=1", "n_r=0", "r_max=0"],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_a_mesh_the_cli_rejects(self, kwargs, name):
        # the CLI's bounds: radial.r_max > 0, radial.n_r >= 16, checked before any mesh arithmetic
        with pytest.raises(ValueError, match=name):
            radial_ground_state(Constant(1.0), 4.0, **kwargs)

    def test_init_width_from_config(self):
        cfg = SolverConfig(
            p=4.0, tol_residual=1e-7, max_iters=600, init=GaussianBlob(width=0.7)
        )
        _, _, c = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=1024, cfg=cfg)
        assert c == pytest.approx(9.8635, rel=0.01)


    def test_exponent_from_the_call_not_from_cfg(self):
        u_cfg, _, c_cfg = radial_ground_state(
            Constant(1.0), 3.5, n_r=1024, cfg=SolverConfig(p=4.0)
        )
        u_own, _, c_own = radial_ground_state(Constant(1.0), 3.5, n_r=1024)
        assert c_cfg == c_own
        assert np.array_equal(u_cfg.values, u_own.values)


class TestRadialDump:
    def test_csv_header_and_rows(self, tmp_path):
        u = gaussian_profile(r_max=5.0, n_r=32)
        phi = radial_solve_phi(u)
        path = tmp_path / "profile.csv"
        write_radial_csv(u, phi, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,u,phi"
        assert len(lines) == 33
        r0, u0, p0 = lines[1].split(",")
        assert float(r0) == pytest.approx(u.nodes[0])
        assert float(u0) == pytest.approx(u.values[0])
        assert float(p0) == pytest.approx(phi.values[0])
