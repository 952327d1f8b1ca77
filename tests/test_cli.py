"""The command-line entry point, end to end on tiny runs."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

import spgs.minimize
from spgs.cli import main
from spgs.grid import GridSpec, ScalarField, boundary_mass_fraction, read_field, write_field


def test_radial_crosscheck_profile_rows_parse_as_floats(tmp_path):
    argv = [
        "radial-crosscheck",
        "--set", "grid.L=4.0",
        "--set", "grid.n=16",
        "--set", "radial.n_r=256",
        "--output", str(tmp_path),
    ]
    assert main(argv) == 0
    (run_dir,) = tmp_path.iterdir()
    text = (run_dir / "radial_profile.csv").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "r,u,phi"
    assert len(lines) == 257
    for line in lines[1:]:
        assert len([float(x) for x in line.split(",")]) == 3


def test_nonfinite_step_mid_descent_is_a_solver_error(tmp_path, monkeypatch, capsys):
    # the trial field u - alpha * inf is rejected by ScalarField with a
    # ValueError deep inside the descent: a solver error, not a config error
    monkeypatch.setattr(
        spgs.minimize, "precondition", lambda r: SimpleNamespace(values=np.full(r.values.shape, np.inf))
    )
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--output", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("ERROR solver[ValueError]:")


@pytest.mark.parametrize(
    "args",
    [
        # the singular potential rejects a grid with a node at the origin
        ["solve", "--set", "grid.staggered=false", "--set", "grid.n=15",
         "--set", "potential.kind=coulomb_singular"],
        ["compare-vinf", "--set", "potential.V1=-1.0"],
        ["solve", "--set", "solver.tol=nan"],
        ["solve", "--set", "solver.step=inf"],
        ["solve", "--set", "solver.init_width=-1.0"],
        ["sweep-lambda", "--set", "sweep.lambdas=1.0,nan"],
        # initial fields that are zero on every node: by amplitude, by underflow
        ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--set", "solver.init_amplitude=0"],
        ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--set", "solver.init_center=100,0,0"],
        ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--seed", "-1"],
    ],
    ids=[
        "singular-on-nodal-grid", "nonpositive-vinf", "nan-tol", "infinite-step",
        "negative-init-width", "nan-in-list", "zero-init", "underflowed-init", "negative-seed",
    ],
)
def test_rejected_run_inputs_are_config_errors(tmp_path, capsys, args):
    assert main(args + ["--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("ERROR config:")


def test_malformed_init_dump_is_a_config_error(tmp_path, capsys):
    dump = tmp_path / "init.field"
    dump.write_bytes(b"SPGS1 a=1 b=2 c=3\n")
    argv = [
        "solve",
        "--set", "grid.L=4.0",
        "--set", "grid.n=16",
        "--set", "solver.init=file",
        "--set", f"solver.init_path={dump}",
        "--output", str(tmp_path / "out"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR config:")
    assert "lacks n, L, staggered" in err


def test_tabulated_radial_crosscheck_is_a_config_error(tmp_path, capsys):
    # a real table: the run must be refused for its potential kind, not a missing file
    table = tmp_path / "v.field"
    write_field(ScalarField.from_function(GridSpec(L=4.0, n=16), lambda x, y, z: np.ones_like(x)), table)
    argv = [
        "radial-crosscheck",
        "--set", "grid.L=4.0",
        "--set", "grid.n=16",
        "--set", "radial.n_r=256",
        "--set", "potential.kind=tabulated",
        "--set", f"potential.table_path={table}",
        "--output", str(tmp_path / "out"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR config: potential.kind:")
    assert not (tmp_path / "out").exists()


def test_summary_csv_carries_the_boundary_mass(tmp_path, capsys):
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--output", str(tmp_path)]
    assert main(argv) == 0
    (run_dir,) = tmp_path.iterdir()
    text = (run_dir / "summary.csv").read_text(encoding="utf-8")
    (row,) = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    # the truncation diagnostic of the reported state, exactly
    assert float(row["boundary_mass"]) == boundary_mass_fraction(read_field(run_dir / "u.field"))
    assert 0.0 < float(row["boundary_mass"]) < 1e-3
    # and on the terminal line, to four digits
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith(f"  boundary_mass = {float(row['boundary_mass']):.3e}")
