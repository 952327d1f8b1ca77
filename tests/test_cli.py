"""The command-line entry point, end to end on tiny runs."""

from types import SimpleNamespace

import numpy as np
import pytest

import spgs.minimize
from spgs.cli import main


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
    ],
    ids=["singular-on-nodal-grid", "nonpositive-vinf"],
)
def test_rejected_run_inputs_are_config_errors(tmp_path, capsys, args):
    assert main(args + ["--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("ERROR config:")
