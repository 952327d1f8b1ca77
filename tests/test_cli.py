"""The command-line entry point, end to end on tiny runs."""

import csv
import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spgs.cli
import spgs.minimize
import spgs.validate
from spgs.cli import main
from spgs.grid import GridSpec, ScalarField, boundary_mass_fraction, read_field, write_field
from spgs.minimize import GaussianBlob, SolverConfig, TraceRow, compare_with_vinf, initial_field
from spgs.poisson import solve_phi
from spgs.potential import Constant, CoulombSingular


def _fresh_python(code: str, env: dict[str, str | None] | None = None) -> str:
    """Stdout of `code` run by a fresh interpreter that imports spgs from these sources.

    `env` overrides this process's environment; a name mapped to None is removed.
    """
    src = str(Path(spgs.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in env.items() if value is not None}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return out.stdout.strip()


def test_cli_import_loads_no_scipy_sparse():
    # scipy.sparse costs RSS and import time on every run; only the grid
    # eigen-solve of tabulated and composite potentials imports it, lazily
    code = "import sys, spgs.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    assert _fresh_python(code) == "[]"


def test_cli_import_loads_no_scipy():
    # the 3-D path needs no scipy; the radial solver's LAPACK loads on the
    # first lookup of a radial name in the package
    code = """
import sys, threading, spgs, spgs.cli
print(sorted(m for m in sys.modules if m.startswith('scipy')))
# the helper thread starts at the first split pass, not at import
print(threading.active_count(), 'concurrent.futures' in sys.modules)
print(spgs.radial_ground_state is spgs.radial.radial_ground_state)
from spgs import RadialProfile
print(RadialProfile is spgs.radial.RadialProfile)
try:
    spgs.no_such_name
except AttributeError:
    print('AttributeError')
"""
    assert _fresh_python(code).splitlines() == ["[]", "1 False", "True", "True", "AttributeError"]


def test_3d_solve_loads_no_scipy():
    # the Poisson solve's erf tables come from math.erf: importing scipy.special
    # would cost 0.15-0.2 s of every run's set-up
    code = """
import sys
from spgs import Constant, GridSpec, SolverConfig, find_ground_state
res = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=16))
print(res.converged, sorted(m for m in sys.modules if m.startswith('scipy')))
"""
    assert _fresh_python(code) == "True []"


def test_split_solve_loads_no_executor():
    # n = 48 splits its passes; the helper is one thread handed work through
    # two locks, so neither concurrent.futures nor scipy comes in.  Importing
    # spgs starts numpy's and then scipy's OpenBLAS with no worker thread, so
    # the process's threads are the caller and the helper
    code = """
import os, sys
def threads():
    return len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '-'
import spgs.grid
counts = [threads()]
from spgs import Constant, GridSpec, SolverConfig, find_ground_state
find_ground_state(Constant(1.0), SolverConfig(p=4.0, max_iters=3), GridSpec(L=4.0, n=48))
counts.append(threads())
print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent'))))
print((spgs.grid._helper is None) == (len(os.sched_getaffinity(0)) < 2))
spgs.radial_ground_state
counts.append(threads())
print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'), spgs.grid._helper is not None, *counts)
"""
    lines = _fresh_python(code, env={"OPENBLAS_NUM_THREADS": None}).splitlines()
    assert lines[:2] == ["[]", "True"]
    blas, helper, *counts = lines[2].split()
    assert blas == "1"
    if counts != ["-"] * 3:
        with_helper = 1 + (helper == "True")
        assert [int(c) for c in counts] == [1, with_helper, with_helper]


def test_callers_blas_thread_count_wins():
    code = "import os, spgs; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, env={"OPENBLAS_NUM_THREADS": "2"}) == "2"


def test_sweep_jobs_2_after_an_in_process_solve(tmp_path):
    # the solve starts the helper thread; the sweep's forked workers inherit
    # the helper's object but not its thread, and must start their own rather than wait on it
    code = f"""
from pathlib import Path
from spgs.cli import main
out = Path({str(tmp_path)!r})
grid = ["--set", "grid.L=4.0", "--set", "grid.n=32"]
assert main(["solve", *grid, "--output", str(out / "solve")]) == 0
for jobs in ("2", "1"):
    argv = ["sweep-lambda", *grid, "--set", "sweep.lambdas=1.0,2.0", "--jobs", jobs]
    assert main([*argv, "--output", str(out / f"jobs{{jobs}}")]) == 0
"""
    _fresh_python(code)
    (two,) = tmp_path.glob("jobs2/*/sweep.csv")
    (one,) = tmp_path.glob("jobs1/*/sweep.csv")
    rows = [[line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
            for path in (two, one)]
    assert rows[0] == rows[1] and len(rows[0]) == 3


def test_sweep_reads_its_field_dump_once(tmp_path, monkeypatch):
    # the field built to check the run's inputs is the start of every lambda's solve
    dump = tmp_path / "init.field"
    blob = ScalarField.from_function(GridSpec(L=4.0, n=16), lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
    write_field(blob, dump)
    reads = []
    read = spgs.minimize.read_field

    def counting(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(spgs.minimize, "read_field", counting)
    argv = [
        "sweep-lambda",
        "--set", "grid.L=4.0",
        "--set", "grid.n=16",
        "--set", "sweep.lambdas=1.0,2.0,4.0",
        "--set", "solver.init=file",
        "--set", f"solver.init_path={dump}",
        "--output", str(tmp_path / "out"),
    ]
    # the exit code is left unread: on this coarse grid the levels need not rise with lambda
    main(argv)
    assert len(reads) == 1
    (sweep,) = (tmp_path / "out").glob("*/sweep.csv")
    assert len([line for line in sweep.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]) == 4


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
        spgs.minimize,
        "precondition",
        lambda r: SimpleNamespace(values=np.full(r.values.shape, np.inf)),
    )
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--output", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("ERROR solver[ValueError]:")


@pytest.mark.parametrize(
    "args",
    [
        # the nodal layout is retired, and its key with it; so are the first
        # trial step and the blob amplitude, refused even at their old defaults
        ["solve", "--set", "grid.staggered=false"],
        ["solve", "--set", "solver.step=1.0"],
        ["solve", "--set", "solver.init_amplitude=1.0"],
        ["compare-vinf", "--set", "potential.V1=-1.0"],
        ["solve", "--set", "solver.tol=nan"],
        ["solve", "--set", "solver.init_width=-1.0"],
        ["sweep-lambda", "--set", "sweep.lambdas=1.0,nan"],
        ["sweep-lambda", "--set", "sweep.lambdas=1.0,1.0"],
        # an initial field that underflows to zero on every node
        ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--set", "solver.init_center=100,0,0"],
        ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--seed", "-1"],
    ],
    ids=[
        "retired-staggered-key", "retired-step-key", "retired-amplitude-key", "nonpositive-vinf",
        "nan-tol", "negative-init-width", "nan-in-list", "repeated-lambda", "underflowed-init", "negative-seed",
    ],
)
def test_rejected_run_inputs_are_config_errors(tmp_path, capsys, args):
    assert main(args + ["--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("ERROR config:")


# each value the config passes on, with the --set items that give it a
# refused value and the library call that refuses it
_OWNED_RULES = [
    (["grid.L=-1.0"], lambda: GridSpec(L=-1.0, n=32)),
    (["grid.n=6"], lambda: GridSpec(L=4.0, n=6)),
    (["grid.n=9"], lambda: GridSpec(L=4.0, n=9)),
    (["grid.kinetic=bogus"], lambda: GridSpec(L=4.0, n=32, kinetic="bogus")),
    (["solver.p=5.5"], lambda: SolverConfig(p=5.5)),
    (["solver.tol=-1e-7"], lambda: SolverConfig(tol_residual=-1e-7)),
    (["solver.max_iters=0"], lambda: SolverConfig(max_iters=0)),
    (["solver.starts=0"], lambda: SolverConfig(starts=0)),
    (["solver.seed=-1"], lambda: SolverConfig(seed=-1)),
    (["solver.init_width=-1.0"], lambda: GaussianBlob(width=-1.0)),
    (["potential.kind=coulomb_singular", "potential.alpha=3"], lambda: CoulombSingular(1.0, 0.0, 3)),
    (["potential.kind=coulomb_singular", "potential.lambda=-0.5"], lambda: CoulombSingular(1.0, -0.5, 1)),
]


@pytest.mark.parametrize("sets, build", _OWNED_RULES, ids=[sets[-1] for sets, _ in _OWNED_RULES])
def test_each_range_rule_has_one_owner(tmp_path, capsys, sets, build):
    # the object that takes the value refuses it, and the CLI reports that
    # refusal as a config error of the value's section
    with pytest.raises(ValueError):
        build()
    argv = ["solve", "--output", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    section = sets[-1].split(".")[0]
    assert capsys.readouterr().err.startswith(f"ERROR config: {section}: ")
    assert not any(tmp_path.iterdir())


def test_compare_vinf_from_a_field_dump_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the dump fits the run grid but not the refined grid compare-vinf also
    # solves on, so the run is refused before its first solve
    dump = tmp_path / "init.field"
    blob = ScalarField.from_function(GridSpec(L=4.0, n=16), lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
    write_field(blob, dump)
    calls = []
    solve = spgs.minimize.find_ground_state

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(spgs.minimize, "find_ground_state", counting)
    argv = [
        "compare-vinf",
        "--set", "grid.L=4.0",
        "--set", "grid.n=16",
        "--set", "solver.init=file",
        "--set", f"solver.init_path={dump}",
        "--output", str(tmp_path / "out"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR config: solver.init:")
    assert calls == []


_COULOMB_COMPARE = [
    "compare-vinf",
    "--set", "grid.L=4.0",
    "--set", "grid.n=12",
    "--set", "potential.kind=coulomb_singular",
    "--set", "potential.lambda=0.5",
]


def _compare_row(outdir: Path) -> tuple[list[str], dict[str, str]]:
    (path,) = outdir.glob("*/compare.csv")
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return lines[0].split(","), next(csv.DictReader(lines))


def test_compare_vinf_writes_the_test_function_bound(tmp_path, capsys):
    assert main([*_COULOMB_COMPARE, "--output", str(tmp_path)]) == 0
    header, row = _compare_row(tmp_path)
    assert header == ["c", "c_inf", "strict", "bound"]
    assert float(row["c"]) <= float(row["bound"]) < float(row["c_inf"])
    assert f"bound = {row['bound']}" in capsys.readouterr().out


@pytest.mark.parametrize("violated_n", [12, 18], ids=["run-grid", "refined-grid"])
def test_compare_vinf_level_above_the_bound_exits_4(violated_n, tmp_path, capsys, monkeypatch):
    bound = spgs.minimize._limit_ray_max

    def lowered(V, limit):
        # 5 below the bound on one grid, which puts c above it there
        return bound(V, limit) - (5.0 if limit.u.grid.n == violated_n else 0.0)

    monkeypatch.setattr(spgs.minimize, "_limit_ray_max", lowered)
    assert main([*_COULOMB_COMPARE, "--output", str(tmp_path)]) == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1 and errors[0].startswith("ERROR bound: ")
    # compare.csv is written, with the refined grid's bound
    _, row = _compare_row(tmp_path)
    assert (float(row["bound"]) < float(row["c"])) == (violated_n == 18)


def test_compare_vinf_after_unconverged_solves_is_not_strict(tmp_path, monkeypatch):
    # V = 1 - 1/|x| at L = 4, n = 16 is strict once converged; two
    # iterations per solve leave all four unconverged, with a gap past the margin
    compare = spgs.cli.compare_with_vinf
    comparisons = []

    def recording(*args):
        comparisons.append(compare(*args))
        return comparisons[-1]

    monkeypatch.setattr(spgs.cli, "compare_with_vinf", recording)
    argv = [*_COULOMB_COMPARE, "--set", "grid.n=16", "--set", "potential.lambda=1.0"]
    assert main([*argv, "--set", "solver.max_iters=2", "--output", str(tmp_path)]) == 0
    _, row = _compare_row(tmp_path)
    assert row["strict"] == "0"
    (cmp_result,) = comparisons
    assert float(row["c_inf"]) - float(row["c"]) > cmp_result.margin


def _validate_report(outdir: Path) -> list[str]:
    """report.txt's lines after its `# generated` line."""
    (path,) = outdir.glob("validate-*/report.txt")
    return path.read_text(encoding="utf-8").splitlines()[1:]


def test_validate_passes_each_check_on_one_line(tmp_path, capsys):
    assert main(["validate", "--output", str(tmp_path)]) == 0
    lines = _validate_report(tmp_path)
    names = ["ground.positive", "ground.below-limit", "ground.monotone-in-V"]
    assert [line.split(":")[0] for line in lines[:-1]] == [f"PASS {name}" for name in names]
    assert lines[-1] == "3/3 checks passed"
    assert capsys.readouterr().out.splitlines() == lines


def test_validate_failed_check_exits_4_after_the_report(tmp_path, capsys, monkeypatch):
    check = spgs.validate.monotone_in_v
    monkeypatch.setattr(spgs.validate, "monotone_in_v", lambda *a: dataclasses.replace(check(*a), passed=False))
    assert main(["validate", "--output", str(tmp_path)]) == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1 and errors[0].startswith("ERROR validation: ")
    lines = _validate_report(tmp_path)
    assert lines[2].startswith("FAIL ground.monotone-in-V: ") and lines[-1] == "2/3 checks passed"


def test_validate_loads_no_scipy(tmp_path):
    code = f"""
import sys
from spgs.cli import main
rc = main(["validate", "--output", {str(tmp_path)!r}])
print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))
"""
    assert _fresh_python(code).splitlines()[-1] == "0 []"


def test_spectral_compare_vinf_solves_both_grids_in_spectral(tmp_path, capsys, monkeypatch):
    # the refined grid keeps the run grid's kinetic and its octant box; the
    # levels are the octant run's (the full box printed 8.74019141435643 and
    # 11.714167301054323) and lie within 1e-12 of the library's full-box comparison
    grids = []
    solve = spgs.minimize.find_ground_state

    def recording(V, cfg, grid, *u0):
        grids.append(grid)
        return solve(V, cfg, grid, *u0)

    monkeypatch.setattr(spgs.minimize, "find_ground_state", recording)
    argv = [*_COULOMB_COMPARE, "--set", "grid.n=16", "--set", "solver.tol=1e-6"]
    argv += ["--set", "grid.kinetic=spectral", "--output", str(tmp_path)]
    assert main(argv) == 0
    assert [(g.n, g.kinetic, g.symmetry) for g in grids] == (
        [(16, "spectral", "octant")] * 2 + [(24, "spectral", "octant")] * 2
    )
    out = capsys.readouterr().out
    assert out.startswith("c = 8.740191414356453  c_inf = 11.714167301054339  ")
    full = compare_with_vinf(CoulombSingular(1.0, 0.5, 1), SolverConfig(tol_residual=1e-6), grids[0].full)
    c, c_inf = (float(word) for word in out.split()[2:6:3])
    assert abs(c - full.c) <= 1e-12 * full.c and abs(c_inf - full.c_inf) <= 1e-12 * full.c_inf


def _spectral_solve(outdir: Path, *sets: str) -> tuple[Path, dict[str, str]]:
    """The run directory and summary row of a spectral solve at L = 4, n = 16 with more --set items."""
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--set", "grid.kinetic=spectral"]
    for item in sets:
        argv += ["--set", item]
    assert main([*argv, "--output", str(outdir)]) == 0
    (run_dir,) = outdir.iterdir()
    text = (run_dir / "summary.csv").read_text(encoding="utf-8")
    (row,) = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    return run_dir, row


def test_spectral_run_from_a_dump_or_a_table_keeps_its_level(tmp_path):
    # a dump and a table hold a box and node values, not a kinetic: on a
    # spectral run they give what the same values built in memory give, bit for bit
    grid = GridSpec(L=4.0, n=16, kinetic="spectral")
    write_field(initial_field(GaussianBlob(), grid, 1.0, 4.0), tmp_path / "init.field")
    write_field(Constant(1.0).sample(grid), tmp_path / "ones.field")
    memory, row = _spectral_solve(tmp_path / "memory")
    assert row["kinetic"] == "spectral"
    dump, dump_row = _spectral_solve(
        tmp_path / "dump", "solver.init=file", f"solver.init_path={tmp_path / 'init.field'}"
    )
    assert dump_row == row
    table, table_row = _spectral_solve(
        tmp_path / "table", "potential.kind=tabulated", f"potential.table_path={tmp_path / 'ones.field'}"
    )
    assert table_row["c_estimate"] == row["c_estimate"]
    for run_dir in (dump, table):
        assert (run_dir / "u.field").read_bytes() == (memory / "u.field").read_bytes()


def _config_error_from_init_dump(tmp_path, capsys, data):
    """stderr of a solve started from a dump holding `data`, which must exit 2."""
    dump = tmp_path / "init.field"
    dump.write_bytes(data)
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
    return err


def test_malformed_init_dump_is_a_config_error(tmp_path, capsys):
    assert "lacks n, L, staggered" in _config_error_from_init_dump(tmp_path, capsys, b"SPGS1 a=1 b=2 c=3\n")


@pytest.mark.parametrize(
    "header, detail",
    [
        (b"SPGS1 n=16 L=4.0 staggered=0\n", "nodal layout"),
        (b"SPGS1 n=2000000 L=4.0 staggered=1\n", "payload bytes"),
    ],
    ids=["nodal-layout", "oversize-n"],
)
def test_refused_init_dump_is_a_config_error(tmp_path, capsys, header, detail):
    assert detail in _config_error_from_init_dump(tmp_path, capsys, header + bytes(8 * 16**3))


def _refuses_a_table(mode, tmp_path, capsys):
    """A `mode` run on a real table is refused for its potential kind, not a missing file."""
    table = tmp_path / "v.field"
    write_field(ScalarField.from_function(GridSpec(L=4.0, n=16), lambda x, y, z: np.ones_like(x)), table)
    argv = [
        mode,
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


def test_tabulated_radial_crosscheck_is_a_config_error(tmp_path, capsys):
    _refuses_a_table("radial-crosscheck", tmp_path, capsys)


def test_tabulated_compare_vinf_is_a_config_error(tmp_path, capsys):
    # a table fits the run grid only, not compare-vinf's refined grid
    _refuses_a_table("compare-vinf", tmp_path, capsys)


@pytest.mark.parametrize("output", ["file", "file/out"], ids=["a-file", "under-a-file"])
def test_unusable_output_dir_is_a_config_error(tmp_path, capsys, output):
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--output", str(tmp_path / output)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR config: output_dir: ")


def test_run_started_in_the_same_second_takes_the_next_suffix(tmp_path, monkeypatch):
    # another run makes solve-<stamp> after this one found the name free
    strftime, now = time.strftime, time.localtime()
    monkeypatch.setattr(time, "strftime", lambda fmt, t=None: strftime(fmt, now))
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (tmp_path / f"solve-{stamp}").mkdir()
    exists = Path.exists
    monkeypatch.setattr(Path, "exists", lambda self, **kw: self.parent != tmp_path and exists(self, **kw))
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--output", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / f"solve-{stamp}-1" / "summary.csv").is_file()
    assert not any((tmp_path / f"solve-{stamp}").iterdir())


def test_summary_csv_carries_the_boundary_mass(tmp_path, capsys):
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--output", str(tmp_path)]
    assert main(argv) == 0
    (run_dir,) = tmp_path.iterdir()
    text = (run_dir / "summary.csv").read_text(encoding="utf-8")
    (row,) = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    # the truncation diagnostic of the reported state, exactly
    assert float(row["boundary_mass"]) == boundary_mass_fraction(read_field(run_dir / "u.field"))
    assert 0.0 < float(row["boundary_mass"]) < 1e-3
    # the Pohozaev defect of the reported state (measured +8.42e-2)
    assert 0.0 < float(row["pohozaev"]) < 0.2
    # both on the terminal line, to four digits, the defect last
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith(
        f"  boundary_mass = {float(row['boundary_mass']):.3e}  pohozaev = {float(row['pohozaev']):+.3e}"
    )


def test_phi_field_is_the_raw_solve_of_u_field(tmp_path):
    # the dumped phi is the one the level's B pairs with u^2, not the defect-corrected solve
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--output", str(tmp_path)]
    assert main(argv) == 0
    (run_dir,) = tmp_path.iterdir()
    phi = read_field(run_dir / "phi.field").values
    fresh = solve_phi(read_field(run_dir / "u.field"), residual_correction=False).values
    assert np.max(np.abs(phi - fresh)) <= 1e-13 * np.max(fresh)


def test_trace_csv_rows_are_the_result_trace(tmp_path, monkeypatch):
    results = []
    solve = spgs.cli.find_ground_state

    def recording(*args):
        results.append(solve(*args))
        return results[-1]

    monkeypatch.setattr(spgs.cli, "find_ground_state", recording)
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16", "--output", str(tmp_path)]
    assert main(argv) == 0
    (result,) = results
    (run_dir,) = tmp_path.iterdir()
    text = (run_dir / "trace.csv").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "iter,I,G,A1,B,C,residual_l2,step"
    rows = [TraceRow(int(k), *map(float, rest)) for k, *rest in (line.split(",") for line in lines[1:])]

    def bits(row):
        return np.array(dataclasses.astuple(row), dtype=np.float64).tobytes()

    assert [bits(row) for row in rows] == [bits(row) for row in result.trace]


@pytest.mark.parametrize("override, checks", [("true", 0), ("false", 1)])
def test_coercivity_override_key_reaches_the_solve(tmp_path, monkeypatch, override, checks):
    calls = []
    check = spgs.minimize.coercivity_check

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(spgs.minimize, "coercivity_check", counting)
    argv = [
        "solve",
        "--set", "grid.L=4.0",
        "--set", "grid.n=16",
        "--set", f"solver.coercivity_override={override}",
        "--output", str(tmp_path),
    ]
    assert main(argv) == 0
    assert len(calls) == checks


def _solve(capsys, outdir: Path, *sets: str) -> tuple[Path, dict[str, str], str]:
    """The run directory, summary row and terminal line of a solve at L = 4, n = 16 with more --set items."""
    argv = ["solve", "--set", "grid.L=4.0", "--set", "grid.n=16"]
    for item in sets:
        argv += ["--set", item]
    assert main([*argv, "--output", str(outdir)]) == 0
    (run_dir,) = outdir.iterdir()
    text = (run_dir / "summary.csv").read_text(encoding="utf-8")
    (row,) = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    return run_dir, row, capsys.readouterr().out


def test_a_radial_solve_runs_on_the_octant_and_dumps_the_full_box(tmp_path, capsys):
    run_dir, row, line = _solve(capsys, tmp_path / "a")
    assert row["symmetry"] == "octant" and "  box = octant  " in line
    header = (run_dir / "summary.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
    assert header[header.index("kinetic") + 1] == "symmetry"
    u = read_field(run_dir / "u.field")
    assert u.grid == GridSpec(L=4.0, n=16) and u.mirror_even
    # from that dump the run folds the converged state onto the octant again and
    # stops at once, with the same row but for the iteration count and rounding
    _, again, line = _solve(capsys, tmp_path / "b", "solver.init=file", f"solver.init_path={run_dir / 'u.field'}")
    assert "  box = octant  " in line and again["iterations"] == "0"
    rounded = ("c_estimate", "residual_norm", "boundary_mass", "pohozaev")
    assert {k: v for k, v in again.items() if k not in rounded + ("iterations",)} == {
        k: v for k, v in row.items() if k not in rounded + ("iterations",)
    }
    for key in rounded:
        assert float(again[key]) == pytest.approx(float(row[key]), rel=1e-9), key
    assert abs(float(again["c_estimate"]) - float(row["c_estimate"])) <= 1e-12 * float(row["c_estimate"])


@pytest.mark.parametrize(
    "sets",
    [["solver.starts=2"], ["solver.init_center=0.5,0,0"], ["potential.kind=tabulated"]],
    ids=["two-starts", "off-centre-start", "uneven-table"],
)
def test_a_solve_that_is_not_mirror_even_runs_the_full_box(tmp_path, capsys, sets):
    if sets == ["potential.kind=tabulated"]:
        table = tmp_path / "v.field"
        write_field(ScalarField.from_function(GridSpec(L=4.0, n=16), lambda x, y, z: 1.0 + 0.01 * x), table)
        sets = [*sets, f"potential.table_path={table}"]
    _, row, line = _solve(capsys, tmp_path / "out", *sets)
    assert row["symmetry"] == "none" and "  box = none  " in line
