"""Command-line entry point: configuration, run modes, output emission.

Modes: solve, sweep-lambda, compare-vinf, validate, radial-crosscheck.
Each run writes into <output_dir>/<mode>-<timestamp>/: a canonical echo
of the effective configuration, the mode's CSV outputs and field dumps.
Outputs are byte-deterministic for a fixed (config, seed) except for the
single `# generated` timestamp line at the top of each CSV and the
timestamp in the directory name.  `radial_profile.csv` (radial-crosscheck)
is written by `radial.write_radial_csv` and has no `# generated` line.

Exit codes: 0 ok, 2 config error, 3 solver error, 4 a failed mode check
(validate's checks of solved states against the paper, sweep-lambda's
monotonicity in lambda, compare-vinf's test-function bound
`VinfComparison.bound_holds`), after the outputs are written.
A value rejected while the run's grid, solver settings, potential or
initial field are built is a config error, and so is an output_dir in
which the run's directory cannot be made; any other error raised during
the run, a ValueError from deep inside a solve included, is a solver
error.  Failures print one machine-readable line `ERROR <category>:
<detail>` to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .config import MODES, RunConfig, apply_assignments, canonical_text, describe_keys, parse_config
from .errors import ConfigError, SpgsError
from .grid import GridSpec, ScalarField, write_field
from .minimize import (
    GaussianBlob,
    GroundStateResult,
    SolverConfig,
    TraceRow,
    compare_with_vinf,
    find_ground_state,
    initial_field,
)
from .potential import Constant, Potential

# trace.csv has one column per TraceRow field, in field order
_TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))
SUMMARY_HEADER = (
    "L,n,potential,p,tol,max_iters,seed,kinetic,symmetry,c_estimate,residual_norm,iterations,converged,"
    "boundary_mass,pohozaev"
)


def _timestamp_line() -> str:
    return f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}"


def _make_run_dir(cfg: RunConfig) -> Path:
    base = Path(cfg.output_dir)
    base.mkdir(parents=True, exist_ok=True)
    name = f"{cfg.mode}-{time.strftime('%Y%m%d-%H%M%S')}"
    k = 0
    # mkdir claims the name: a run started in the same second takes the next suffix
    while True:
        candidate = base / (f"{name}-{k}" if k else name)
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            k += 1


def _potential_echo(cfg: RunConfig) -> str:
    if cfg.potential_kind == "constant":
        return f"constant(V1={cfg.potential_V1!r})"
    if cfg.potential_kind == "coulomb_singular":
        return (
            f"coulomb_singular(V1={cfg.potential_V1!r}"
            f";lambda={cfg.potential_lambda!r};alpha={cfg.potential_alpha})"
        )
    return f"tabulated({cfg.potential_table_path})"


def _summary_row(cfg: RunConfig, potential_echo: str, result: GroundStateResult) -> str:
    return ",".join(
        [
            repr(cfg.grid_L),
            str(cfg.grid_n),
            potential_echo,
            repr(cfg.solver_p),
            repr(cfg.solver_tol),
            str(cfg.solver_max_iters),
            str(cfg.solver_seed),
            cfg.grid_kinetic,
            result.u.grid.symmetry,
            repr(result.c_estimate),
            repr(result.residual_norm),
            str(result.iterations),
            "1" if result.converged else "0",
            repr(result.boundary_mass),
            repr(result.pohozaev),
        ]
    )


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_timestamp_line() + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _write_result(cfg: RunConfig, outdir: Path, result: GroundStateResult) -> None:
    """trace.csv, summary.csv, u.field and phi.field of one ground-state solve."""
    rows = [",".join(repr(getattr(t, name)) for name in _TRACE_FIELDS) for t in result.trace]
    _write_csv(outdir / "trace.csv", ",".join(_TRACE_FIELDS), rows)
    _write_csv(outdir / "summary.csv", SUMMARY_HEADER, [_summary_row(cfg, _potential_echo(cfg), result)])
    write_field(result.u, outdir / "u.field")
    write_field(result.phi, outdir / "phi.field")


def _build(cfg: RunConfig) -> tuple[Potential, SolverConfig, GridSpec, ScalarField]:
    """The run's potential, solver settings, grid and initial field.

    The potential is sampled and the initial field built on the grid here,
    so that every value they reject, and an initial field that is zero on
    every node, surfaces as a ConfigError before the solve starts.  Like
    `RunConfig.validate`, this holds in every mode, also in sweep-lambda,
    which replaces the potential by constants.  The solves on the run grid
    start from the field built here, so a field dump is read once per run.

    A run with one start is sampled on the octant box (`GridSpec.symmetry`)
    first, and runs there unless the octant refuses the potential or the
    start: an off-centre blob, a table or dump that does not equal its
    mirror images in x, y and z bit for bit.  Then it samples the full box,
    where a value that is wrong on any box is a ConfigError.
    """
    try:
        grid = cfg.build_grid()
        solver = cfg.build_solver()
        potential = cfg.build_potential()
        v_inf = potential.v_infinity()
        # a field dump is read here, once, and put on each box tried below
        init = solver.init
        if not isinstance(init, GaussianBlob):
            init = initial_field(init, grid, v_inf, solver.p)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    def start(box: GridSpec) -> ScalarField:
        potential.sample(box)
        return initial_field(init, box, v_inf, solver.p)

    u0 = None
    if solver.starts == 1:
        octant = replace(grid, symmetry="octant")
        try:
            u0, grid = start(octant), octant
        except ValueError:
            pass  # the octant refuses it; the full box below holds it or names the error
    if u0 is None:
        try:
            u0 = start(grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if not u0.values.any():
        raise ConfigError("solver.init: the initial field is zero on every node of the grid")
    return potential, solver, grid, u0


def _run_solve(cfg: RunConfig, outdir: Path) -> int:
    potential, solver, grid, u0 = _build(cfg)
    result = find_ground_state(potential, solver, grid, u0)
    _write_result(cfg, outdir, result)
    print(
        f"c_estimate = {result.c_estimate!r}  residual = {result.residual_norm:.3e}  "
        f"iterations = {result.iterations}  converged = {result.converged}  box = {result.u.grid.symmetry}  "
        f"boundary_mass = {result.boundary_mass:.3e}  pohozaev = {result.pohozaev:+.3e}"
    )
    return 0


def _sweep_point(
    args: tuple[float, SolverConfig, GridSpec, ScalarField],
) -> tuple[float, GroundStateResult]:
    lam, solver, grid, u0 = args
    return lam, find_ground_state(Constant(lam), solver, grid, u0)


def _run_sweep(cfg: RunConfig, outdir: Path) -> int:
    _, solver, grid, u0 = _build(cfg)
    lams = sorted(cfg.sweep_lambdas)
    points = [(lam, solver, grid, u0) for lam in lams]
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = dict(pool.map(_sweep_point, points))
    else:
        results = dict(map(_sweep_point, points))

    _write_csv(
        outdir / "sweep.csv",
        "lambda,c",
        [f"{lam!r},{results[lam].c_estimate!r}" for lam in lams],
    )
    rows = []
    for lam in lams:
        echo = f"constant(V1={lam!r})"
        rows.append(_summary_row(cfg, echo, results[lam]))
    _write_csv(outdir / "summary.csv", SUMMARY_HEADER, rows)
    for lam in lams:
        print(f"lambda = {lam!r}: c = {results[lam].c_estimate!r}")

    cvals = [results[lam].c_estimate for lam in lams]
    if any(b <= a for a, b in zip(cvals, cvals[1:])):
        print("ERROR monotonicity: sweep levels are not strictly increasing in lambda", file=sys.stderr)
        return 4
    return 0


def _run_compare(cfg: RunConfig, outdir: Path) -> int:
    potential, solver, grid, _ = _build(cfg)
    vinf = potential.v_infinity()
    if vinf <= 0:
        raise ConfigError(f"potential: compare-vinf needs v_infinity > 0, got {vinf!r}")
    cmp_result = compare_with_vinf(potential, solver, grid)
    _write_csv(
        outdir / "compare.csv",
        "c,c_inf,strict,bound",
        [f"{cmp_result.c!r},{cmp_result.c_inf!r},{1 if cmp_result.strict else 0},{cmp_result.bound!r}"],
    )
    print(
        f"c = {cmp_result.c!r}  c_inf = {cmp_result.c_inf!r}  strict = {cmp_result.strict}  "
        f"bound = {cmp_result.bound!r}  "
        f"(margin {cmp_result.margin:.3e}, refinement delta {cmp_result.refinement_delta:.3e})"
    )
    if not cmp_result.bound_holds:
        excess = f"{cmp_result.bound_excess:.3e}"
        print(f"ERROR bound: c exceeds max_t I_V(t u_inf) by {excess} of |A1| + B + C", file=sys.stderr)
        return 4
    return 0


def _run_validate(cfg: RunConfig, outdir: Path) -> int:
    from .validate import report_lines, run_validation

    results = run_validation(p=cfg.solver_p)
    lines = report_lines(results)
    with open(outdir / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(_timestamp_line() + "\n")
        for line in lines:
            fh.write(line + "\n")
    for line in lines:
        print(line)
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"ERROR validation: {failed} of {len(results)} checks of solved states failed", file=sys.stderr)
        return 4
    return 0


def _run_radial_crosscheck(cfg: RunConfig, outdir: Path) -> int:
    from . import radial

    potential, solver, grid, u0 = _build(cfg)
    result = find_ground_state(potential, solver, grid, u0)
    u_r, phi_r, c_radial = radial.radial_ground_state(
        potential, cfg.solver_p, r_max=cfg.radial_r_max, n_r=cfg.radial_n_r, cfg=solver
    )
    rel_gap = abs(result.c_estimate - c_radial) / abs(c_radial)
    _write_result(cfg, outdir, result)
    _write_csv(
        outdir / "crosscheck.csv",
        "c_3d,c_radial,rel_gap",
        [f"{result.c_estimate!r},{c_radial!r},{rel_gap!r}"],
    )
    radial.write_radial_csv(u_r, phi_r, outdir / "radial_profile.csv")
    print(f"c_3d = {result.c_estimate!r}  c_radial = {c_radial!r}  rel_gap = {rel_gap!r}")
    return 0


_RUNNERS = {
    "solve": _run_solve,
    "sweep-lambda": _run_sweep,
    "compare-vinf": _run_compare,
    "validate": _run_validate,
    "radial-crosscheck": _run_radial_crosscheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spgs",
        description=(
            "Ground states of the coupled Schrodinger-Poisson system on truncated grids:\n"
            "constrained energy descent, parameter sweeps, and checks of solved states\n"
            "against the paper's claims (validate).\n\n"
            "The 3-D path resolves levels only up to about p = 4.2-4.3 on affordable grids\n"
            "(up to n = 96 at L = 4, h = 0.083): the ground state's core narrows as p -> 5.\n"
            "That limit is an estimate from interpolated radial core half-widths, not a\n"
            "measurement.\n\n"
            "A run with solver.starts = 1 solves on the octant box, an eighth of the\n"
            "nodes, when its potential and initial field are sampled there: a radial well\n"
            "from a centred start on any box, or a table or dump that equals its mirror\n"
            "images in x, y and z bit for bit.  Other runs sample and solve the full box.\n"
            "summary.csv's symmetry column and the solve line (box = octant or none) say\n"
            "which box ran.  The octant's level is the least over mirror-even states, so\n"
            "it lies at or above the full box's: lattice spikes and a saddle's odd modes\n"
            "are out of its reach, and a check of them needs the unfolded state.\n"
            "Field dumps (u.field, phi.field) always hold the full box."
        ),
        epilog="config keys and defaults:\n  " + "\n  ".join(describe_keys()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("mode", nargs="?", choices=MODES, metavar="MODE",
                        help="run mode (overrides the config file): " + ", ".join(MODES))
    parser.add_argument("--config", type=Path, help="configuration file path")
    parser.add_argument("--jobs", type=int, help="concurrent sweep points")
    parser.add_argument("--seed", type=int, help="solver seed override")
    parser.add_argument("--output", help="output directory")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-key config override, repeatable (e.g. --set solver.p=3.5)",
    )
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from None
        cfg = parse_config(text)
    else:
        cfg = RunConfig()

    overrides: list[tuple[str, str]] = []
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set: expected KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        overrides.append((key.strip(), raw.strip()))
    if overrides:
        cfg = apply_assignments(cfg, overrides, where=" (from --set)")

    updates: list[tuple[str, str]] = []
    if args.mode:
        updates.append(("mode", args.mode))
    if args.jobs is not None:
        updates.append(("jobs", str(args.jobs)))
    if args.seed is not None:
        updates.append(("solver.seed", str(args.seed)))
    if args.output is not None:
        updates.append(("output_dir", args.output))
    if updates:
        cfg = apply_assignments(cfg, updates, where=" (from flags)")
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
    except ConfigError as exc:
        print(f"ERROR config: {exc}", file=sys.stderr)
        return 2

    try:
        outdir = _make_run_dir(cfg)
    except OSError as exc:
        print(f"ERROR config: output_dir: {exc}", file=sys.stderr)
        return 2
    with open(outdir / "config.cfg", "w", encoding="utf-8") as fh:
        fh.write(canonical_text(cfg))

    try:
        return _RUNNERS[cfg.mode](cfg, outdir)
    except ConfigError as exc:
        print(f"ERROR config: {exc}", file=sys.stderr)
        return 2
    except (SpgsError, ValueError) as exc:
        print(f"ERROR solver[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
