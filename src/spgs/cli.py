"""Command-line entry point: configuration, run modes, output emission.

Modes: solve, sweep-lambda, compare-vinf, validate, radial-crosscheck.
Each run writes into <output_dir>/<mode>-<timestamp>/: a canonical echo
of the effective configuration, the mode's CSV outputs and field dumps.
Outputs are byte-deterministic for a fixed (config, seed) except for the
single `# generated` timestamp line at the top of each CSV and the
timestamp in the directory name.  `radial_profile.csv` (radial-crosscheck)
is written by `radial.write_radial_csv` and has no `# generated` line.

Exit codes: 0 ok, 2 config error, 3 solver error, 4 validation failure.
A value rejected while the run's grid, solver settings, potential or
initial field are built is a config error; any other error raised during
the run, a ValueError from deep inside a solve included, is a solver
error.  Failures print one machine-readable line `ERROR <category>:
<detail>` to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import radial
from .config import MODES, RunConfig, apply_assignments, canonical_text, describe_keys, parse_config
from .errors import ConfigError, SpgsError
from .grid import GridSpec, write_field
from .minimize import GroundStateResult, SolverConfig, compare_with_vinf, find_ground_state, initial_field
from .potential import Constant, Potential
from .validate import report_lines, run_validation

TRACE_HEADER = "iter,I,G,A1,B,C,residual_l2,step"
SUMMARY_HEADER = (
    "L,n,staggered,potential,p,tol,max_iters,seed,kinetic,c_estimate,residual_norm,iterations,converged,"
    "boundary_mass"
)


def _timestamp_line() -> str:
    return f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}"


def _make_run_dir(cfg: RunConfig) -> Path:
    base = Path(cfg.output_dir)
    base.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = base / f"{cfg.mode}-{stamp}"
    k = 1
    while candidate.exists():
        candidate = base / f"{cfg.mode}-{stamp}-{k}"
        k += 1
    candidate.mkdir()
    return candidate


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
            "1" if cfg.grid_staggered else "0",
            potential_echo,
            repr(cfg.solver_p),
            repr(cfg.solver_tol),
            str(cfg.solver_max_iters),
            str(cfg.solver_seed),
            cfg.solver_kinetic,
            repr(result.c_estimate),
            repr(result.residual_norm),
            str(result.iterations),
            "1" if result.converged else "0",
            repr(result.boundary_mass),
        ]
    )


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_timestamp_line() + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _write_trace(path: Path, result: GroundStateResult) -> None:
    rows = [
        f"{t.iter},{t.I!r},{t.G!r},{t.A1!r},{t.B!r},{t.C!r},{t.residual_l2!r},{t.step!r}"
        for t in result.trace
    ]
    _write_csv(path, TRACE_HEADER, rows)


def _build(cfg: RunConfig) -> tuple[Potential, SolverConfig, GridSpec]:
    """The run's potential, solver settings and grid.

    The potential is sampled and the initial field built on the grid here,
    so that every value they reject, and an initial field that is zero on
    every node, surfaces as a ConfigError before the solve starts.  Like
    `RunConfig.validate`, this holds in every mode, also in sweep-lambda,
    which replaces the potential by constants.
    """
    try:
        grid = cfg.build_grid()
        solver = cfg.build_solver()
        potential = cfg.build_potential()
        potential.sample(grid)
        u0 = initial_field(solver.init, grid)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if not u0.values.any():
        raise ConfigError("solver.init: the initial field is zero on every node of the grid")
    return potential, solver, grid


def _run_solve(cfg: RunConfig, outdir: Path) -> int:
    potential, solver, grid = _build(cfg)
    result = find_ground_state(
        potential, solver, grid, coercivity_override=cfg.solver_coercivity_override
    )
    _write_trace(outdir / "trace.csv", result)
    _write_csv(
        outdir / "summary.csv",
        SUMMARY_HEADER,
        [_summary_row(cfg, _potential_echo(cfg), result)],
    )
    write_field(result.u, outdir / "u.field")
    write_field(result.phi, outdir / "phi.field")
    print(
        f"c_estimate = {result.c_estimate!r}  residual = {result.residual_norm:.3e}  "
        f"iterations = {result.iterations}  converged = {result.converged}  "
        f"boundary_mass = {result.boundary_mass:.3e}"
    )
    return 0


def _sweep_point(
    args: tuple[float, SolverConfig, GridSpec, bool]
) -> tuple[float, GroundStateResult]:
    lam, solver, grid, coercivity_override = args
    return lam, find_ground_state(Constant(lam), solver, grid, coercivity_override=coercivity_override)


def _run_sweep(cfg: RunConfig, outdir: Path) -> int:
    _, solver, grid = _build(cfg)
    lams = sorted(cfg.sweep_lambdas)
    points = [(lam, solver, grid, cfg.solver_coercivity_override) for lam in lams]
    if cfg.jobs > 1:
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
    potential, solver, grid = _build(cfg)
    vinf = potential.v_infinity()
    if vinf <= 0:
        raise ConfigError(f"potential: compare-vinf needs v_infinity > 0, got {vinf!r}")
    cmp_result = compare_with_vinf(
        potential, solver, grid, coercivity_override=cfg.solver_coercivity_override
    )
    _write_csv(
        outdir / "compare.csv",
        "c,c_inf,strict",
        [f"{cmp_result.c!r},{cmp_result.c_inf!r},{1 if cmp_result.strict else 0}"],
    )
    print(
        f"c = {cmp_result.c!r}  c_inf = {cmp_result.c_inf!r}  strict = {cmp_result.strict}  "
        f"(margin {cmp_result.margin:.3e}, refinement delta {cmp_result.refinement_delta:.3e})"
    )
    return 0


def _run_validate(cfg: RunConfig, outdir: Path) -> int:
    results = run_validation(seed=cfg.solver_seed, p=cfg.solver_p)
    lines = report_lines(results)
    with open(outdir / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(_timestamp_line() + "\n")
        for line in lines:
            fh.write(line + "\n")
    for line in lines:
        print(line)
    if any(not r.passed for r in results):
        print("ERROR validation: invariant checks failed", file=sys.stderr)
        return 4
    return 0


def _run_radial_crosscheck(cfg: RunConfig, outdir: Path) -> int:
    potential, solver, grid = _build(cfg)
    result = find_ground_state(
        potential, solver, grid, coercivity_override=cfg.solver_coercivity_override
    )
    u_r, phi_r, c_radial = radial.radial_ground_state(
        potential, cfg.solver_p, r_max=cfg.radial_r_max, n_r=cfg.radial_n_r, cfg=solver
    )
    rel_gap = abs(result.c_estimate - c_radial) / abs(c_radial)
    _write_trace(outdir / "trace.csv", result)
    _write_csv(
        outdir / "summary.csv",
        SUMMARY_HEADER,
        [_summary_row(cfg, _potential_echo(cfg), result)],
    )
    _write_csv(
        outdir / "crosscheck.csv",
        "c_3d,c_radial,rel_gap",
        [f"{result.c_estimate!r},{c_radial!r},{rel_gap!r}"],
    )
    radial.write_radial_csv(u_r, phi_r, outdir / "radial_profile.csv")
    write_field(result.u, outdir / "u.field")
    write_field(result.phi, outdir / "phi.field")
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
            "Ground states of the coupled Schrodinger-Poisson system on truncated grids: "
            "constrained energy descent, parameter sweeps, and validation suites."
        ),
        epilog="config keys and defaults:\n  " + "\n  ".join(describe_keys()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("mode_positional", nargs="?", choices=MODES, metavar="MODE",
                        help="run mode (alternative to --mode): " + ", ".join(MODES))
    parser.add_argument("--config", type=Path, help="configuration file path")
    parser.add_argument("--mode", choices=MODES, help="run mode (overrides the config file)")
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

    if args.mode_positional and args.mode and args.mode_positional != args.mode:
        raise ConfigError(
            f"mode: positional {args.mode_positional!r} conflicts with --mode {args.mode!r}"
        )
    updates: list[tuple[str, str]] = []
    mode = args.mode or args.mode_positional
    if mode:
        updates.append(("mode", mode))
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

    outdir = _make_run_dir(cfg)
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
