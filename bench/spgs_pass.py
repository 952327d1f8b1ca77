"""One pass of a benchmark workload, in a fresh interpreter, as one user run.

    python3 bench/spgs_pass.py WORKLOAD SEED OUTPUT_DIR TRACE

A pass imports spgs from the checkout's ``src``, parses and validates the
workload's inputs (the end of set-up), then calls the workload's operations
through the names a user calls: ``spgs.cli.main`` in-process for the 3-D
workloads and ``spgs.radial_ground_state`` for the radial one.  It checks
each operation's outputs and prints one JSON object as its last line: the
time set-up ended, the pass's wall time and peak memory, each operation's
outcome and levels and, with TRACE = 1, the layer spans.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Keys of the reference levels in reference.json.
REF_CONSTANT = "constant_V1"
REF_COULOMB = "coulomb_V1_lambda0.5"


@dataclass(frozen=True)
class CliWorkload:
    """One `spgs` CLI run of `mode` on a config file holding `config`."""

    mode: str
    config: tuple[tuple[str, str], ...]
    # reported level -> reference key
    levels: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class RadialPoint:
    reference: str
    r_max: float
    n_r: int


@dataclass(frozen=True)
class RadialWorkload:
    """Calls of spgs.radial_ground_state at p = 4 and tol 1e-7."""

    points: tuple[RadialPoint, ...]


WORKLOADS = {
    "ground-n64": CliWorkload(
        mode="solve",
        config=(
            ("grid.L", "4.0"),
            ("grid.n", "64"),
            ("potential.kind", "constant"),
            ("potential.V1", "1.0"),
            ("solver.p", "4.0"),
        ),
        levels=(("c_estimate", REF_CONSTANT),),
    ),
    "vinf-coulomb": CliWorkload(
        mode="compare-vinf",
        config=(
            ("grid.L", "6.0"),
            ("grid.n", "32"),
            ("potential.kind", "coulomb_singular"),
            ("potential.V1", "1.0"),
            ("potential.lambda", "0.5"),
            ("potential.alpha", "1"),
            ("solver.p", "4.0"),
            ("solver.tol", "1e-6"),
        ),
        levels=(("c", REF_COULOMB), ("c_inf", REF_CONSTANT)),
    ),
    "radial-ladder": RadialWorkload(
        points=(
            RadialPoint(REF_CONSTANT, 30.0, 8192),
            RadialPoint(REF_CONSTANT, 30.0, 32768),
            RadialPoint(REF_CONSTANT, 30.0, 131072),
            # raises NoDescentError at iteration 85 at the seed commit; stays in as a failure
            RadialPoint(REF_CONSTANT, 15.0, 32768),
            RadialPoint(REF_COULOMB, 30.0, 32768),
        ),
    ),
    # tiny versions of the code paths above, for the benchmark's own tests
    "smoke-solve": CliWorkload(
        mode="solve",
        config=(
            ("grid.L", "4.0"),
            ("grid.n", "16"),
            ("potential.kind", "constant"),
            ("potential.V1", "1.0"),
            ("solver.p", "4.0"),
        ),
        levels=(("c_estimate", REF_CONSTANT),),
    ),
    "smoke-radial": RadialWorkload(
        points=(RadialPoint(REF_CONSTANT, 30.0, 1024), RadialPoint(REF_COULOMB, 30.0, 1024)),
    ),
}


def load_spgs():
    """Import spgs from this checkout's sources, never from an installed copy."""
    init = SRC / "spgs" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no spgs sources at {init}")
    sys.path.insert(0, str(SRC))
    import spgs

    if Path(spgs.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported spgs from {spgs.__file__}, not from {init}")
    return spgs


def parse_inputs(name: str, seed: int, outdir: Path):
    """Set-up as a user run does it: import spgs, then parse and validate the inputs.

    For a CLI workload this writes the config file and returns the argv for
    spgs.cli.main, which passes the seed on as --seed; for a radial workload
    it returns (point, potential, solver config) per call, and the seed is
    unused: the radial solver has no random input.
    """
    spgs = load_spgs()
    workload = WORKLOADS[name]
    if isinstance(workload, CliWorkload):
        from spgs.cli import build_parser
        from spgs.config import apply_assignments, parse_config

        config_path = outdir / "workload.cfg"
        config_path.write_text("".join(f"{k} = {v}\n" for k, v in workload.config), encoding="utf-8")
        argv = [workload.mode, "--config", str(config_path), "--seed", str(seed), "--output", str(outdir / "runs")]
        args = build_parser().parse_args(argv)
        cfg = apply_assignments(
            parse_config(args.config.read_text(encoding="utf-8")), [("solver.seed", str(args.seed))]
        )
        cfg.validate()
        return argv
    potentials = {
        REF_CONSTANT: spgs.Constant(1.0),
        REF_COULOMB: spgs.CoulombSingular(1.0, 0.5, 1),
    }
    solver = spgs.SolverConfig(p=4.0, tol_residual=1e-7)
    return [(point, potentials[point.reference], solver) for point in workload.points]


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


@contextlib.contextmanager
def _observed_solves():
    """Collect every GroundStateResult a CLI run produces, for the converged check."""
    import spgs.cli
    import spgs.minimize

    results = []
    saved = []
    for module in (spgs.cli, spgs.minimize):
        original = module.find_ground_state

        def observed(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            results.append(result)
            return result

        module.find_ground_state = observed
        saved.append((module, original))
    try:
        yield results
    finally:
        for module, original in saved:
            module.find_ground_state = original


def _check_cli(workload: CliWorkload, runs: Path, solves) -> tuple[dict, str | None]:
    """Levels of one finished CLI run and the first failed check, if any."""
    (run_dir,) = runs.iterdir()
    if workload.mode == "solve":
        (row,) = _read_csv(run_dir / "summary.csv")
        if row["converged"] != "1":
            return {}, "summary.csv: converged flag not set"
    else:
        (row,) = _read_csv(run_dir / "compare.csv")
        if row["strict"] != "1":
            return {}, "compare.csv: strict is not set (c < c_inf expected)"
    if not solves or not all(r.converged for r in solves):
        return {}, f"{sum(not r.converged for r in solves)} of {len(solves)} solves not converged"
    levels = {key: float(row[key]) for key, _ in workload.levels}
    if not all(math.isfinite(c) for c in levels.values()):
        return {}, f"non-finite level in {levels}"
    return levels, None


def _call_cli(argv: list[str]):
    import spgs.cli

    err = io.StringIO()
    with _observed_solves() as solves, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = spgs.cli.main(argv)
    return rc, err.getvalue(), solves


def _record_cli(workload: CliWorkload, runs: Path, returned, record: dict) -> None:
    rc, stderr, solves = returned
    if rc != 0:
        record["error"] = f"exit code {rc}: {stderr.strip()}"
        return
    try:
        levels, record["check"] = _check_cli(workload, runs, solves)
    except (OSError, ValueError, KeyError) as exc:
        levels, record["check"] = {}, f"unreadable output: {type(exc).__name__}: {exc}"
    record["levels"] = [[levels[key], ref] for key, ref in workload.levels if key in levels]


def _record_radial(point: RadialPoint, returned, record: dict) -> None:
    _, _, c = returned
    if math.isfinite(c):
        record["levels"] = [[c, point.reference]]
    else:
        record["check"] = f"non-finite level {c!r}"


def _operations(name: str, inputs, outdir: Path) -> list[tuple]:
    """(span name, label, call, record) per operation: `call` is what is timed,
    `record(returned, record)` checks its outputs afterwards."""
    workload = WORKLOADS[name]
    if isinstance(workload, CliWorkload):
        runs = outdir / "runs"
        return [
            ("cli.main", workload.mode, functools.partial(_call_cli, inputs),
             functools.partial(_record_cli, workload, runs))
        ]
    import spgs

    return [
        (
            "radial.radial_ground_state",
            f"{point.reference} r_max={point.r_max} n_r={point.n_r}",
            functools.partial(spgs.radial_ground_state, potential, 4.0, r_max=point.r_max, n_r=point.n_r, cfg=solver),
            functools.partial(_record_radial, point),
        )
        for point, potential, solver in inputs
    ]


def run_pass(name: str, seed: int, outdir: Path, trace: bool) -> dict:
    """Set up, time the workload's operations, check their outputs; return the pass record.

    An operation that raises or exits nonzero has an "error"; one that
    finished but whose output fails a check has a "check".  Both count as
    failed operations.
    """
    inputs = parse_inputs(name, seed, outdir)
    ready = time.monotonic()
    ops = _operations(name, inputs, outdir)
    tracer = None
    if trace:
        from layer_trace import Tracer

        tracer = Tracer()
    records = [{"label": label, "levels": [], "error": None, "check": None} for _, label, _, _ in ops]
    returned = [None] * len(ops)
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for op_id, (span_name, _, call, _) in enumerate(ops):
            try:
                if tracer is None:
                    returned[op_id] = call()
                else:
                    tracer.op = op_id
                    with tracer.span(span_name):
                        returned[op_id] = call()
            except Exception as exc:  # every failed call is counted, none dropped
                records[op_id]["error"] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    for (_, _, _, check), value, record in zip(ops, returned, records):
        if record["error"] is None:
            check(value, record)
    return {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": records,
        "spans": tracer.spans if tracer else [],
        "missing": tracer.missing if tracer else [],
    }


def main(argv: list[str]) -> int:
    name, seed, outdir, trace = argv
    record = run_pass(name, int(seed), Path(outdir), trace == "1")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
