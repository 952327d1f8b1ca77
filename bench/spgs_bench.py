"""Benchmark of spgs: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 bench/spgs_bench.py --workload ground-n64 --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports spgs from the checkout's
``src``.  Workloads (see reference.json for why each was chosen):

- ground-n64: ``spgs solve`` at V = 1, L = 4, n = 64;
- vinf-coulomb: ``spgs compare-vinf`` at V = 1 - 0.5/|x|, L = 6, n = 32 (and 48);
- radial-ladder: five ``spgs.radial_ground_state`` calls.

The run repeats passes of the workload for about ``--seconds`` seconds.
Each pass is a fresh interpreter, started and awaited one at a time, so
every pass pays what a user's run pays: imports, kernel caches, set-up.
The seed reaches the program only as ``--seed`` (the coercivity probe's
seed); the radial solver has no random input, so radial-ladder ignores it.

With ``--trace 0`` it prints the end-to-end metrics:

- wall_s (s): median over passes of the time from the first operation's
  call to the last one's return;
- setup_s (s): median over passes of the time from starting the
  interpreter until spgs is imported and the inputs are parsed and validated;
- level_rel_err (1): max |c - c_ref| / c_ref over the levels reported,
  against the fixed radial references in reference.json;
- ok_frac (1): operations that succeeded / operations attempted.  An
  operation fails by raising, exiting nonzero, or failing an output check
  (not converged, c < c_inf not strict, non-finite level);
- peak_rss_mb (MiB): median over passes of the pass's peak resident memory.

With ``--trace 1`` the passes alternate untraced and traced, and it prints
the per-layer metrics of layer_trace.PER_LAYER_UNITS, medians over the
traced passes, plus trace.overhead_s.  The spans are written to
``.bench_build/spgs/`` at the checkout's root.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  correct is false when an operation
finished but its output failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from layer_trace import PER_LAYER_UNITS, layer_metrics
from spgs_pass import BENCH_DIR, ROOT, SRC, WORKLOADS

WORK = ROOT / ".bench_build" / "spgs"
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
C_REF = {key: entry["value"] for key, entry in REFERENCE["c_ref"].items()}
# Passes still running this long after the benchmark started are stopped and
# the benchmark fails, so that it always ends within three minutes.
DEADLINE_S = 170.0


def run_one_pass(name: str, seed: int, pass_dir: Path, traced: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its record, with setup_s added."""
    pass_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "spgs_pass.py"), name, str(seed), str(pass_dir), "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=deadline - spawned)
    shutil.rmtree(pass_dir)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    record["traced"] = traced
    return record


def run_passes(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> list[dict]:
    """Passes until the next one would end after `seconds`; untraced and traced alternate with trace."""
    passes: list[dict] = []
    begin = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_one_pass(name, seed, workdir / f"pass-{len(passes)}", traced, begin + DEADLINE_S))
        elapsed = time.monotonic() - begin
        if len(passes) >= (2 if trace else 1) and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    ops = [op for p in passes for op in p["ops"]]
    errors = [abs(c - C_REF[ref]) / C_REF[ref] for op in ops for c, ref in op["levels"]]
    failed = sum(1 for op in ops if op["error"] or op["check"])
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "level_rel_err": (max(errors) if errors else None, "1"),
        "ok_frac": (1.0 - failed / len(ops), "1"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0, "MB"),
    }
    if not errors:
        print("# level_rel_err left out: no operation reported a level", file=sys.stderr)
        del metrics["level_rel_err"]
    return metrics


def per_layer(passes: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p["traced"]]
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in passes if not p["traced"]
    )
    missing = {name for p in traced for name in p["missing"]}
    if missing:
        print(f"# missing layer entry points, their metrics left out: {sorted(missing)}", file=sys.stderr)
    values = layer_metrics([p["spans"] for p in traced], overhead, missing)
    return {name: (value, PER_LAYER_UNITS[name]) for name, value in values.items()}


def write_spans(path: Path, passes: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, p in enumerate(passes):
            for span in p["spans"]:
                fh.write(json.dumps({"pass": k, **span}) + "\n")


def environment(seed: int) -> str:
    import importlib.metadata as md

    threads = {var: os.environ.get(var, "unset") for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return (
        f"seed={seed} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={md.version('numpy')} scipy={md.version('scipy')} "
        f"blas_threads={','.join(f'{k}={v}' for k, v in threads.items())} "
        f"(tier-1 wall time at commit 092b401: {REFERENCE['notes']['tier1_wall_s_at_commit_092b401']})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and awaits the running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "spgs" / "__init__.py").is_file():
        print(f"error: no spgs sources under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["error"] or op["check"]]
    for reason, count in Counter(f"{op['label']}: {op['error'] or op['check']}" for op in failed).items():
        print(f"# failed {count}x: {reason}", file=sys.stderr)
    print(f"# workload={args.workload} passes={len(passes)} trace={args.trace} {environment(args.seed)}")
    print(f"# failed_frac = {len(failed) / len(ops)!r} ({len(failed)} of {len(ops)} operations)")
    if args.trace:
        metrics = per_layer(passes)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, passes)
        print(f"# spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": not any(op["check"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
