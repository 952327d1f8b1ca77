"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spgs
from spgs import grid


@pytest.fixture
def fresh_python():
    """run(code, env=None): stdout of `code` run by a fresh interpreter that imports spgs from these sources.

    The interpreter has none of pytest's threads or warning filters.  `env`
    overrides this process's environment; a name mapped to None is removed.
    """

    def run(code: str, env: dict[str, str | None] | None = None) -> str:
        src = str(Path(spgs.__file__).resolve().parents[1])
        env = {**os.environ, **(env or {})}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {name: value for name, value in env.items() if value is not None}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        return out.stdout.strip()

    return run


@pytest.fixture
def on_cpus():
    """pin(cpus): the process runs on at most `cpus` of the CPUs it was allowed, until the test ends.

    A pass's bits must not follow the CPUs the process may use.  Where the
    platform cannot pin, pin leaves the process as it is.
    """
    pinnable = hasattr(os, "sched_setaffinity")
    allowed = os.sched_getaffinity(0) if pinnable else None

    def pin(cpus):
        if pinnable:
            os.sched_setaffinity(0, sorted(allowed)[:cpus])

    yield pin
    if pinnable:
        os.sched_setaffinity(0, allowed)


@pytest.fixture(params=["as-built", "forced"])
def slabs(request, monkeypatch):
    """forced: `grid._slabs` cuts every block into slabs of one plane from m = 12 on.

    So a slab pass crosses a slab edge at every plane, and the last slab
    of a block of 8 planes is a partial one.
    """
    if request.param == "forced":
        monkeypatch.setattr(grid, "_BLOCK_BYTES", 8 * 128)
