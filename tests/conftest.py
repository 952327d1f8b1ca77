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
def on_cpus(monkeypatch):
    """pin(cpus): the process may use `cpus` CPUs, as grid sees it, and has no helper yet."""

    def pin(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(grid, "_helper", None)

    yield pin
    if grid._helper is not None:
        grid._helper.shutdown()


@pytest.fixture(params=["as-built", "forced"])
def split(request, monkeypatch):
    """forced: every pass over more than 128 float64 values splits into halves (`grid._halves`).

    So an n = 8 box splits by planes too, and the halves' edges meet the
    box's faces.  Yields the split threshold in values, for a test to size
    its arrays above it.
    """
    if request.param == "forced":
        monkeypatch.setattr(grid, "_BLOCK_BYTES", 8 * 128)
    yield grid._BLOCK_BYTES // 8
