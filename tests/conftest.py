"""Fixtures shared by the test modules."""

import os

import pytest

from spgs import grid


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
