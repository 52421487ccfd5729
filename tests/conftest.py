"""Shared pytest hooks.

The acceptance tests register one PASS/FAIL line each in GATE_LINES; the
terminal-summary hook prints them after the run so the gate outcome is
visible in any log, independent of output capture. The kernel fixtures run
a test on the compiled kernels, or once on each backend.
"""

import shutil

import pytest

from volsplat import _kernels, features, renderer, sparse_unet

GATE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("acceptance gate")
        for line in GATE_LINES:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def c_kernels(tmp_path_factory):
    """The shipped kernels.c, compiled into a fresh directory and loaded."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    kernels = _kernels.load(tmp_path_factory.mktemp("kernel"))
    assert kernels is not None, "kernels.c did not build or load"
    return kernels


@pytest.fixture(scope="session")
def c_composite(c_kernels):
    return c_kernels.composite_tile


@pytest.fixture(scope="session")
def c_sweep(c_kernels):
    return c_kernels.plane_sweep


@pytest.fixture(scope="session")
def c_scatter(c_kernels):
    return c_kernels.scatter_add_rows


@pytest.fixture(params=["numpy", "c"])
def kernel_backend(request, monkeypatch):
    """Run the test once per kernel backend, patched into the renderer, the
    depth stage and the sparse U-Net as `_kernels.select` would set them."""
    kernels = _kernels.NUMPY if request.param == "numpy" else request.getfixturevalue("c_kernels")
    monkeypatch.setattr(renderer, "composite_tile", kernels.composite_tile)
    monkeypatch.setattr(features, "plane_sweep", kernels.plane_sweep)
    monkeypatch.setattr(sparse_unet, "scatter_add_rows", kernels.scatter_add_rows)
    return request.param
