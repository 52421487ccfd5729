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


def patch_kernels(monkeypatch, kernels):
    """Patch one backend's kernels into the renderer, the depth stage and the
    sparse U-Net, as `_kernels.select` would set them."""
    for name in ("project_splats", "bin_tiles", "composite_tile"):
        monkeypatch.setattr(renderer, name, getattr(kernels, name))
    monkeypatch.setattr(features, "plane_sweep", kernels.plane_sweep)
    monkeypatch.setattr(sparse_unet, "scatter_add_rows", kernels.scatter_add_rows)


@pytest.fixture(params=["numpy", "c"])
def kernel_backend(request, monkeypatch):
    """Run the test once per kernel backend, patched in by `patch_kernels`."""
    kernels = _kernels.NUMPY if request.param == "numpy" else request.getfixturevalue("c_kernels")
    patch_kernels(monkeypatch, kernels)
    return request.param


@pytest.fixture
def each_backend(request, monkeypatch):
    """For a test that runs its body once per kernel backend under one test
    id: `for backend in each_backend():` patches the numpy kernels in, then
    the compiled ones, as `kernel_backend` does."""

    def backends():
        for name in ("numpy", "c"):
            kernels = _kernels.NUMPY if name == "numpy" else request.getfixturevalue("c_kernels")
            patch_kernels(monkeypatch, kernels)
            yield name

    return backends
