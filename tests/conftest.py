"""Shared pytest hooks.

The acceptance tests register one PASS/FAIL line each in GATE_LINES; the
terminal-summary hook prints them after the run so the gate outcome is
visible in any log, independent of output capture. The kernel fixtures run
a test on the compiled compositing kernel, or once on each backend.
"""

import shutil

import pytest

from volsplat import _kernels, renderer
from volsplat._kernels import _composite_np

GATE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("acceptance gate")
        for line in GATE_LINES:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def c_composite(tmp_path_factory):
    """The shipped composite.c, compiled into a fresh directory and loaded."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    kernel = _kernels.load(tmp_path_factory.mktemp("kernel"))
    assert kernel is not None, "composite.c did not build or load"
    return kernel


@pytest.fixture(params=["numpy", "c"])
def kernel_backend(request, monkeypatch):
    """Run the test once per compositing backend, patched into the renderer."""
    kernel = (_composite_np.composite_tile if request.param == "numpy"
              else request.getfixturevalue("c_composite"))
    monkeypatch.setattr(renderer, "composite_tile", kernel)
    return request.param
