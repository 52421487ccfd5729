"""Source checks: no import in `src/volsplat` goes unread, `pipeline.py`
keeps no copy of a range rule that belongs to the module reading the value,
the shipped C kernels and their scalar test oracles compile without a
warning, and `_kernels.load` declares every exported C function's argument
and return types."""

import ast
import ctypes
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import volsplat
from volsplat import _kernels

SRC = Path(volsplat.__file__).parent
TESTS = Path(__file__).parent
C_SOURCES = [SRC / "_kernels" / "kernels.c", TESTS / "composite_scalar.c",
             TESTS / "plane_sweep_scalar.c"]


def unread_imports(source: str):
    """(line, name) of each name an import binds that the module never reads.
    A name listed in `__all__`, or imported on a line marked `# noqa: F401`
    (a re-export), counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                yield node.lineno, name


def test_unread_imports_are_found():
    source = ("import os\nimport re  # noqa: F401\nfrom json import dumps, loads\n"
              "__all__ = ['loads']\nprint(os.sep)\n")
    assert list(unread_imports(source)) == [(3, "dumps")]


def imported_names(source: str):
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_pipeline_imports_no_range_bound():
    # `validate()` calls the functions that own these bounds instead of copying them
    names = imported_names((SRC / "pipeline.py").read_text())
    assert sorted(n for n in names if n.startswith("MAX_") or n == "DEPTH_SPACINGS") == []


def test_src_has_no_unread_imports():
    found = [f"{p.relative_to(SRC)}:{line}: {name}"
             for p in sorted(SRC.rglob("*.py"))
             for line, name in unread_imports(p.read_text())]
    assert found == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("source", C_SOURCES, ids=lambda p: p.name)
def test_c_source_compiles_without_warnings(source):
    res = subprocess.run(["cc", "-fsyntax-only", "-Wall", "-Wextra", "-Werror", str(source)],
                         stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def exported_functions(source: str) -> dict:
    """{name: (return type, [parameter declarations])} of each function that
    `source` defines at file scope and does not declare `static`."""
    pattern = r"^(?!static\b)([A-Za-z_][\w ]*?)\s+(\w+)\(([^)]*)\)\s*\{"
    return {m[2]: (m[1], [p.strip() for p in m[3].split(",")])
            for m in re.finditer(pattern, source, re.M)}


def test_exported_functions_are_found():
    source = ("static inline double f(double x) {}\nvoid g(const double *restrict a,\n"
              "       long n) {\n    for (long i = 0; i < n; i++) {}\n}\n")
    assert exported_functions(source) == {"g": ("void", ["const double *restrict a", "long n"])}


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_every_exported_kernel_is_bound_with_its_types(tmp_path, monkeypatch):
    # without argtypes ctypes passes a Python int as a 32-bit C int, which
    # truncates a pointer; without restype it reads a void function's int
    libs = []
    real = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda path: libs.append(real(path)) or libs[-1])
    assert _kernels.load(tmp_path) is not None and len(libs) == 1
    exported = exported_functions(_kernels.SOURCE.read_text())
    assert len(exported) == len(_kernels.Kernels._fields)
    for name, (returns, params) in exported.items():
        fn = getattr(libs[0], name)
        assert returns == "void" and fn.restype is None, name
        # a pointer is a c_void_p and a long a c_long; any other type fails here
        want = [ctypes.c_void_p if "*" in p else ctypes.c_long if p.startswith("long ") else p
                for p in params]
        assert fn.argtypes is not None and list(fn.argtypes) == want, name
