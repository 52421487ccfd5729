"""Compositing kernel backends.

`composite.c` is the compiled kernel. On first import it is built with
`cc -O2 -ffp-contract=off -fPIC -shared` into the per-user cache
($XDG_CACHE_HOME or ~/.cache, then volsplat/), under a file name that carries
a hash of the source and the flags, and loaded with ctypes, which releases the
GIL for the length of each call, so render threads composite tiles in
parallel. If the build or the load fails, or VOLSPLAT_FORCE_NUMPY=1 is set, the
numpy kernel in `_composite_np` takes over. BACKEND names the kernel in use:
"c" or "numpy".

The two agree to about 1e-16 rather than bit for bit: the C kernel calls libm
`exp`, and numpy may dispatch its own vectorised `exp`.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from . import _composite_np
from ._composite_np import ALPHA_MAX, T_CUTOFF

SOURCE = Path(__file__).with_name("composite.c")
# Fixed, whatever CC and CFLAGS say: -ffp-contract=off keeps the compiler from
# fusing a * b + c into one rounding, so the C loop rounds like the numpy kernel.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120


def cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "volsplat"


def build(out_dir: Path, source: Path = SOURCE) -> Path:
    """Path of `source` compiled into `out_dir`, compiling it if no build of
    the same source and flags is there yet.

    The library is written to a temporary file in `out_dir` and moved into
    place, so a concurrent build or load never sees a partial file.
    """
    digest = hashlib.sha256(source.read_bytes() + "\0".join(FLAGS).encode()).hexdigest()
    lib = Path(out_dir) / f"composite-{digest[:16]}.so"
    if lib.is_file():
        return lib
    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.name + ".", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run(["cc", *FLAGS, "-o", tmp, str(source), "-lm"], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=BUILD_TIMEOUT_S)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def load(out_dir: Path | None = None, source: Path = SOURCE):
    """The C kernel's checked `composite_tile`, built into `out_dir` (the
    per-user cache by default), or None when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(build(cache_dir() if out_dir is None else out_dir, source)))
        fn = lib.composite_tile
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_long
    fn.argtypes = [ptr, ptr, ptr, ptr, size, size, size, size, size, ptr, ptr]
    fn.restype = None
    return _checked(fn)


def _float64(name: str, a) -> np.ndarray:
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise TypeError(f"composite_tile: {name} must be a float64 ndarray, "
                        f"got {getattr(a, 'dtype', type(a).__name__)}")
    return a


def _checked(fn):
    """Wrap the raw C function in the numpy kernel's signature.

    Every dtype and shape is checked before a pointer is passed, so no call
    reaches memory outside the arrays. Inputs are made contiguous; rgb and
    transmit that are not are copied in and back out.
    """

    def composite_tile(means, conics, colors, opacities, x0, y0, rgb, transmit):
        arrays = {name: _float64(name, a) for name, a in (
            ("means", means), ("conics", conics), ("colors", colors),
            ("opacities", opacities), ("rgb", rgb), ("transmit", transmit))}
        n = means.shape[0] if means.ndim == 2 else -1
        th, tw = transmit.shape if transmit.ndim == 2 else (-1, -1)
        expected = {"means": (n, 2), "conics": (n, 3), "colors": (n, 3),
                    "opacities": (n,), "rgb": (th, tw, 3), "transmit": (th, tw)}
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ValueError(f"composite_tile: {name} has shape "
                                 f"{arrays[name].shape}, expected {shape} (n, th, tw)")
        if not (rgb.flags.writeable and transmit.flags.writeable):
            raise ValueError("composite_tile: rgb and transmit must be writeable")
        x0, y0 = operator.index(x0), operator.index(y0)
        inputs = [np.ascontiguousarray(a) for a in (means, conics, colors, opacities)]
        out_rgb, out_t = np.ascontiguousarray(rgb), np.ascontiguousarray(transmit)
        fn(*(a.ctypes.data for a in inputs), n, x0, y0, th, tw,
           out_rgb.ctypes.data, out_t.ctypes.data)
        if out_rgb is not rgb:
            rgb[...] = out_rgb
        if out_t is not transmit:
            transmit[...] = out_t

    return composite_tile


def select():
    """(composite_tile, backend name) for this process."""
    if os.environ.get("VOLSPLAT_FORCE_NUMPY") != "1":
        compiled = load()
        if compiled is not None:
            return compiled, "c"
    return _composite_np.composite_tile, "numpy"


composite_tile, BACKEND = select()

__all__ = ["composite_tile", "BACKEND", "ALPHA_MAX", "T_CUTOFF", "build", "load", "select"]
