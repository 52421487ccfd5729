"""Correctness checks on the engine's outputs.

Each check is a computation made here, outside volsplat (a dictionary
voxel pool, a dictionary neighbour sum, a PSNR), or a property the method
must have (Gaussians inside their voxel's offset box, depths inside the
sweep range, renders in [0, 1] and equal at every thread count). A check
returns a list of failure messages; an empty list is a pass.
`selftest.py` shows that each one reports a corrupted output.
"""

from __future__ import annotations

import math

import numpy as np

# Float32 storage of Gaussian centres: a centre may sit this far (relative)
# outside its box after rounding.
_F32_TOL = 4e-7
_MEAN_RTOL = 1e-9


def _key(p: float, voxel_size: float) -> int:
    """Nearest-integer voxel coordinate, halves rounded away from zero."""
    q = p / voxel_size
    return int(math.copysign(math.floor(abs(q) + 0.5), q))


def dict_pool(positions: np.ndarray, features: np.ndarray, voxel_size: float):
    """Average-pool point features into voxels with a plain dictionary.

    Returns (keys sorted lexicographically as a V x 3 array, V x C means).
    """
    groups: dict = {}
    for i, (x, y, z) in enumerate(positions.tolist()):
        k = (_key(x, voxel_size), _key(y, voxel_size), _key(z, voxel_size))
        groups.setdefault(k, []).append(i)
    keys = sorted(groups)
    means = np.array([features[groups[k]].sum(axis=0) / len(groups[k]) for k in keys])
    return np.array(keys, dtype=np.int64).reshape(-1, 3), means.reshape(len(keys), -1)


def check_voxel_pool(pool, keys: np.ndarray, means: np.ndarray) -> list:
    """The grid's keys and means equal the dictionary pool's."""
    ref_keys, ref_means = pool
    if keys.shape != ref_keys.shape or not np.array_equal(keys, ref_keys):
        return [f"voxel keys differ from the dictionary pool "
                f"({len(keys)} vs {len(ref_keys)} voxels)"]
    if means.shape != ref_means.shape:
        return [f"voxel means have shape {means.shape}, expected {ref_means.shape}"]
    bad = ~np.isclose(means, ref_means, rtol=_MEAN_RTOL, atol=_MEAN_RTOL)
    if bad.any():
        v = int(np.argwhere(bad)[0, 0])
        return [f"{int(bad.any(axis=1).sum())} voxel means differ from the dictionary "
                f"pool, first at key {keys[v].tolist()}"]
    return []


def check_submanifold(coords, feats, w, b, out, sites) -> list:
    """One 3x3x3 submanifold conv: out[s] == b + sum over present neighbours
    n = s + d of feats[n] @ w[d + 1], at each sampled row s."""
    rows = {tuple(c): i for i, c in enumerate(coords.tolist())}
    errors = []
    for s in sites:
        x, y, z = coords[s].tolist()
        expect = np.array(b, dtype=float)
        for d0 in (-1, 0, 1):
            for d1 in (-1, 0, 1):
                for d2 in (-1, 0, 1):
                    n = rows.get((x + d0, y + d1, z + d2))
                    if n is not None:
                        expect = expect + feats[n] @ w[d0 + 1, d1 + 1, d2 + 1]
        if not np.allclose(out[s], expect, rtol=1e-9, atol=1e-9):
            errors.append(f"submanifold conv output at site {[x, y, z]} differs from "
                          f"the neighbour sum by {float(np.max(np.abs(out[s] - expect))):.3g}")
    return errors


def check_gaussians(centers, voxel_keys, voxel_size: float, radius: float,
                    expected_keys: np.ndarray) -> list:
    """One Gaussian per occupied voxel, each inside its voxel's offset box
    [key * voxel_size, key * voxel_size + radius] per axis."""
    errors = []
    if voxel_keys is None or len(centers) != len(expected_keys):
        return [f"{len(centers)} Gaussians for {len(expected_keys)} occupied voxels"]
    if not np.array_equal(np.unique(voxel_keys, axis=0), expected_keys):
        errors.append("Gaussian voxel keys differ from the occupied voxels")
    off = np.asarray(centers, dtype=float) - np.asarray(voxel_keys, dtype=float) * voxel_size
    tol = _F32_TOL * np.maximum(1.0, np.abs(np.asarray(centers, dtype=float)))
    outside = np.any((off < -tol) | (off > radius + tol), axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        errors.append(f"{int(outside.sum())} Gaussians outside their offset box, "
                      f"first {i} at offset {off[i].tolist()}")
    return errors


def check_depths(depths, near: float, far: float) -> list:
    errors = []
    for i, d in enumerate(depths):
        if not np.all(np.isfinite(d)):
            errors.append(f"view {i}: non-finite depth")
        elif d.min() < near * (1 - 1e-12) or d.max() > far * (1 + 1e-12):
            errors.append(f"view {i}: depth range [{d.min():.4g}, {d.max():.4g}] "
                          f"outside [{near}, {far}]")
    return errors


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(a, float) - np.asarray(b, float)) ** 2))
    return math.inf if mse == 0 else -10.0 * math.log10(mse)


def check_render(rgb: np.ndarray, target: np.ndarray, bg) -> list:
    """Finite, in [0, 1], and closer to the target than the background alone."""
    if not (np.all(np.isfinite(rgb)) and rgb.min() >= 0.0 and rgb.max() <= 1.0):
        return ["render outside [0, 1]"]
    floor = psnr(np.broadcast_to(np.asarray(bg, float), target.shape), target)
    p = psnr(rgb, target)
    if not p > floor:
        return [f"render PSNR {p:.2f} dB does not beat the background-only {floor:.2f} dB"]
    return []


def check_identical(a: np.ndarray, b: np.ndarray, what: str) -> list:
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return [f"{what} are not byte-identical"]
    return []


def check_min_psnr(values, floor: float, what: str) -> list:
    return [f"{what}: {p:.2f} dB < {floor} dB" for p in values if not p >= floor]
