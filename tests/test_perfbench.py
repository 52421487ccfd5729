"""Smoke test of the benchmark harness in `perfbench/`.

The harness times the engine by wrapping module attributes by name and
checks a reconstruction stage by stage from the arguments it captures. A
refactor that renames or bypasses one of those names makes a run fail or
makes a metric read 0. So each workload runs here once, traced, on a copy
of `src/` and `perfbench/`, and must pass its own checks and report the
counts and the zero metrics below.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# voxels.occupied (= gaussians.count), sparse_unet.sites, renderer.splat_tile_pairs
COUNTS = {"sweep": (3361, 4292, 18460), "dense": (14176, 29534, 34591),
          "garden": (10803, 0, 31288)}
# Metrics that read 0. The compiled plane sweep calls no `warp_feature`;
# ground-truth depth skips the sweep; the garden runs no U-Net.
SWEEP_ZEROS = {"features.warp_calls", "geometry.warp_s"}
GT_ZEROS = SWEEP_ZEROS | {"features.cost_volume_s", "features.regress_s",
                          "features.depth_rel_err"}
UNET_METRICS = {"sparse_unet.forward_s", "sparse_unet.submanifold_s", "sparse_unet.strided_s",
                "sparse_unet.transposed_s", "sparse_unet.pointwise_s",
                "sparse_unet.index_builds", "sparse_unet.sites"}
ZEROS = {"sweep": SWEEP_ZEROS, "dense": GT_ZEROS, "garden": GT_ZEROS | UNET_METRICS}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    return root


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_run_checks_out(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    occupied, sites, pairs = COUNTS[workload]
    assert metrics["voxels.occupied"] == metrics["gaussians.count"] == occupied
    assert metrics["sparse_unet.sites"] == sites
    assert metrics["renderer.splat_tile_pairs"] == pairs
    assert {name for name, value in metrics.items() if value == 0} == ZEROS[workload]
