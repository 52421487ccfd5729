"""VolSplat benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. A run sets the engine up cold (several
times, for `setup_s`), checks the outputs of that first reconstruction
against computations made here, then repeats rounds until `--seconds` are
spent. A round holds one repetition per held-out frame: a reconstruction,
the frame rendered on one thread, and the same frame on two threads.
Every operation is timed in host-normalised seconds (see refloop.py).
With `--trace 1` every other round runs with spans around the calls into
each module, and the per-layer metrics are reported instead of the
end-to-end ones.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
The line before it holds the raw wall times, reference-loop times and
sample counts; run and trace files go to perfbench/out/.
"""

from __future__ import annotations

import os

# Cap numpy's BLAS pool at one thread before numpy loads, so the only
# parallelism measured is the renderer's own `threads` argument.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from refloop import NOMINAL_REF_S, HostClock  # noqa: E402
from spans import Capture, Tracer, duration, self_times  # noqa: E402
from workloads import RENDER_THREADS, WORKLOADS  # noqa: E402

SETUPS = 3  # cold set-ups per run; setup_s is their median
CHECK_SITES = 48  # sampled sites for the submanifold-conv check
MIN_INPUT_PSNR = 30.0  # garden re-rendered at its own input views

END_TO_END_UNITS = {"setup_s": "s", "reconstruct_s": "s", "render_s": "s",
                    "render_2t_s": "s", "psnr_db": "dB", "peak_rss_mb": "MB"}

# Per-layer seconds per reconstruction: summed spans of these names.
RECON_SPANS = {
    "features.extract_s": ("features.extract",),
    "features.cost_volume_s": ("features.cost_volume",),
    "features.regress_s": ("features.regress",),
    "geometry.warp_s": ("geometry.warp",),
    "voxels.lift_s": ("voxels.lift",),
    "voxels.voxelize_s": ("voxels.voxelize",),
    "sparse_unet.forward_s": ("sparse_unet.forward",),
    "sparse_unet.submanifold_s": ("sparse_unet.submanifold",),
    "sparse_unet.strided_s": ("sparse_unet.strided",),
    "sparse_unet.transposed_s": ("sparse_unet.transposed",),
    "sparse_unet.pointwise_s": ("sparse_unet.pointwise",),
    "gaussians.decode_s": ("gaussians.head", "gaussians.activate"),
}
# Per-layer seconds per one-thread frame.
FRAME_SPANS = {"renderer.project_s": ("renderer.project",),
               "renderer.composite_s": ("renderer.composite",)}
COUNTS = ("features.warp_calls", "voxels.points", "voxels.occupied", "sparse_unet.index_builds",
          "sparse_unet.sites", "gaussians.count", "renderer.tiles", "renderer.splat_tile_pairs")
RATIOS = ("features.depth_rel_err", "trace.coverage")


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def install_trace(tracer: Tracer, m) -> None:
    """Span every call into a layer at the module attribute its caller reads."""
    p, su, r = m.pipeline, m.sparse_unet, m.renderer
    tracer.wrap(p, "run_pipeline", "pipeline.run_pipeline")
    tracer.wrap(p, "extract_features", "features.extract")
    tracer.wrap(p, "build_cost_volume", "features.cost_volume")
    tracer.wrap(p, "regress_depth", "features.regress")
    tracer.wrap(m.features, "warp_feature", "geometry.warp")
    tracer.wrap(p, "lift_views", "voxels.lift", _rows)
    tracer.wrap(p, "voxelize", "voxels.voxelize", _rows)
    tracer.wrap(p, "load_weights", "sparse_unet.load_weights")
    tracer.wrap(p, "unet_forward", "sparse_unet.forward",
                lambda a, k, res: {"rows": a[0].coords.shape[0]})
    tracer.wrap(p, "residual_refine", "sparse_unet.residual")
    tracer.wrap(su, "submanifold_conv", "sparse_unet.submanifold")
    tracer.wrap(su, "strided_down", "sparse_unet.strided",
                lambda a, k, res: {"rows": res.coords.shape[0]})
    tracer.wrap(su, "transposed_up", "sparse_unet.transposed")
    tracer.wrap(su, "pointwise_conv", "sparse_unet.pointwise")
    tracer.wrap(su, "_CoordIndex", "sparse_unet.index_build")
    tracer.wrap(p, "_color_copy_raw", "gaussians.head")
    tracer.wrap(p, "decode_raw", "gaussians.head")
    tracer.wrap(p, "activate_set", "gaussians.activate", _rows)
    tracer.wrap(r, "render", "renderer.render",
                lambda a, k, res: {"threads": k.get("threads", 1)})
    tracer.wrap(r, "_project_all", "renderer.project")
    tracer.wrap(r, "composite_tile", "renderer.composite",
                lambda a, k, res: {"splats": a[0].shape[0]})
    tracer.wrap(m.scenes, "synthesize", "scenes.synthesize")


def watch_stages(capture: Capture, m) -> None:
    capture.watch(m.pipeline, "lift_views", "lift")
    capture.watch(m.pipeline, "voxelize", "voxelize")
    # unet_forward applies the activation to the returned tensor in place
    capture.watch(m.sparse_unet, "submanifold_conv", "submanifold",
                  lambda args, kwargs, out: (args, kwargs, out.feats.copy()))


def setup_child(w, seed: int) -> None:
    """One cold set-up in a fresh interpreter; prints its times as JSON."""
    clock = HostClock()
    capture = Capture()
    s = workloads.cold_setup(w, seed, clock, lambda m: watch_stages(capture, m))
    capture.remove()
    if s.weights_path:
        os.remove(s.weights_path)
    print(json.dumps({"norm_s": s.norm_s, "wall_s": s.wall_s}))


def setup_in_child(w, seed: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", w.name, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          cwd=workloads.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verify(s, capture: Capture, w) -> dict:
    """Check the cold reconstruction stage by stage; every later
    reconstruction must reproduce it byte for byte."""
    m, cfg, gset = s.modules, s.cfg, s.gset
    needed = ("lift", "voxelize") + (("submanifold",) if w.unet else ())
    missing = [k for k in needed if k not in capture.calls]
    if missing:
        raise RuntimeError(f"run_pipeline made no call to the stages {missing}; nothing to check")
    errors = []
    (views, _, depths), _, _ = capture.calls["lift"]
    rel = [np.abs(d.values[d.valid_mask] - v.gt_depth[d.valid_mask]) / v.gt_depth[d.valid_mask]
           for v, d in zip(views, depths)]
    depth_rel_err = float(np.median(np.concatenate(rel)))
    if not w.gt_depth:
        errors += checks.check_depths([d.values[d.valid_mask] for d in depths],
                                      cfg.depth.near, cfg.depth.far)
    (cloud, voxel_size), _, grid = capture.calls["voxelize"]
    pool = checks.dict_pool(cloud.positions, cloud.features, voxel_size)
    errors += checks.check_voxel_pool(pool, grid.keys, grid.features)
    if w.unet:
        (x, weight, bias), _, out = capture.calls["submanifold"]
        n = x.coords.shape[0]
        sites = np.random.default_rng(0).choice(n, size=min(CHECK_SITES, n), replace=False)
        errors += checks.check_submanifold(x.coords, x.feats, weight, bias, out, sites)
    radius = cfg.head.offset_radius_multiplier * cfg.voxel.size
    errors += checks.check_gaussians(gset.centers, gset.voxel_keys, cfg.voxel.size, radius, pool[0])
    input_psnr = []
    if w.scene == "gaussian-garden":
        for v in s.inputs:
            out = m.renderer.render(gset, v.intrinsics, v.extrinsics, bg=cfg.render.bg, threads=1)
            input_psnr.append(checks.psnr(out.rgb, v.image))
        errors += checks.check_min_psnr(input_psnr, MIN_INPUT_PSNR, "garden at an input view")
    return {"errors": errors, "depth_rel_err": depth_rel_err, "input_psnr_db": input_psnr}


def same_set(a, b) -> list:
    errors = []
    for name in ("centers", "opacity_logits", "log_scales", "rotations", "sh", "voxel_keys"):
        errors += checks.check_identical(getattr(a, name), getattr(b, name),
                                         f"Gaussian {name} of two reconstructions")
    return errors


def one_round(s, clock, tracer, traced: bool, recon_errors: list) -> list:
    m, cfg = s.modules, s.cfg
    records = []

    def op(kind, fn, *args, **kwargs):
        lo = len(tracer.spans) if tracer else 0
        result, wall, norm, scale = clock.time(fn, *args, **kwargs)
        rec = {"kind": kind, "wall_s": wall, "norm_s": norm, "scale": scale, "traced": traced,
               "spans": (lo, len(tracer.spans)) if tracer else None}
        records.append(rec)
        return result, rec

    for v in s.held:  # one repetition per held-out frame
        (gset, _), rec = op("reconstruct", m.pipeline.run_pipeline, s.inputs, cfg)
        rec["errors"] = recon_errors + same_set(gset, s.gset)
        one, rec = op("render", m.renderer.render, gset, v.intrinsics, v.extrinsics,
                      bg=cfg.render.bg, threads=1)
        rec["errors"] = checks.check_render(one.rgb, v.image, cfg.render.bg)
        rec["psnr_db"] = checks.psnr(one.rgb, v.image)
        two, rec = op("render_2t", m.renderer.render, gset, v.intrinsics, v.extrinsics,
                      bg=cfg.render.bg, threads=RENDER_THREADS)
        rec["errors"] = (checks.check_render(two.rgb, v.image, cfg.render.bg)
                         + checks.check_identical(two.rgb, one.rgb, "1- and 2-thread renders"))
    return records


def run_rounds(s, clock, seconds: float, tracer, recon_errors: list) -> list:
    """Whole rounds until the next one would end after `seconds`; with a
    tracer, even rounds are traced and odd ones not (at least one each)."""
    records, round_s = [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = tracer is not None and len(round_s) % 2 == 0
        if traced:
            install_trace(tracer, s.modules)
        try:
            records += one_round(s, clock, tracer, traced, recon_errors)
        finally:
            if traced:
                tracer.remove()
        round_s.append(time.perf_counter() - t0)
        enough = len(round_s) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - started + statistics.median(round_s) > seconds:
            return records


def _median(records, kind, key="norm_s", traced=None):
    vals = [r[key] for r in records if r["kind"] == kind and (traced is None or r["traced"] == traced)]
    return statistics.median(vals)


def end_to_end(records, setup_norm: list) -> dict:
    first_psnr = [r["psnr_db"] for r in records if r["kind"] == "render"][: workloads.HELD_OUT]
    return {
        "setup_s": statistics.median(setup_norm),
        "reconstruct_s": _median(records, "reconstruct"),
        "render_s": _median(records, "render"),
        "render_2t_s": _median(records, "render_2t"),
        "psnr_db": statistics.fmean(first_psnr),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _single(values: list, name: str):
    """A count must be the same in every traced operation."""
    if len(set(values)) != 1:
        raise RuntimeError(f"count {name} changed between identical operations: {values}")
    return values[0]


def per_layer(records, spans: list, setup, verified: dict, clock) -> dict:
    own = self_times(spans)
    recon = [r for r in records if r["kind"] == "reconstruct" and r["traced"]]
    frames = [r for r in records if r["kind"] == "render" and r["traced"]]

    def of(rec):
        lo, hi = rec["spans"]
        return spans[lo:hi]

    def seconds(rec, names):
        return rec["scale"] * sum(duration(x) for x in of(rec) if x["name"] in names)

    def root(rec, name):
        return next(x for x in of(rec) if x["name"] == name)

    out = {name: statistics.median(seconds(r, names) for r in recon)
           for name, names in RECON_SPANS.items()}
    out["pipeline.self_s"] = statistics.median(
        r["scale"] * own[root(r, "pipeline.run_pipeline")["id"]] for r in recon)
    out.update({name: statistics.median(seconds(r, names) for r in frames)
                for name, names in FRAME_SPANS.items()})
    out["renderer.prep_s"] = statistics.median(
        r["scale"] * own[root(r, "renderer.render")["id"]] for r in frames)

    def count(rec, name, key=None):
        return sum(1 if key is None else x[key] for x in of(rec) if x["name"] == name)

    out["features.warp_calls"] = _single([count(r, "geometry.warp") for r in recon], "warp_calls")
    out["voxels.points"] = _single([count(r, "voxels.lift", "rows") for r in recon], "points")
    out["voxels.occupied"] = _single([count(r, "voxels.voxelize", "rows") for r in recon], "occupied")
    out["sparse_unet.index_builds"] = _single(
        [count(r, "sparse_unet.index_build") for r in recon], "index_builds")
    out["sparse_unet.sites"] = _single(
        [count(r, "sparse_unet.forward", "rows") + count(r, "sparse_unet.strided", "rows")
         for r in recon], "sites")
    out["gaussians.count"] = _single([count(r, "gaussians.activate", "rows") for r in recon], "count")
    per_round = workloads.HELD_OUT
    groups = [frames[i:i + per_round] for i in range(0, len(frames), per_round)]
    out["renderer.tiles"] = _single(
        [sum(count(r, "renderer.composite") for r in g) for g in groups], "tiles")
    out["renderer.splat_tile_pairs"] = _single(
        [sum(count(r, "renderer.composite", "splats") for r in g) for g in groups], "pairs")

    out["features.depth_rel_err"] = verified["depth_rel_err"]
    synth = next(x for x in spans if x["name"] == "scenes.synthesize")
    step = setup.steps["synthesize"]
    out["scenes.synthesize_s"] = duration(synth) * step["norm_s"] / step["wall_s"]
    out["host.ref_loop_s"] = clock.ref_median()
    out["trace.overhead_s"] = (_median(records, "reconstruct", traced=True)
                               - _median(records, "reconstruct", traced=False))
    # Stage spans plus pipeline self time, against the time measured around the call.
    coverage = []
    for r in recon:
        top = root(r, "pipeline.run_pipeline")["id"]
        stages = sum(duration(x) for x in of(r) if x["parent"] == top)
        coverage.append((stages + own[top]) / r["wall_s"])
    out["trace.coverage"] = statistics.median(coverage)
    if not 0.99 <= min(coverage) <= max(coverage) <= 1.0:
        raise RuntimeError(f"stage spans do not account for reconstruct time: {coverage}")
    return out


def layer_unit(name: str) -> str:
    return "count" if name in COUNTS else "ratio" if name in RATIOS else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads.bootstrap()
    w = WORKLOADS[args.workload]
    if args.setup_only:
        setup_child(w, args.seed)
        return 0
    # Byte-compile first so no set-up pays for it, whichever run is first.
    compileall.compile_dir(str(workloads.SRC / "volsplat"), quiet=1)

    clock = HostClock()
    capture = Capture()
    tracer = Tracer() if args.trace else None

    def on_import(m):
        if tracer is not None:
            install_trace(tracer, m)  # inside the capture, so removing it keeps the spans
        watch_stages(capture, m)

    setup = workloads.cold_setup(w, args.seed, clock, on_import)
    try:
        capture.remove()
        if tracer is not None:
            tracer.remove()
        setup_norm = [setup.norm_s]
        setup_wall = [setup.wall_s]
        if tracer is None:
            for _ in range(SETUPS - 1):
                child = setup_in_child(w, args.seed)
                setup_norm.append(child["norm_s"])
                setup_wall.append(child["wall_s"])
        verified = verify(setup, capture, w)
        capture = None  # release the captured stage inputs before timing
        records = run_rounds(setup, clock, args.seconds, tracer, verified["errors"])
    finally:
        if setup.weights_path:
            os.remove(setup.weights_path)

    failures = sorted({e for r in records for e in r["errors"]})
    for e in failures[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": True, "attempted": len(records),
              "failed": sum(1 for r in records if r["errors"])}
    detail = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "kernel_backend": setup.modules.backend, "render_threads": RENDER_THREADS,
        "nproc": os.cpu_count(), "nominal_ref_s": NOMINAL_REF_S,
        "ref_loop_median_s": clock.ref_median(), "ref_loop_samples_s": clock.ref_samples,
        "repetitions": sum(1 for r in records if r["kind"] == "reconstruct"),
        "setup_norm_s": setup_norm, "setup_wall_s": setup_wall,
        "setup_steps": setup.steps, "input_psnr_db": verified.get("input_psnr_db", []),
        "raw_median_s": {k: _median(records, k, "wall_s")
                         for k in ("reconstruct", "render", "render_2t")},
    }
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        values = end_to_end(records, setup_norm)
        units = END_TO_END_UNITS
    else:
        values = per_layer(records, tracer.spans, setup, verified, clock)
        units = {name: layer_unit(name) for name in values}
        tracer.write(workloads.OUT / f"spans-{stem}.json")
    result["metrics"] = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    with open(workloads.OUT / f"run-{stem}.json", "w") as f:
        json.dump({"detail": detail, "operations": records, "result": result}, f, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
