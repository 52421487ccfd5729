"""Command-line surface: scene synthesis, pipeline runs, evaluation.

Exit codes: 0 success, 1 pipeline-stage failure, 2 usage/config/format/output error.
"""

from __future__ import annotations

import json
import os

import click

from . import KERNEL_BACKEND, __version__
from .errors import StageError, VolsplatError
from .gaussians import export_ply, import_ply, write_summary
from .pipeline import PipelineConfig, evaluate, run_pipeline
from .renderer import MAX_THREADS, check_threads, render
from .sceneio import load_scene, save_scene, write_ppm
from .scenes import SceneSpec, synthesize

CONFIG_SCHEMA_VERSION = 1


def _fail(exc: Exception) -> "click.exceptions.Exit":
    code = 1 if isinstance(exc, StageError) else 2
    click.echo(f"error: {exc}", err=True)
    return click.exceptions.Exit(code)


def _print_version(ctx, param, value):
    if not value or ctx.resilient_parsing:
        return
    click.echo(f"volsplat {__version__} (config schema v{CONFIG_SCHEMA_VERSION}, "
               f"kernel {KERNEL_BACKEND})")
    ctx.exit(0)


@click.group()
@click.option("--version", is_flag=True, callback=_print_version,
              expose_value=False, is_eager=True, help="Print version and exit.")
def main():
    """Voxel-aligned feed-forward 3D Gaussian engine."""


@main.command("synth")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_synth(spec_path, out_dir):
    """Synthesize an analytic scene into a directory of views."""
    try:
        spec = SceneSpec.from_json(spec_path)
        views, gt_set = synthesize(spec)
        manifest = save_scene(views, out_dir)
        if gt_set is not None:
            ply = os.path.join(out_dir, "gt_gaussians.ply")
            export_ply(gt_set, ply)
            manifest.append(ply)
    except (VolsplatError, OSError) as e:
        raise _fail(e)
    for path in manifest:
        click.echo(path)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(),
              help="JSON config file; a missing or malformed one is a config error.")
@click.option("--scene", "scene_dir", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--threads", type=int, default=1,
              help=f"Render worker count, 0 (auto) to {MAX_THREADS}.")
@click.option("--override", "-o", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Dotted config override, e.g. -o depth.near=0.5")
def cmd_run(config_path, scene_dir, out_dir, threads, overrides):
    """Run the forward pipeline on a scene directory."""
    try:
        check_threads(threads)
        cfg = PipelineConfig.from_json(config_path) if config_path else PipelineConfig()
        for item in overrides:
            if "=" not in item:
                raise click.UsageError(f"override must be KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            cfg.apply_override(key, value)
        views = load_scene(scene_dir)
        gset, diagnostics = run_pipeline(views, cfg)
        os.makedirs(out_dir, exist_ok=True)
        export_ply(gset, os.path.join(out_dir, "gaussians.ply"))
        write_summary(gset, os.path.join(out_dir, "summary.json"))
        # timings vary run to run; keep diagnostics.json deterministic
        diagnostics = dict(diagnostics)
        timings = diagnostics.pop("stages", {})
        with open(os.path.join(out_dir, "diagnostics.json"), "w") as f:
            json.dump(diagnostics, f, indent=2, sort_keys=True)
        with open(os.path.join(out_dir, "timings.json"), "w") as f:
            json.dump(timings, f, indent=2, sort_keys=True)
        render_dir = os.path.join(out_dir, "renders")
        os.makedirs(render_dir, exist_ok=True)
        for i, v in enumerate(views):
            out = render(gset, v.intrinsics, v.extrinsics, bg=cfg.render.bg, threads=threads)
            write_ppm(os.path.join(render_dir, f"render_{i:03d}.ppm"), out.rgb)
    except (VolsplatError, OSError) as e:
        raise _fail(e)
    click.echo(f"wrote {len(gset)} gaussians to {out_dir}")


@main.command("eval")
@click.option("--gaussians", "ply_path", required=True, type=click.Path())
@click.option("--targets", "target_dir", required=True, type=click.Path())
@click.option("--out", "report_path", required=True, type=click.Path(dir_okay=False))
@click.option("--threads", type=int, default=1,
              help=f"Render worker count, 0 (auto) to {MAX_THREADS}.")
def cmd_eval(ply_path, target_dir, report_path, threads):
    """Render against target views and write a metrics report."""
    try:
        check_threads(threads)
        gset = import_ply(ply_path)
        targets = load_scene(target_dir)
        report = evaluate(gset, targets, threads=threads)
        report["schema_version"] = CONFIG_SCHEMA_VERSION
        with open(report_path, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    except (VolsplatError, OSError) as e:
        raise _fail(e)
    click.echo(f"{'view':>6} {'psnr':>8} {'ssim':>8} {'mse':>10}")
    for i, m in enumerate(report["per_view"]):
        click.echo(f"{i:>6} {m['psnr']:>8.2f} {m['ssim']:>8.4f} {m['mse']:>10.6f}")
    mean = report["mean"]
    click.echo(f"{'mean':>6} {mean['psnr']:>8.2f} {mean['ssim']:>8.4f} {mean['mse']:>10.6f}")
    click.echo(f"PGS: {report['pgs']:.1f} ({report['gaussian_count']} gaussians)")


if __name__ == "__main__":
    main()
