"""The input boundary: every file kind the engine reads, cut short and
overwritten, is either read or rejected with a `VolsplatError`, and the CLI
turns each of them into exit 0, or exit 2 (1 for a stage failure) with one
`error:` line. A source guard keeps the reading in `sceneio`."""

import ast
import json
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import volsplat
from volsplat.cli import main
from volsplat.errors import FormatError, VolsplatError
from volsplat.gaussians import GaussianSet, export_ply, import_ply
from volsplat.pipeline import PipelineConfig
from volsplat.sceneio import Payload, load_camera_json, read_depth, read_ppm, save_scene
from volsplat.scenes import SceneSpec, synthesize
from volsplat.sparse_unet import UNetSpec, load_weights, random_weights, save_weights

SPEC = {
    "kind": "textured-wall",
    "cameras": [{"position": [0.15 * i, 0.0, 0.0], "look_at": [0.0, 0.0, 2.0]} for i in range(3)],
    "image_size": [16, 16],
    "seed": 1,
}
CONFIG = {"depth": {"use_gt": True}, "feature": {"channels": 6}}
# a small U-Net, so the blob is mostly header and the fuzz reaches its fields
UNET = UNetSpec(levels=(4, 4), blocks_per_level=0)
RUN = ["-o", "depth.use_gt=true", "-o", "feature.channels=6"]
WEIGHTS = ["-o", "unet.levels=[4,4]", "-o", "unet.blocks=0"]


def _config(path):
    cfg = PipelineConfig.from_json(str(path))
    cfg.validate()
    return cfg


# kind: (file name in the fixture directory, reader, CLI arguments that read it)
KINDS = {
    "ppm": ("scene/view_000.ppm", read_ppm, lambda d: ["run", "--scene", f"{d}/scene", *RUN]),
    "depth": ("scene/view_000.depth", read_depth,
              lambda d: ["run", "--scene", f"{d}/scene", *RUN]),
    "camera": ("scene/view_000.json", load_camera_json,
               lambda d: ["run", "--scene", f"{d}/scene", *RUN]),
    "config": ("cfg.json", _config,
               lambda d: ["run", "--scene", f"{d}/scene", "--config", f"{d}/cfg.json"]),
    "spec": ("spec.json", lambda p: SceneSpec.from_json(str(p)),
             lambda d: ["synth", "--spec", f"{d}/spec.json"]),
    "ply": ("g.ply", import_ply,
            lambda d: ["eval", "--gaussians", f"{d}/g.ply", "--targets", f"{d}/scene"]),
    "weights": ("w.vswt", load_weights,
                lambda d: ["run", "--scene", f"{d}/scene", *RUN, *WEIGHTS,
                           "-o", f"unet.weights_path={d}/w.vswt"]),
}
OUT = {"run": "out", "synth": "synth-out", "eval": "report.json"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid file of each kind, in one directory."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "spec.json").write_text(json.dumps(SPEC))
    (d / "cfg.json").write_text(json.dumps(CONFIG))
    views, _ = synthesize(SceneSpec.from_json(SPEC))
    save_scene(views, d / "scene")
    rng = np.random.default_rng(0)
    n = 20
    export_ply(GaussianSet(
        centers=np.c_[rng.uniform(-0.3, 0.3, (n, 2)), rng.uniform(1.5, 2.5, n)],
        opacity_logits=rng.uniform(-1, 3, n),
        log_scales=np.log(rng.uniform(0.02, 0.08, (n, 3))),
        rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
        sh=rng.uniform(-1, 1, (n, 3)),
    ), d / "g.ply")
    save_weights(d / "w.vswt", random_weights(UNET, 6, seed=1))
    return d


@st.composite
def mutations(draw, raw: bytes, kind: str) -> bytes:
    """`raw` cut at a drawn length (or kept whole), with drawn bytes overwritten.
    A weight blob is drawn resealed with its new checksum half the time, so the
    fuzz gets past the checksum to the tensor fields."""
    cut = draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))))
    out = bytearray(raw[:cut])
    if out:
        for at, byte in draw(st.lists(st.tuples(st.integers(0, len(out) - 1),
                                                st.integers(0, 255)), max_size=4)):
            out[at] = byte
    if kind == "weights" and len(out) >= 4 and draw(st.booleans()):
        out[-4:] = struct.pack("<I", zlib.crc32(bytes(out[:-4])))
    return bytes(out)


def mutated(inputs, kind, data):
    """Write a mutation of `kind`'s valid file in place; returns its path and old bytes."""
    path = inputs / KINDS[kind][0]
    raw = path.read_bytes()
    path.write_bytes(data.draw(mutations(raw, kind)))
    return path, raw


FUZZ = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.data())
def test_reader_returns_or_raises_volsplat_error(inputs, kind, data):
    path, raw = mutated(inputs, kind, data)
    try:
        KINDS[kind][1](path)
    except VolsplatError:
        pass
    finally:
        path.write_bytes(raw)


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.data())
def test_cli_exit_code_and_one_error_line(inputs, kind, data):
    path, raw = mutated(inputs, kind, data)
    args = KINDS[kind][2](inputs)
    try:
        res = CliRunner().invoke(main, [*args, "--out", str(inputs / OUT[args[0]])])
    finally:
        path.write_bytes(raw)
        shutil.rmtree(inputs / "synth-out", ignore_errors=True)
    # a well-formed file can still hold values no stage can run with (a finite
    # depth of 131072 puts a voxel key outside +-1048574, which voxelize rejects): exit 1
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    errors = [line for line in res.output.splitlines() if line.startswith("error:")]
    assert len(errors) == (res.exit_code != 0), res.output
    assert (res.exit_code == 1) == ("error: stage '" in res.output), res.output


class TestPayload:
    def test_sizes_are_checked_in_python_ints(self):
        # 2^32-1 squared float32s: np.prod in int64 would wrap, np.fromfile overflow
        payload = Payload(struct.pack("<II", 2**32 - 1, 2**32 - 1), "f", "depth file")
        h, w = payload.unpack("<II")
        with pytest.raises(FormatError, match="malformed depth file: depth needs "
                                              f"{4 * h * w} bytes, 0 payload bytes remain"):
            payload.array("<f4", (h, w), "depth")

    def test_negative_count_is_rejected(self):
        # a PLY "element vertex -1" line
        with pytest.raises(FormatError, match="malformed PLY file: vertices needs -12 bytes"):
            Payload(bytes(12), "f", "PLY file").array("<f4", (-1, 3), "vertices")

    def test_trailing_bytes_are_rejected(self):
        payload = Payload(bytes(9), "f", "image")
        assert payload.array(np.uint8, (2, 4), "pixels").shape == (2, 4)
        with pytest.raises(FormatError, match="malformed image: 1 trailing bytes"):
            payload.end()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_floats_are_rejected(self, value):
        raw = np.array([1.0, value], "<f4").tobytes()
        with pytest.raises(FormatError, match="depth has non-finite values"):
            Payload(raw, "f", "depth file").array("<f4", (2,), "depth")


def read_calls(tree: ast.AST):
    """(line, text) of every call in `tree` that reads a file: np.frombuffer,
    np.fromfile, json.load, or open() in a read mode (or a mode not spelt out)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and (
                (f.value.id == "np" and f.attr in ("frombuffer", "fromfile"))
                or (f.value.id == "json" and f.attr == "load")):
            yield node.lineno, ast.unparse(f)
        elif isinstance(f, ast.Name) and f.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")):
                yield node.lineno, ast.unparse(node)


def test_only_sceneio_reads_files():
    src = Path(volsplat.__file__).parent
    found = [f"{p.relative_to(src)}:{line}: {text}"
             for p in sorted(src.rglob("*.py")) if p.name != "sceneio.py"
             for line, text in read_calls(ast.parse(p.read_text()))]
    assert found == []


def test_read_calls_finds_each_kind_of_read():
    code = ("np.frombuffer(b)\nnp.fromfile(f)\njson.load(f)\nopen(p)\nopen(p, 'rb')\n"
            "open(p, mode='r')\nopen(p, m)\njson.loads(s)\nopen(p, 'w')\nopen(p, mode='wb')\n")
    assert [line for line, _ in read_calls(ast.parse(code))] == [1, 2, 3, 4, 5, 6, 7]
