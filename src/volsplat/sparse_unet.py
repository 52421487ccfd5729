"""Forward-only sparse 3D U-Net for residual voxel-feature refinement.

All convolutions are submanifold (output occupancy == input occupancy)
except the explicit stride-2 down / transposed up pair, so the residual
field lives on exactly the input voxel set.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._kernels import scatter_add_rows
from .errors import FormatError, InvalidInputError, WeightLoadError
from .sceneio import Payload, read_bytes
from .voxels import _BIAS, _BITS, _encode

WEIGHT_MAGIC = b"VSWT"
# Widest U-Net level a config may ask for: one 27 x 512 x 512 float64 kernel
# is 57 MB. The default widths (C, 2C, 4C) stay within it for every allowed
# feature.channels.
MAX_UNET_WIDTH = 512
# Most submanifold blocks a config may ask for per level, in the encoder and
# again in the decoder (the default is 2).
MAX_UNET_BLOCKS = 8

# 27 kernel offsets in a fixed order; index k maps to (dz, dy, dx) via
# weight[di+1, dj+1, dk+1]. Offset 26 - k is the negation of offset k, and
# _CENTRE = 13 is (0, 0, 0).
_OFFSETS = [(di, dj, dk) for di in (-1, 0, 1) for dj in (-1, 0, 1) for dk in (-1, 0, 1)]
_CENTRE = len(_OFFSETS) // 2


@dataclass
class SparseTensor:
    """Features on voxel sites. The 3x3x3 convs take the sites only unique and
    in ascending (z, y, x) order, as `voxelize` and `downsample_coords` list
    them; any other order raises InvalidInputError."""

    coords: np.ndarray  # V x 3 int64, in units of the current stride
    feats: np.ndarray  # V x C
    stride: int = 1

    def __post_init__(self):
        if self.coords.shape[0] != self.feats.shape[0]:
            raise InvalidInputError("coords/feats row mismatch")
        if self.stride < 1 or (self.stride & (self.stride - 1)):
            raise InvalidInputError("stride must be a power of two")


def _offset_code(di: int, dj: int, dk: int) -> int:
    """What adding (di, dj, dk) to a site adds to its code, while every field stays in range."""
    return (di << 2 * _BITS) + (dj << _BITS) + dk


def _check_neighbours(coords: np.ndarray) -> None:
    """Raise unless every site coords + offset is encodable, so that its code
    is the code of coords plus _offset_code(offset)."""
    if coords.size:  # one column at a time: min(axis=0) of an n x 3 array is ten times slower
        _encode(np.array([[c.min() - 1 for c in coords.T], [c.max() + 1 for c in coords.T]]))


# Every set of axes as the mask e = 4z + 2y + x of its (z, y, x) flags, and
# _STEP[e], the step in offset index of a unit step along those axes.
_AXIS_SETS = list(itertools.product((0, 1), repeat=3))
_STEP = np.array([9 * z + 3 * y + x for z, y, x in _AXIS_SETS])


def _odd_axes(codes: np.ndarray) -> np.ndarray:
    """Per code, the mask of the site's odd axes (its fields' lowest bits, as _BIAS is even)."""
    return ((codes >> (2 * _BITS - 2)) & 4) | ((codes >> (_BITS - 1)) & 2) | (codes & 1)


def _halve(codes: np.ndarray) -> np.ndarray:
    """Per code, the code of the site floor-divided by 2. Each field u = c + _BIAS
    becomes (u >> 1) + _BIAS / 2, as _BIAS is even; the shift moves each field's
    lowest bit into the top bit of the next, which is cleared."""
    low = _offset_code(1, 1, 1)  # the lowest bit of every field
    return ((codes >> 1) & ~(low << (_BITS - 1))) + low * (_BIAS >> 1)


class _CoordIndex:
    """Lookup table from voxel code to row index, over sites in code order.

    The sites must come in strictly ascending `_encode` order, as `voxelize`
    and `downsample_coords` give them, so a code's position is its row. A
    repeated site, which a lookup would find only once, or a site out of
    order raises InvalidInputError.
    """

    def __init__(self, coords: np.ndarray):
        self.codes = _encode(coords)
        bad = np.flatnonzero(self.codes[1:] <= self.codes[:-1]) + 1
        if bad.size:
            raise InvalidInputError(
                f"voxel sites must be unique and in (z, y, x) order: site "
                f"{coords[bad[0]].tolist()} at row {bad[0]} is repeated or out of order")

    def search(self, q: np.ndarray) -> np.ndarray:
        """Position in codes of the first code >= each query code."""
        return np.searchsorted(self.codes, q)

    def lookup(self, q: np.ndarray) -> np.ndarray:
        """Row index per query code (see _encode), -1 where absent."""
        if self.codes.size == 0:
            return np.full(q.shape, -1, np.int64)
        pos = np.clip(self.search(q), 0, self.codes.size - 1)
        return np.where(self.codes[pos] == q, pos, -1)


def _check_kernel(w: np.ndarray, cin: int) -> None:
    if w.ndim != 5 or w.shape[:3] != (3, 3, 3) or w.shape[3] != cin:
        raise WeightLoadError(f"kernel shape {w.shape} does not match 3x3x3x{cin}xCout")


@dataclass
class KernelMap:
    """Neighbour map ("rulebook") of one 3x3x3 sparse conv.

    pairs[k] = (out_rows, in_rows) for offset k in _OFFSETS order: output
    row out_rows[j] gathers input row in_rows[j] through weight[offset k].
    The maps are built on sites in code order, so within one offset both the
    output rows and the input rows strictly ascend. `identity_centre` marks a
    map whose centre pairs are (arange(n), arange(n)) over the same n sites,
    as in a submanifold map.
    """

    out_coords: np.ndarray
    pairs: List[Tuple[np.ndarray, np.ndarray]]
    identity_centre: bool = False

    def transpose(self, coords: np.ndarray) -> "KernelMap":
        """The adjoint map, scattering back onto the input sites `coords`."""
        return KernelMap(coords, [(i, o) for o, i in self.pairs])


def submanifold_map(coords: np.ndarray, index: Optional[_CoordIndex] = None) -> KernelMap:
    """Map of a submanifold conv: site u gathers the sites u + offset.

    The offsets before the centre are found in code order with one search
    per (dz, dy) row: its dx = -1, 0, 1 neighbours can only be the codes just
    before, at and just after the first code >= the row's dx = 0 code, and the
    (0, 0, -1) neighbour is the previous site when its code is one less. Site
    u gathers u + d exactly when u + d gathers u through -d, so offset 26 - k
    holds the pairs of offset k swapped, and the centre pairs every site with
    itself.
    """
    index = _CoordIndex(coords) if index is None else index
    _check_neighbours(coords)
    codes = index.codes
    # No code equals the -1 sentinels, so a candidate one step past either end is a miss.
    padded = np.concatenate(([-1], codes, [-1]))
    # Per offset before the centre: the rows p, q with codes[q] == codes[p] +
    # code(offset); both ascend, as adding a code keeps order.
    first = []
    for dz, dy in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
        row = codes + _offset_code(dz, dy, 0)
        at = index.search(row) + 1  # in padded
        for dx, cand in ((-1, at - 1), (0, at), (1, at + (padded[at] == row))):
            hit = padded[cand] == row + dx
            first.append((np.flatnonzero(hit), cand[hit] - 1))
    after = np.flatnonzero(codes[1:] == codes[:-1] + 1) + 1
    first.append((after, after - 1))
    rows = np.arange(coords.shape[0])
    return KernelMap(coords, first + [(rows, rows)] + [(q, p) for p, q in first[::-1]],
                     identity_centre=True)


def downsample_coords(coords: np.ndarray) -> np.ndarray:
    """Unique floor-divided-by-2 coords, in ascending code order."""
    if not coords.size:
        return coords.copy()
    codes = np.unique(_encode(coords >> 1))
    mask = (1 << _BITS) - 1
    fields = [(codes >> (2 * _BITS)) & mask, (codes >> _BITS) & mask, codes & mask]
    return np.stack(fields, axis=1) - _BIAS


def down_map(
    coords: np.ndarray, out_coords: Optional[np.ndarray] = None,
    index: Optional[_CoordIndex] = None, out_index: Optional[_CoordIndex] = None,
) -> KernelMap:
    """Map of a stride-2 conv: coarse site o gathers the fine sites 2*o + offset.

    `index` and `out_index` are the _CoordIndex of `coords` and `out_coords`;
    each is built when not given. The map is found from the fine side, in code
    order: fine site f is gathered by the coarse sites (f >> 1) + e for each
    e in {0, 1}^3 with e <= f & 1, through offset (f & 1) - 2e. Each offset
    has one e, so a stable sort on the offset keeps its fine sites in code
    order, and its coarse sites too.
    """
    out_coords = downsample_coords(coords) if out_coords is None else out_coords
    index = _CoordIndex(coords) if index is None else index
    out_index = _CoordIndex(out_coords) if out_index is None else out_index
    _check_neighbours(2 * out_coords)  # as if every coarse site looked up its 27 children
    codes = index.codes
    parents, odd = _halve(codes), _odd_axes(codes)
    offset, out_rows, in_rows = [], [], []
    for e, (ez, ey, ex) in enumerate(_AXIS_SETS):
        sel = np.flatnonzero((odd & e) == e)
        rows = out_index.lookup(parents[sel] + _offset_code(ez, ey, ex))
        hit = rows >= 0
        sel = sel[hit]
        offset.append(_CENTRE + _STEP[odd[sel]] - 2 * _STEP[e])
        out_rows.append(rows[hit])
        in_rows.append(sel)
    offset = np.concatenate(offset)
    by_offset = np.argsort(offset.astype(np.uint8), kind="stable")
    out_rows = np.concatenate(out_rows)[by_offset]
    in_rows = np.concatenate(in_rows)[by_offset]
    ends = np.cumsum(np.bincount(offset, minlength=len(_OFFSETS))).tolist()
    return KernelMap(out_coords, [(out_rows[a:b], in_rows[a:b])
                                  for a, b in zip([0] + ends[:-1], ends)])


def _apply_map(feats: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
               kmap: KernelMap) -> np.ndarray:
    """Gather, multiply and scatter-add each offset's rows in _OFFSETS order.

    The identity centre of a submanifold map is added in place, without the
    gather and the scatter; every output element still takes the same
    additions in the same order.
    """
    out = np.zeros((kmap.out_coords.shape[0], w.shape[4]))
    if b is not None:
        out += b
    for k, ((di, dj, dk), (o, i)) in enumerate(zip(_OFFSETS, kmap.pairs)):
        if not o.size:
            continue
        if k == _CENTRE and kmap.identity_centre:
            out += feats @ w[1, 1, 1]
        else:
            scatter_add_rows(out, o, np.take(feats, i, axis=0) @ w[di + 1, dj + 1, dk + 1])
    return out


def submanifold_conv(
    x: SparseTensor, w: np.ndarray, b: Optional[np.ndarray] = None, *,
    kmap: Optional[KernelMap] = None,
) -> SparseTensor:
    """3x3x3 sparse conv whose output occupancy equals the input occupancy.

    `kmap` is `submanifold_map(x.coords)`; it is built when not given.
    """
    _check_kernel(w, x.feats.shape[1])
    kmap = submanifold_map(x.coords) if kmap is None else kmap
    out = _apply_map(x.feats, w, b, kmap)
    return SparseTensor(coords=x.coords.copy(), feats=out, stride=x.stride)


def strided_down(
    x: SparseTensor, w: np.ndarray, b: Optional[np.ndarray] = None, *,
    kmap: Optional[KernelMap] = None,
) -> SparseTensor:
    """Stride-2 sparse conv; output site o gathers inputs at 2*o + offset.

    `kmap` is `down_map(x.coords)`; it is built when not given.
    """
    _check_kernel(w, x.feats.shape[1])
    kmap = down_map(x.coords) if kmap is None else kmap
    out = _apply_map(x.feats, w, b, kmap)
    return SparseTensor(coords=kmap.out_coords.copy(), feats=out, stride=x.stride * 2)


def transposed_up(
    x: SparseTensor,
    target_coords: np.ndarray,
    w: np.ndarray,
    b: Optional[np.ndarray] = None,
    *,
    kmap: Optional[KernelMap] = None,
) -> SparseTensor:
    """Adjoint of strided_down onto the saved finer-level coordinate set.

    Fine site u receives w[offset] . x[o] from every coarse site o with
    u = 2*o + offset; sites with no contribution get bias only. `kmap` is
    `down_map(target_coords, x.coords).transpose(target_coords)`; it is
    built when not given. Like strided_down, this raises InvalidInputError
    when some 2*o + offset lies outside the supported coordinate range.
    """
    _check_kernel(w, x.feats.shape[1])
    if kmap is None:
        kmap = down_map(target_coords, x.coords).transpose(target_coords)
    out = _apply_map(x.feats, w, b, kmap)
    return SparseTensor(coords=target_coords.copy(), feats=out, stride=max(1, x.stride // 2))


def pointwise_conv(x: SparseTensor, w: np.ndarray, b: Optional[np.ndarray] = None) -> SparseTensor:
    """1x1x1 linear layer over the feature dimension."""
    if w.ndim != 2 or w.shape[0] != x.feats.shape[1]:
        raise WeightLoadError(f"pointwise weight shape {w.shape} does not match C={x.feats.shape[1]}")
    out = x.feats @ w
    if b is not None:
        out = out + b
    return SparseTensor(coords=x.coords.copy(), feats=out, stride=x.stride)


@dataclass(frozen=True)
class UNetSpec:
    levels: Tuple[int, ...] = ()  # channel width per level; () -> [C, 2C, 4C]
    blocks_per_level: int = 2

    def __post_init__(self):
        # `type(...) is int` turns away bools and floats
        if self.levels and (len(self.levels) < 2 or not all(
                type(c) is int and 1 <= c <= MAX_UNET_WIDTH for c in self.levels)):
            raise InvalidInputError(f"unet.levels must be empty or >= 2 integers "
                                    f"from 1 to {MAX_UNET_WIDTH}, got {self.levels!r}")
        b = self.blocks_per_level
        if not (type(b) is int and 0 <= b <= MAX_UNET_BLOCKS):
            raise InvalidInputError(
                f"unet.blocks must be an integer from 0 to {MAX_UNET_BLOCKS}, got {b!r}")

    def widths(self, in_channels: int) -> Tuple[int, ...]:
        return self.levels if self.levels else (in_channels, 2 * in_channels, 4 * in_channels)


@dataclass
class WeightBlob:
    tensors: "Dict[str, np.ndarray]" = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise WeightLoadError(f"missing weight tensor {name!r}") from None


def layer_plan(spec: UNetSpec, in_channels: int) -> List[dict]:
    """Layer descriptors in the order unet_forward runs them: name, op ("sub",
    "strided", "up", "fuse" or "point"), in/out channels, activation. A "fuse"
    layer is a pointwise conv over the up layer's output concatenated with the
    skip that the matching "strided" layer saved."""
    widths = spec.widths(in_channels)
    plan: List[dict] = []

    def add(name, op, cin, cout, act="relu"):
        plan.append({"name": name, "op": op, "cin": cin, "cout": cout, "act": act})

    cin = in_channels
    skips = []  # channels of each level's skip; level 0 keeps in_channels without blocks
    for lvl, width in enumerate(widths):
        if lvl > 0:
            add(f"down{lvl}", "strided", cin, width)
            cin = width
        for blk in range(spec.blocks_per_level):
            add(f"enc{lvl}.block{blk}", "sub", cin, width)
            cin = width
        skips.append(cin)
    for lvl in range(len(widths) - 2, -1, -1):
        width = widths[lvl]
        add(f"up{lvl}", "up", cin, width)
        add(f"dec{lvl}.fuse", "fuse", width + skips[lvl], width)
        for blk in range(spec.blocks_per_level):
            add(f"dec{lvl}.block{blk}", "sub", width, width)
        cin = width
    add("head", "point", cin, in_channels, act="none")
    return plan


def _tensor_shapes(plan: Sequence[dict]) -> Dict[str, tuple]:
    shapes: Dict[str, tuple] = {}
    for layer in plan:
        if layer["op"] in ("sub", "strided", "up"):
            shapes[layer["name"] + ".weight"] = (3, 3, 3, layer["cin"], layer["cout"])
        else:
            shapes[layer["name"] + ".weight"] = (layer["cin"], layer["cout"])
        shapes[layer["name"] + ".bias"] = (layer["cout"],)
    return shapes


def random_weights(spec: UNetSpec, in_channels: int, seed: int = 0) -> WeightBlob:
    """Kaiming-uniform initialized blob matching the spec's layer shapes."""
    rng = np.random.default_rng(seed)
    blob = WeightBlob()
    for name, shape in _tensor_shapes(layer_plan(spec, in_channels)).items():
        if name.endswith(".bias"):
            blob.tensors[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[:-1]))
            bound = np.sqrt(6.0 / fan_in)
            blob.tensors[name] = rng.uniform(-bound, bound, size=shape)
    return blob


def zero_weights(spec: UNetSpec, in_channels: int) -> WeightBlob:
    blob = WeightBlob()
    for name, shape in _tensor_shapes(layer_plan(spec, in_channels)).items():
        blob.tensors[name] = np.zeros(shape)
    return blob


def check_weights(blob: WeightBlob, plan: Sequence[dict]) -> None:
    """Raise WeightLoadError unless `blob` holds every tensor of `plan` in its shape."""
    for name, shape in _tensor_shapes(plan).items():
        t = blob[name]
        if t.shape != shape:
            raise WeightLoadError(f"tensor {name!r} has shape {t.shape}, expected {shape}")


def unet_forward(x: SparseTensor, spec: UNetSpec, weights: WeightBlob) -> SparseTensor:
    """Residual field on exactly the input voxel set.

    The sites of x must be unique and in (z, y, x) order (see _CoordIndex);
    otherwise this raises InvalidInputError before any layer runs. The layers
    run in layer_plan's order.
    """
    if x.stride != 1:
        raise InvalidInputError("unet_forward expects a stride-1 tensor")
    plan = layer_plan(spec, x.feats.shape[1])
    check_weights(weights, plan)
    n_levels = len(spec.widths(x.feats.shape[1]))

    # Every conv at one level sees the same coordinate set, so each level's
    # lookup and kernel maps are built once and shared by all its convs.
    coords = [x.coords]
    for _ in range(1, n_levels):
        coords.append(downsample_coords(coords[-1]))
    index = [_CoordIndex(c) for c in coords]
    sub_maps = [submanifold_map(c, i) if spec.blocks_per_level else None
                for c, i in zip(coords, index)]
    down_maps = [None] + [down_map(coords[l - 1], coords[l], index[l - 1], index[l])
                          for l in range(1, n_levels)]

    # A strided layer leaves a level and saves its tensor as the skip that
    # the fuse layer after the matching up layer concatenates.
    skips: List[SparseTensor] = []
    cur, lvl = x, 0
    for layer in plan:
        w, b, op = weights[layer["name"] + ".weight"], weights[layer["name"] + ".bias"], layer["op"]
        if op == "sub":
            cur = submanifold_conv(cur, w, b, kmap=sub_maps[lvl])
        elif op == "strided":
            skips.append(cur)
            lvl += 1
            cur = strided_down(cur, w, b, kmap=down_maps[lvl])
        elif op == "up":
            kmap = down_maps[lvl].transpose(coords[lvl - 1])
            lvl -= 1
            cur = transposed_up(cur, kmap.out_coords, w, b, kmap=kmap)
        elif op == "fuse":
            feats = np.concatenate([cur.feats, skips.pop().feats], axis=1)
            cur = pointwise_conv(SparseTensor(cur.coords, feats, cur.stride), w, b)
        else:
            cur = pointwise_conv(cur, w, b)
        if layer["act"] == "relu":
            cur.feats = np.maximum(cur.feats, 0.0)
    return cur


def residual_refine(v: SparseTensor, r: SparseTensor) -> SparseTensor:
    """Refined features V' = V + R on an identical coordinate set."""
    if v.coords.shape != r.coords.shape or np.any(v.coords != r.coords):
        raise InvalidInputError("residual coords must match input coords")
    return SparseTensor(coords=v.coords.copy(), feats=v.feats + r.feats, stride=v.stride)


def save_weights(path, blob: WeightBlob) -> None:
    body = bytearray()
    body += WEIGHT_MAGIC + struct.pack("<I", len(blob.tensors))
    for name, tensor in blob.tensors.items():
        nb = name.encode()
        body += struct.pack("<H", len(nb)) + nb
        body += struct.pack("<B", tensor.ndim)
        body += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        body += np.ascontiguousarray(tensor, "<f4").tobytes()
    crc = zlib.crc32(bytes(body))
    with open(path, "wb") as f:
        f.write(bytes(body) + struct.pack("<I", crc))


def load_weights(path) -> WeightBlob:
    """Read a blob written by save_weights; FormatError unless it is whole and finite."""
    raw = read_bytes(path, "weight blob")
    if len(raw) < 12 or raw[:4] != WEIGHT_MAGIC:
        raise FormatError(f"{path}: bad weight-blob header")
    body, crc_stored = raw[:-4], struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(body) != crc_stored:
        raise WeightLoadError(f"{path}: checksum mismatch")
    payload = Payload(body, path, "weight blob", len(WEIGHT_MAGIC))
    blob = WeightBlob()
    for _ in range(payload.unpack("<I")[0]):
        (name_len,) = payload.unpack("<H")
        try:
            name = payload.unpack(f"<{name_len}s")[0].decode()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: malformed weight blob: {e}") from None
        (rank,) = payload.unpack("<B")
        dims = payload.unpack(f"<{rank}I")
        blob.tensors[name] = payload.array("<f4", dims, f"tensor {name!r}").astype(float)
    payload.end()
    return blob
