"""Small deterministic conv/pool network used as the feature extractor.

Weights are drawn from numpy's PCG64 generator seeded with the spec seed:
for each conv layer, in order, a standard-normal (out, in, k, k) block is
drawn in C order and scaled by sqrt(2 / (in * k * k)); biases are zero.
Same seed, same weights, on every platform.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import FeatureMap, NearestResize, PixelBox, ValidationError, index_map, resize_nearest
from .formats import int_fields, load_json
from .netgeom import LayerSpec, layer_from_json


@dataclass(frozen=True)
class ConvLayerSpec(LayerSpec):
    kind: str = field(default="conv", init=False)
    in_channels: int
    out_channels: int

    def __post_init__(self):
        super().__post_init__()
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValidationError("conv channel counts must be >= 1")


@dataclass(frozen=True)
class PoolLayerSpec(LayerSpec):
    kind: str = field(default="pool", init=False)

    def __post_init__(self):
        super().__post_init__()
        if self.pad >= self.kernel:
            raise ValidationError("pool pad must be smaller than its kernel")


_LAYER_TYPES = {cls.kind: cls for cls in (ConvLayerSpec, PoolLayerSpec)}


@dataclass(frozen=True)
class ToyNetSpec:
    layers: tuple
    seed: int

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValidationError(f"net seed must be >= 0, got {self.seed}")
        channels = None
        for i, layer in enumerate(self.layers):
            if isinstance(layer, ConvLayerSpec):
                if channels is not None and layer.in_channels != channels:
                    raise ValidationError(
                        f"layer {i}: expects {layer.in_channels} input channels "
                        f"but the previous layer produces {channels}"
                    )
                channels = layer.out_channels
        if channels is None:
            raise ValidationError("network needs at least one conv layer")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def in_channels(self) -> int:
        return self._convs()[0].in_channels

    @property
    def out_channels(self) -> int:
        return self._convs()[-1].out_channels

    def _convs(self) -> list[ConvLayerSpec]:
        return [layer for layer in self.layers if isinstance(layer, ConvLayerSpec)]

    def geometry_layers(self) -> list[LayerSpec]:
        return list(self.layers)


@dataclass(frozen=True, eq=False)
class ToyNet:
    spec: ToyNetSpec
    weights: tuple  # (w, b) per conv layer, None per pool layer


def default_spec(in_channels: int = 3, seed: int = 0) -> ToyNetSpec:
    """Three stride-2 conv layers; cumulative stride 8, receptive field 15."""
    chans = (in_channels, 8, 16, 32)
    layers = tuple(
        ConvLayerSpec(3, 2, 1, chans[i], chans[i + 1]) for i in range(3)
    )
    return ToyNetSpec(layers, seed)


def init_toynet(spec: ToyNetSpec) -> ToyNet:
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    weights = []
    for layer in spec.layers:
        if isinstance(layer, ConvLayerSpec):
            fan_in = layer.in_channels * layer.kernel * layer.kernel
            w = rng.standard_normal(
                (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
            ) * np.sqrt(2.0 / fan_in)
            b = np.zeros(layer.out_channels, dtype=np.float32)
            weights.append((w.astype(np.float32), b))
        else:
            weights.append(None)
    return ToyNet(spec, tuple(weights))


def _runs(values: np.ndarray, axis: int) -> np.ndarray:
    """Run id of each row (axis 1) or column (axis 2) of a (C, H, W) float32 map.

    A position joins its predecessor's run when every one of its values has
    the same bits, so -0.0 and +0.0 never merge; ids count up from 0.
    """
    bits = values.view(np.uint32)
    if axis == 1:  # each form keeps numpy's any() off a middle axis, where it is slow
        differs = (bits[:, 1:] != bits[:, :-1]).any(axis=2).any(axis=0)
    else:
        differs = (bits[:, :, 1:] != bits[:, :, :-1]).any(axis=(0, 1))
    return np.concatenate(([0], np.cumsum(differs)))


def _merged(ids: np.ndarray) -> bool:
    return ids[-1] + 1 < len(ids)


def _axis_plan(ids: np.ndarray, layer: LayerSpec) -> tuple[list, np.ndarray]:
    """One axis of a layer over a compact map whose full-size positions have run
    ids `ids`: per kernel tap, the padded compact positions that each output run
    reads, and the run id of every full-size output position.

    Each pad position has an id of its own. An output's receptive field is the
    tuple of ids its taps read; neighbours with equal tuples form one output run,
    and only its first output is computed. An axis with no merged positions reads
    strided slices and merges nothing.
    """
    n, k, s, p = len(ids), layer.kernel, layer.stride, layer.pad
    n_out = layer.out_len(n)
    if not _merged(ids):
        return [slice(d, d + (n_out - 1) * s + 1, s) for d in range(k)], np.arange(n_out)
    n_runs = int(ids[-1]) + 1
    padded = np.concatenate((np.arange(p), ids + p, np.arange(n_runs + p, n_runs + 2 * p)))
    fields = padded[np.arange(n_out)[:, None] * s + np.arange(k)]
    starts = np.concatenate(([True], (fields[1:] != fields[:-1]).any(axis=1)))
    return list(fields[starts].T), np.cumsum(starts) - 1


def _fields(x: np.ndarray, ids: tuple, layer: LayerSpec, index: int, fill: float):
    """Pad the compact map, then read one view or gather per kernel tap, row-major,
    each holding the first output of every output run; also return the output's
    run ids per axis."""
    h, w_in = len(ids[0]), len(ids[1])
    if layer.out_len(h) < 1 or layer.out_len(w_in) < 1:
        raise ValidationError(
            f"layer {index} ({layer.kind} k={layer.kernel}): input {h}x{w_in} too small"
        )
    (rows, out_rows), (cols, out_cols) = (_axis_plan(a, layer) for a in ids)
    c, hc, wc = x.shape
    p = layer.pad
    xp = np.full((c, hc + 2 * p, wc + 2 * p), fill, dtype=np.float32)
    xp[:, p : p + hc, p : p + wc] = x
    taps = (band[:, :, q] for band in (xp[:, r] for r in rows) for q in cols)
    return taps, (out_rows, out_cols)


def _out_shape(channels: int, ids: tuple) -> tuple[int, int, int]:
    return channels, int(ids[0][-1]) + 1, int(ids[1][-1]) + 1


def _conv2d(x: np.ndarray, ids: tuple, layer: ConvLayerSpec, w: np.ndarray,
            b: np.ndarray, index: int) -> tuple[np.ndarray, tuple]:
    """Direct convolution of a compact map: channels summed in order, then taps
    in row-major order, each product and sum rounded to float32. Each tap is
    copied contiguously (same order, 2-3x faster); a one-cell output takes a
    running sum instead, since einsum sums a cell's contiguous channels in SIMD
    blocks. Returns the compact output and its run ids."""
    taps, out_ids = _fields(x, ids, layer, index, 0.0)
    out = np.zeros(_out_shape(layer.out_channels, out_ids), dtype=np.float32)
    for t, view in enumerate(taps):
        dy, dx = divmod(t, layer.kernel)
        if out[0].size == 1:
            out[:, 0, 0] += np.cumsum(w[:, :, dy, dx] * view[:, 0, 0], axis=1)[:, -1]
        else:
            out += np.einsum("oc,chw->ohw", w[:, :, dy, dx], np.ascontiguousarray(view))
    return out + b[:, None, None], out_ids


def _maxpool(x: np.ndarray, ids: tuple, layer: PoolLayerSpec,
             index: int) -> tuple[np.ndarray, tuple]:
    taps, out_ids = _fields(x, ids, layer, index, -np.inf)
    out = np.full(_out_shape(x.shape[0], out_ids), -np.inf, dtype=np.float32)
    for view in taps:
        np.maximum(out, view, out=out)
    return out, out_ids


def forward(net: ToyNet, image: FeatureMap | NearestResize) -> FeatureMap:
    """Full forward pass: conv layers are followed by a rectifier.

    Rows, and separately columns, of the input that repeat their neighbour bit
    for bit (as a nearest upscale makes them) are computed once: each layer works
    on one row and column per run of identical receptive fields, and the last
    layer's map is expanded to full size. Every output element is the same
    float32 sum over the same bits as on the full map, so the bytes are too.

    A `NearestResize` is never built. Its distinct rows and columns are its
    source resized to at most the source's size on each axis, and full-size
    row i repeats row `index_map(that size, height)[i]` of those (columns
    alike), so their run ids, read through that map, are the full map's.
    A `FeatureMap` is the resize to its own size, so it is its own compact map.
    """
    if image.channels != net.spec.in_channels:
        raise ValidationError(
            f"image has {image.channels} channels, network expects "
            f"{net.spec.in_channels}"
        )
    if isinstance(image, FeatureMap):  # its own resize: the map itself, uncopied
        x = image.values
    else:
        src = image.source
        x = resize_nearest(src, min(src.shape[1], image.height), min(src.shape[2], image.width))
    runs = (_runs(x, 1), _runs(x, 2))
    ids = (runs[0][index_map(x.shape[1], image.height)],
           runs[1][index_map(x.shape[2], image.width)])
    x = _per_axis(x, [np.flatnonzero(np.diff(r, prepend=-1)) for r in runs], runs)  # run starts
    for i, (layer, params) in enumerate(zip(net.spec.layers, net.weights)):
        if isinstance(layer, ConvLayerSpec):
            x, ids = _conv2d(x, ids, layer, *params, i)
            x = np.maximum(x, 0.0)
        else:
            x, ids = _maxpool(x, ids, layer, i)
    return FeatureMap(_per_axis(x, ids, ids))


def _per_axis(x: np.ndarray, index: list, ids: tuple) -> np.ndarray:
    """x with its rows and then its columns taken at `index`, skipping an axis
    whose `ids` merged nothing."""
    if _merged(ids[0]):
        x = x[:, index[0]]
    if _merged(ids[1]):
        x = x[:, :, index[1]]
    return x


def forward_region(
    net: ToyNet, image: FeatureMap, box: PixelBox, warp_side: int
) -> FeatureMap:
    """Crop-and-warp baseline: crop the box, warp it square, run forward; the
    warp is read from the crop, never built."""
    if box.x1 >= image.width or box.y1 >= image.height:
        raise ValidationError(f"box {box} exceeds image {image.height}x{image.width}")
    if warp_side < 1:
        raise ValidationError("warp side must be >= 1")
    crop = image.values[:, box.y0 : box.y1 + 1, box.x0 : box.x1 + 1]
    return forward(net, NearestResize(crop, warp_side, warp_side))


def spec_from_json(obj) -> ToyNetSpec:
    """Layer entries are {"kind", ...the layer dataclass's integer fields}."""
    layers = []
    for entry in obj["layers"]:
        cls = _LAYER_TYPES[layer_from_json(entry).kind]
        layers.append(cls(**int_fields(entry, [f.name for f in fields(cls) if f.init])))
    return ToyNetSpec(tuple(layers), int_fields({"seed": 0, **obj}, ["seed"])["seed"])


def spec_to_json(spec: ToyNetSpec) -> dict:
    layers = [asdict(layer) for layer in spec.layers]
    return {"seed": spec.seed, "layers": layers}


def load_spec(path: Path | str) -> ToyNetSpec:
    return load_json(path, spec_from_json)
