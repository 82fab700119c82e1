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

from .core import FeatureMap, PixelBox, ValidationError, resize_nearest
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


def _taps(x: np.ndarray, layer: LayerSpec, index: int, fill: float) -> list[np.ndarray]:
    """Pad the input, then take one strided view per kernel tap, row-major."""
    c, h, w_in = x.shape
    out_h, out_w = layer.out_len(h), layer.out_len(w_in)
    if out_h < 1 or out_w < 1:
        raise ValidationError(
            f"layer {index} ({layer.kind} k={layer.kernel}): input {h}x{w_in} too small"
        )
    p, s = layer.pad, layer.stride
    xp = np.full((c, h + 2 * p, w_in + 2 * p), fill, dtype=np.float32)
    xp[:, p : p + h, p : p + w_in] = x
    return [
        xp[:, dy : dy + (out_h - 1) * s + 1 : s, dx : dx + (out_w - 1) * s + 1 : s]
        for dy in range(layer.kernel)
        for dx in range(layer.kernel)
    ]


def _conv2d(x: np.ndarray, layer: ConvLayerSpec, w: np.ndarray, b: np.ndarray,
            index: int) -> np.ndarray:
    """Direct convolution: channels summed in order, then taps in row-major
    order, each product and sum rounded to float32. Each tap is copied
    contiguously (same order, 2-3x faster); a one-cell output takes a running
    sum instead, since einsum sums a cell's contiguous channels in SIMD blocks."""
    taps = _taps(x, layer, index, 0.0)
    out = np.zeros((layer.out_channels, *taps[0].shape[1:]), dtype=np.float32)
    for t, view in enumerate(taps):
        dy, dx = divmod(t, layer.kernel)
        if out[0].size == 1:
            out[:, 0, 0] += np.cumsum(w[:, :, dy, dx] * view[:, 0, 0], axis=1)[:, -1]
        else:
            out += np.einsum("oc,chw->ohw", w[:, :, dy, dx], np.ascontiguousarray(view))
    return out + b[:, None, None]


def _maxpool(x: np.ndarray, layer: PoolLayerSpec, index: int) -> np.ndarray:
    taps = _taps(x, layer, index, -np.inf)
    out = np.full(taps[0].shape, -np.inf, dtype=np.float32)
    for view in taps:
        np.maximum(out, view, out=out)
    return out


def forward(net: ToyNet, image: FeatureMap) -> FeatureMap:
    """Full forward pass: conv layers are followed by a rectifier."""
    if image.channels != net.spec.in_channels:
        raise ValidationError(
            f"image has {image.channels} channels, network expects "
            f"{net.spec.in_channels}"
        )
    x = image.values
    for i, (layer, params) in enumerate(zip(net.spec.layers, net.weights)):
        if isinstance(layer, ConvLayerSpec):
            w, b = params
            x = np.maximum(_conv2d(x, layer, w, b, i), 0.0)
        else:
            x = _maxpool(x, layer, i)
    return FeatureMap(x)


def forward_region(
    net: ToyNet, image: FeatureMap, box: PixelBox, warp_side: int
) -> FeatureMap:
    """Crop-and-warp baseline: crop the box, warp it square, run forward."""
    if box.x1 >= image.width or box.y1 >= image.height:
        raise ValidationError(f"box {box} exceeds image {image.height}x{image.width}")
    if warp_side < 1:
        raise ValidationError("warp side must be >= 1")
    crop = image.values[:, box.y0 : box.y1 + 1, box.x0 : box.x1 + 1]
    warped = resize_nearest(crop, warp_side, warp_side)
    return forward(net, FeatureMap(warped))


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
