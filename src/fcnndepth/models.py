"""Declarative construction and execution of the evaluated depth networks.

A model is described by a ModelSpec (encoder kind, decoder kind, skip
wiring, input resolution, optional channel-width divisor) and compiled by
build_model into a flat LayerGraph: an ordered list of primitive layers,
each with named inputs and a precomputed output shape. Weights live in a
separate name-keyed container so the same graph can run with any parameter
set; infer executes the graph layer by layer with the kernels from ops and
interleave.

Each layer kind is defined once, as a row of the OPS table: its shape rule
(used by the builder), run function (infer), weight kind (required_weights,
random_weights, infer) and multiply-accumulate count (graph_macs).
Convolutions carry explicit (top, bottom, left, right) padding and a nearest
upsampling factor per axis, so no layer builds an upsampled copy. Each decoder
block is defined once too, in _decoder_block: build_model stacks it, and
block_graph emits one on its own, the graph behind the up-convolution block
API, its naive/fast check and the block benchmark.

Encoders are residual bottleneck stacks (7x7/2 stem + 2x2 max pool, then
stacks of 1x1-3x3-1x1 blocks with expansion 4). The full encoder has four
stacks with block counts 3/4/6/3 and reduces 640x480 input to a
15x20x2048 bottleneck; the lite variant drops the last stack, giving
30x40x1024. Decoders run one 2x stage per encoder 2x stage (five for the
full encoder, four for lite) and emit a single-channel map at input
resolution.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .interleave import interleave4
from .tensor import BatchNormParams, ConvKernel, Tensor4
from .weights_io import WeightContainer

ENCODERS = ("basic", "lite_basic")
DECODERS = ("deconv", "upsampling_nonbt", "upconv_naive", "upconv_fast")
SKIP_MODES = ("none", "full", "outer_middle")

STEM_WIDTH = 64
STACK_MIDS = (64, 128, 256, 512)
STACK_BLOCKS = (3, 4, 6, 3)
EXPANSION = 4

# The six evaluated architectures. The up-convolution entries default to the
# naive decoder; the "-fast" aliases select the interleaved inference path of
# the same architecture.
PRESETS = {
    "basic-deconv": ("basic", "deconv", "none"),
    "basic-sc-deconv": ("basic", "deconv", "full"),
    "basic-sc-nonbt": ("basic", "upsampling_nonbt", "full"),
    "lite-sc-nonbt": ("lite_basic", "upsampling_nonbt", "full"),
    "basic-sc-upconv": ("basic", "upconv_naive", "outer_middle"),
    "basic-sc-upconv-fast": ("basic", "upconv_fast", "outer_middle"),
    "lite-upconv": ("lite_basic", "upconv_naive", "none"),
    "lite-upconv-fast": ("lite_basic", "upconv_fast", "none"),
}
EVALUATED_PRESETS = tuple(name for name, (_, dec, _) in PRESETS.items() if dec != "upconv_fast")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one encoder/decoder network."""

    encoder: str
    decoder: str
    skips: str
    input_h: int = 480
    input_w: int = 640
    width_div: int = 1

    def __post_init__(self):
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}; expected one of {ENCODERS}")
        if self.decoder not in DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}; expected one of {DECODERS}")
        if self.skips not in SKIP_MODES:
            raise ValueError(f"unknown skip mode {self.skips!r}; expected one of {SKIP_MODES}")
        for name, size in (("input_h", self.input_h), ("input_w", self.input_w)):
            if size < 32 or size % 16:
                raise ValueError(
                    f"{name} must be >= 32 and divisible by 16, got {size}"
                )
        if self.width_div < 1 or STEM_WIDTH % self.width_div:
            raise ValueError(
                f"width_div must divide {STEM_WIDTH}, got {self.width_div}"
            )


def preset(name: str, *, input_h: int = 480, input_w: int = 640, width_div: int = 1) -> ModelSpec:
    """Build the ModelSpec for a named preset at the given resolution/width."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    encoder, decoder, skips = PRESETS[name]
    return ModelSpec(encoder, decoder, skips, input_h, input_w, width_div)


@dataclass(frozen=True)
class Layer:
    """One primitive step of a LayerGraph."""

    name: str
    kind: str
    inputs: tuple[str, ...]
    out_shape: tuple[int, int, int, int]
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LayerGraph:
    """Ordered, shape-annotated layer list; its one input is named "image"."""

    input_shape: tuple[int, int, int, int]
    layers: tuple[Layer, ...]
    output: str
    bottleneck: str


def shape_trace(graph: LayerGraph) -> list[tuple[str, tuple[int, int, int, int]]]:
    """Per-layer output shapes, computed at build time without any arithmetic."""
    return [(layer.name, layer.out_shape) for layer in graph.layers]


def _same_shape(shapes, a):
    return shapes[0]


def _conv_shape(shapes, a):
    n, h, w, _ = shapes[0]
    (pt, pb, pl, pr), (uh, uw) = a["pads"], a["up"]
    return (n, (uh * h + pt + pb - a["kh"]) // a["stride"] + 1,
            (uw * w + pl + pr - a["kw"]) // a["stride"] + 1, a["cout"])


def _deconv_shape(shapes, a):
    n, h, w, _ = shapes[0]
    return (n, h * a["stride"], w * a["stride"], a["cout"])


def _pool_shape(shapes, a):
    n, h, w, c = shapes[0]
    return (n, h // 2, w // 2, c)


def _up2_shape(shapes, a):
    n, h, w, c = shapes[0]
    return (n, 2 * h, 2 * w, c)


def _crop_shape(shapes, a):
    n, _, _, c = shapes[0]
    return (n, a["target_h"], a["target_w"], c)


def _conv_macs(layer: Layer) -> int:
    _, oh, ow, cout = layer.out_shape
    return oh * ow * cout * math.prod(_kernel_shape(layer.attrs)[:3])


@dataclass(frozen=True)
class Op:
    """Everything the package knows about one layer kind.

    `shape` is a formula from the input shapes and the layer attributes to
    the output shape, and checks nothing. `run` maps the layer attributes,
    the input tensors and the weight entry to the output; the op checks its
    operands there, and infer names the layer whose op rejects them.
    `weight` is the entry the layer needs: "conv" (a ConvKernel),
    "batchnorm" (BatchNormParams) or None. `macs` counts one image's
    multiply-accumulates. An `in_place` kind's run also takes `out`, an
    array to write its output into (infer passes a dead first input's).
    """

    shape: Callable[[list[tuple[int, int, int, int]], dict], tuple[int, int, int, int]]
    run: Callable[..., Tensor4]
    weight: str | None = None
    macs: Callable[[Layer], int] = lambda layer: 0
    in_place: bool = False


# The run functions look up `ops.<kernel>` and `interleave4` when called, so
# that a wrapper installed on those module attributes sees every call.
OPS: dict[str, Op] = {
    # a conv reading its input upsampled by (uh, uw) runs its taps' GEMMs on
    # the input itself, uh * uw fewer MACs than its output shape suggests.
    # These are nominal MACs: a nonbt conv13 with up to 32 output channels
    # repeats each tap's GEMM in both column phases and executes 2x them
    # (see ops._conv_taps)
    "conv": Op(_conv_shape,
               lambda a, xs, w: ops.conv2d_padded(xs[0], w, a["stride"], a["pads"], a["up"]),
               "conv", lambda layer: _conv_macs(layer) // math.prod(layer.attrs["up"])),
    # each input pixel meets every kh*kw*cin*cout weight once, stride**2 fewer
    # MACs than a conv with the same output shape; ops.deconv2d's one
    # zero-inserted _conv_taps call executes exactly this many
    "deconv": Op(_deconv_shape, lambda a, xs, w: ops.deconv2d(xs[0], w, a["stride"]),
                 "conv", lambda layer: _conv_macs(layer) // layer.attrs["stride"] ** 2),
    "bn": Op(_same_shape, lambda a, xs, w, out=None: ops.batchnorm_infer(xs[0], w, out),
             "batchnorm", in_place=True),
    "relu": Op(_same_shape, lambda a, xs, w, out=None: ops.relu(xs[0], out), in_place=True),
    "maxpool2": Op(_pool_shape, lambda a, xs, w: ops.maxpool2(xs[0])),
    "unpool_zero2": Op(_up2_shape, lambda a, xs, w: ops.unpool_zero2(xs[0])),
    "add": Op(_same_shape, lambda a, xs, w, out=None: ops.add(xs[0], xs[1], out), in_place=True),
    "interleave4": Op(_up2_shape, lambda a, xs, w: interleave4(*xs)),
    "crop": Op(_crop_shape,
               lambda a, xs, w: Tensor4(xs[0].data[:, : a["target_h"], : a["target_w"]].copy())),
}


class _Builder:
    """Accumulates layers while tracking output shapes and name uniqueness."""

    def __init__(self, input_shape: tuple[int, int, int, int]):
        self.input_shape = input_shape
        self.layers: list[Layer] = []
        self.shapes: dict[str, tuple[int, int, int, int]] = {"image": input_shape}

    def shape(self, name: str) -> tuple[int, int, int, int]:
        return self.shapes[name]

    def add(self, kind: str, name: str, inputs: tuple[str, ...], **attrs) -> str:
        if name in self.shapes:
            raise ValueError(f"duplicate layer name {name!r}")
        for src in inputs:
            if src not in self.shapes:
                raise ValueError(f"layer {name!r} references unknown input {src!r}")
        out_shape = OPS[kind].shape([self.shapes[s] for s in inputs], attrs)
        self.layers.append(Layer(name, kind, tuple(inputs), out_shape, attrs))
        self.shapes[name] = out_shape
        return name


def _conv(b: _Builder, name: str, src: str, kh: int, kw: int, cout: int, stride: int = 1,
          pads: tuple[int, int, int, int] | None = None, up: tuple[int, int] = (1, 1)) -> str:
    """A conv of `src` nearest-upsampled by `up`, with explicit (top, bottom,
    left, right) pads on that grid; "same" padding when None."""
    _, h, w, cin = b.shape(src)
    if pads is None:
        pads = ops.same_pads(up[0] * h, kh, stride) + ops.same_pads(up[1] * w, kw, stride)
    return b.add("conv", name, (src,), kh=kh, kw=kw, cin=cin, cout=cout,
                 stride=stride, pads=pads, up=up)


def _residual_block(b: _Builder, prefix: str, src: str, mid: int, cout: int, stride: int) -> str:
    cin = b.shape(src)[3]
    x = _conv(b, f"{prefix}.conv1", src, 1, 1, mid)
    x = b.add("bn", f"{prefix}.bn1", (x,))
    x = b.add("relu", f"{prefix}.relu1", (x,))
    x = _conv(b, f"{prefix}.conv2", x, 3, 3, mid, stride=stride)
    x = b.add("bn", f"{prefix}.bn2", (x,))
    x = b.add("relu", f"{prefix}.relu2", (x,))
    x = _conv(b, f"{prefix}.conv3", x, 1, 1, cout)
    x = b.add("bn", f"{prefix}.bn3", (x,))
    shortcut = src
    if stride != 1 or cin != cout:
        shortcut = _conv(b, f"{prefix}.proj", src, 1, 1, cout, stride=stride)
        shortcut = b.add("bn", f"{prefix}.projbn", (shortcut,))
    x = b.add("add", f"{prefix}.add", (x, shortcut))
    return b.add("relu", f"{prefix}.relu", (x,))


def _merge_skip(b: _Builder, tag: str, src: str, target: str) -> str:
    """Project an encoder feature onto a decoder output and add them.

    The projection is a 1x1 convolution that reads the feature
    nearest-upsampled to the decoder's size, running its GEMM at the
    feature's own size; it is there only when the channel counts differ,
    which in every ModelSpec is whenever the sizes do.
    """
    (_, th, tw, tc), (_, h, w, c) = b.shape(target), b.shape(src)
    x = src if c == tc else _conv(b, f"skip.{tag}.proj", src, 1, 1, tc, up=(th // h, tw // w))
    return b.add("add", f"skip.{tag}.add", (target, x))


def _decoder_block(b: _Builder, decoder: str, prefix: str, x: str, cout: int) -> str:
    """One 2x decoder block of the given kind on `x`, with `cout` output channels."""
    if decoder == "upsampling_nonbt":
        # nearest 2x upsampling, then a 3x1 and a 1x3 conv: the 3x1 conv and
        # its relu act per column, so conv31 reads only the rows upsampled
        # and conv13 the columns, and no conv runs on a 2x2-replicated grid
        x = _conv(b, f"{prefix}.conv31", x, 3, 1, cout, up=(2, 1))
        x = b.add("relu", f"{prefix}.relu31", (x,))
        x = _conv(b, f"{prefix}.conv13", x, 1, 3, cout, up=(1, 2))
        return b.add("relu", f"{prefix}.relu13", (x,))
    if decoder == "deconv":
        x = b.add("deconv", f"{prefix}.deconv", (x,),
                  kh=5, kw=5, cin=b.shape(x)[3], cout=cout, stride=2)
    elif decoder == "upconv_naive":
        x = b.add("unpool_zero2", f"{prefix}.unpool", (x,))
        x = _conv(b, f"{prefix}.up5x5", x, 5, 5, cout)
    else:  # upconv_fast
        branches = tuple(
            _conv(b, f"{prefix}.{k}", x, kh, kw, cout, pads=pads)
            for k, (_, _, (kh, kw), pads) in ops.BRANCHES.items()
        )
        x = b.add("interleave4", f"{prefix}.ilv", branches)
    x = b.add("bn", f"{prefix}.bn", (x,))
    return b.add("relu", f"{prefix}.relu", (x,))


def build_model(spec: ModelSpec) -> LayerGraph:
    """Compile a ModelSpec into an executable, shape-annotated LayerGraph."""
    b = _Builder((1, spec.input_h, spec.input_w, 3))
    div = spec.width_div

    x = _conv(b, "enc.stem.conv", "image", 7, 7, STEM_WIDTH // div, stride=2)
    x = b.add("bn", "enc.stem.bn", (x,))
    stem = x = b.add("relu", "enc.stem.relu", (x,))
    x = b.add("maxpool2", "enc.pool", (x,))

    n_stacks = 4 if spec.encoder == "basic" else 3
    stack_outs: list[str] = []
    for si in range(n_stacks):
        mid = STACK_MIDS[si] // div
        cout = mid * EXPANSION
        for bi in range(STACK_BLOCKS[si]):
            stride = 2 if (si > 0 and bi == 0) else 1
            x = _residual_block(b, f"enc.s{si + 1}.b{bi + 1}", x, mid, cout, stride)
        stack_outs.append(x)
    bottleneck = x

    # Decoder stage targets mirror the encoder resolution ladder back up to
    # the input; a trailing crop fixes stages where the encoder used ceil
    # rounding (input sizes divisible by 16 but not 32).
    targets = [b.shape(s)[1:3] for s in stack_outs[-2::-1]]
    targets += [b.shape(stem)[1:3], (spec.input_h, spec.input_w)]
    n_blocks = len(targets)

    # Skip edges: block index -> encoder source layer. Block j's target is
    # the resolution of stack_outs[-1 - j], so "full" pairs them in order.
    skip_map: dict[int, str] = {}
    if spec.skips == "full":
        skip_map = dict(enumerate(stack_outs[-2::-1], start=1))
    elif spec.skips == "outer_middle":
        skip_map[n_blocks] = stack_outs[0]
        skip_map[math.ceil(n_blocks / 2)] = stack_outs[1]

    bott_c = b.shape(bottleneck)[3]
    if spec.decoder == "upsampling_nonbt":
        chans = [bott_c >> i for i in range(1, n_blocks + 1)]
    else:
        chans = [bott_c >> i for i in range(1, n_blocks)] + [1]

    for j, cout in enumerate(chans, start=1):
        p = f"dec.b{j}"
        x = _decoder_block(b, spec.decoder, p, x, cout)
        th, tw = targets[j - 1]
        if b.shape(x)[1:3] != (th, tw):
            x = b.add("crop", f"{p}.crop", (x,), target_h=th, target_w=tw)
        if j in skip_map:
            x = _merge_skip(b, f"b{j}", skip_map[j], x)

    if spec.decoder == "upsampling_nonbt":
        x = _conv(b, "dec.final.conv", x, 5, 5, 1)

    return LayerGraph(b.input_shape, tuple(b.layers), output=x, bottleneck=bottleneck)


def block_graph(decoder: str, h: int, w: int, cin: int, cout: int) -> LayerGraph:
    """One decoder block on a (1, h, w, cin) input, named "dec.b1.*" as in a preset.

    The block is build_model's own (see _decoder_block); the input layer
    "image" doubles as the graph's bottleneck.
    """
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}; expected one of {DECODERS}")
    if min(h, w, cin, cout) < 1:
        raise ValueError(f"block sizes must be >= 1, got h={h}, w={w}, cin={cin}, cout={cout}")
    b = _Builder((1, h, w, cin))
    x = _decoder_block(b, decoder, "dec.b1", "image", cout)
    return LayerGraph(b.input_shape, tuple(b.layers), output=x, bottleneck="image")


def graph_macs(graph: LayerGraph) -> int:
    """Multiply-accumulates of one image through the graph; only conv/deconv count."""
    return sum(OPS[layer.kind].macs(layer) for layer in graph.layers)


def required_weights(graph: LayerGraph) -> dict[str, str]:
    """Map layer name -> weight kind ('conv' or 'batchnorm') for layers that need one."""
    kinds = {layer.name: OPS[layer.kind].weight for layer in graph.layers}
    return {name: kind for name, kind in kinds.items() if kind is not None}


def random_weights(graph: LayerGraph, seed: int = 0, dtype=np.float32):
    """Generate a full weight container for a graph from one seed.

    Convolutions get He-style scaled normals and no bias; batch norms get
    near-identity statistics so activations stay well ranged through deep
    graphs. Kernels are drawn in `dtype` (float32 or float64) and scaled in
    place, so no kernel is ever held at a wider precision. `seed` may also
    be a np.random.Generator: np.random.default_rng returns it unchanged, so
    the draws continue from the caller's generator.
    """
    rng = np.random.default_rng(seed)
    entries: dict[str, ConvKernel | BatchNormParams] = {}
    for layer in graph.layers:
        kind = OPS[layer.kind].weight
        if kind == "conv":
            shape = _kernel_shape(layer.attrs)
            w = rng.standard_normal(shape, dtype=dtype)
            w *= math.sqrt(2.0 / math.prod(shape[:3]))
            entries[layer.name] = ConvKernel(w)
        elif kind == "batchnorm":
            c = layer.out_shape[3]
            entries[layer.name] = BatchNormParams(
                mean=(rng.standard_normal(c) * 0.1).astype(dtype),
                variance=rng.uniform(0.8, 1.25, c).astype(dtype),
                gamma=rng.uniform(0.9, 1.1, c).astype(dtype),
                beta=(rng.standard_normal(c) * 0.1).astype(dtype),
                eps=float(np.float32(1e-5)),
            )
    return WeightContainer(entries)


_WEIGHT_TYPES = {"conv": ConvKernel, "batchnorm": BatchNormParams}


def _kernel_shape(a: dict) -> tuple[int, int, int, int]:
    return (a["kh"], a["kw"], a["cin"], a["cout"])


def _check_weights(graph: LayerGraph, weights) -> np.dtype | None:
    """Check the entries the graph needs, in graph order, and return their one dtype.

    Raises ValueError naming the layer of the first missing entry (with the
    count), else of the first entry of the wrong type, shape, width or dtype.
    """
    needed = required_weights(graph)
    missing = [name for name in needed if name not in weights]
    if missing:
        raise ValueError(f"layer {missing[0]!r}: missing weight entry "
                         f"({len(missing)} missing in total)")
    dtype = None
    for layer in graph.layers:
        if layer.name not in needed:
            continue
        entry, expected = weights[layer.name], _WEIGHT_TYPES[needed[layer.name]]
        if not isinstance(entry, expected):
            problem = f"weight entry is {type(entry).__name__}, layer needs {expected.__name__}"
        elif expected is ConvKernel and entry.weights.shape != _kernel_shape(layer.attrs):
            problem = (f"kernel shape {entry.weights.shape} does not match layer "
                       f"specification {_kernel_shape(layer.attrs)}")
        elif expected is BatchNormParams and entry.channels != layer.out_shape[3]:
            problem = f"batch norm has {entry.channels} channels, layer needs {layer.out_shape[3]}"
        else:
            own = entry.weights.dtype if expected is ConvKernel else entry.mean.dtype
            dtype = own if dtype is None else dtype
            if own == dtype:
                continue
            problem = f"weights mix dtypes [{dtype}, {own}]"
        raise ValueError(f"layer {layer.name!r}: {problem}")
    return dtype


def infer(graph: LayerGraph, weights, image: Tensor4) -> Tensor4:
    """Run the graph on an image batch; a preset's output is the (N, H, W, 1) depth map.

    The wiring (each layer reads only "image" and earlier layers, and the
    output names one of them), the weights (see _check_weights) and the
    image's pixels are checked before the first layer runs, and the image is
    cast once to the weights' dtype, in which the graph computes. A
    mid-graph shape violation, such as an output shape other than the
    layer's `out_shape`, raises ValueError naming it.
    A batch norm, ReLU or add writes into its first input when no later layer
    reads it; infer never writes into the image or the output.
    """
    _, h, w, c = graph.input_shape
    if image.shape[1:] != (h, w, c):
        raise ValueError(f"image shape {image.shape} does not match expected (N, {h}, {w}, {c})")
    made = {"image"}
    for layer in graph.layers:
        if unmade := [s for s in layer.inputs if s not in made]:
            raise ValueError(
                f"layer {layer.name!r}: input {unmade[0]!r} is made by no earlier layer")
        made.add(layer.name)
    if graph.output not in made:
        raise ValueError(f"output {graph.output!r} names no layer")
    dtype = _check_weights(graph, weights)
    if dtype is not None and image.dtype != dtype:
        image = image.astype(dtype)
    if bad := np.count_nonzero(~np.isfinite(image.data)):
        raise ValueError(f"image has {bad} non-finite values")
    # the layer that last reads each activation; image and output outlive all
    last_use = {src: i for i, layer in enumerate(graph.layers) for src in layer.inputs}
    last_use["image"] = last_use[graph.output] = len(graph.layers)
    acts: dict[str, Tensor4] = {"image": image}
    for i, layer in enumerate(graph.layers):
        op, xs = OPS[layer.kind], [acts[s] for s in layer.inputs]
        weight = weights[layer.name] if op.weight else None
        # no run returns a view, so a dead first input's buffer is no live one's
        dead = op.in_place and last_use[layer.inputs[0]] == i
        try:
            out = op.run(layer.attrs, xs, weight, **({"out": xs[0].data} if dead else {}))
        except ValueError as err:
            raise ValueError(f"layer {layer.name!r}: {err}") from None
        if out.shape != (image.n,) + layer.out_shape[1:]:
            raise ValueError(
                f"layer {layer.name!r}: produced shape {out.shape}, "
                f"trace expects {(image.n,) + layer.out_shape[1:]}"
            )
        acts[layer.name] = out
        for src in set(layer.inputs):
            if last_use[src] == i:
                del acts[src]
    return acts[graph.output]


def with_decoder(spec: ModelSpec, decoder: str) -> ModelSpec:
    """The same architecture with a different decoder runtime path."""
    return replace(spec, decoder=decoder)
