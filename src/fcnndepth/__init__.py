"""CPU inference kernels and tooling for fully convolutional depth estimation.

The package provides NHWC tensor kernels built from scratch on numpy, a
single-pass interleaving operation, an up-convolution decoder block in
naive and fast (interleaved, weight-transferred) forms, six
encoder/decoder network presets with shape tracing and weight files,
depth losses with analytic gradients, evaluation metrics, and a CLI for
inference, verification, and benchmarking.
"""

from .interleave import interleave4, interleave4_reference
from .losses import AdaptiveBerHuState, aberhu_step, berhu_loss, mse_rel_loss
from .metrics import MetricsReport, compute_metrics
from .models import (
    EVALUATED_PRESETS,
    PRESETS,
    LayerGraph,
    ModelSpec,
    block_graph,
    build_model,
    infer,
    preset,
    random_weights,
    required_weights,
    shape_trace,
    with_decoder,
)
from .ops import (
    add,
    batchnorm_infer,
    conv2d_padded,
    deconv2d,
    maxpool2,
    relu,
    unpool_zero2,
)
from .tensor import BatchNormParams, ConvKernel, Tensor4
from .upconv import (
    fast_block_macs,
    naive_block_macs,
    split_weights_5x5,
    upconv_block_fast,
    upconv_block_naive,
    verify_equivalence,
)
from .weights_io import (
    WeightContainer,
    WeightFormatError,
    load_weights,
    save_weights,
    split_container,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveBerHuState",
    "BatchNormParams",
    "ConvKernel",
    "LayerGraph",
    "MetricsReport",
    "ModelSpec",
    "EVALUATED_PRESETS",
    "PRESETS",
    "Tensor4",
    "WeightContainer",
    "WeightFormatError",
    "aberhu_step",
    "add",
    "batchnorm_infer",
    "berhu_loss",
    "block_graph",
    "build_model",
    "compute_metrics",
    "conv2d_padded",
    "deconv2d",
    "fast_block_macs",
    "infer",
    "interleave4",
    "interleave4_reference",
    "load_weights",
    "maxpool2",
    "mse_rel_loss",
    "naive_block_macs",
    "preset",
    "random_weights",
    "relu",
    "required_weights",
    "save_weights",
    "shape_trace",
    "split_container",
    "split_weights_5x5",
    "unpool_zero2",
    "upconv_block_fast",
    "upconv_block_naive",
    "verify_equivalence",
    "with_decoder",
]
