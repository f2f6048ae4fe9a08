"""CPU inference engine and kernel algebra for large-kernel conv models.

The package is organized around ten modules:

* tensor    — numeric primitives on arrays; checked_array (boundary), ConvLayer, BnParams
* reparam   — dilated-kernel expansion, BN folding, multi-branch merging
* blocks    — SE, FFN+GRN, LarK/SmaK blocks, downsampling
* model     — named architecture instances, forward, deploy merge, param audit
* modality  — time-series / audio / point-cloud / video embedding maps
* container — the URLKWT01 weight container: save/load models and tensors
* dataio    — raw arrays with a JSON sidecar, and time-series CSV
* verify    — block, model and ad-hoc merge checks and the relative-error metric
* errors    — the UrlkError hierarchy every module raises
* cli       — the `urlk` command-line harness
"""

from .errors import (
    ConfigError,
    FormatError,
    GeometryError,
    ShapeError,
    StateError,
    UrlkError,
)
from .tensor import (
    BnParams,
    ConvLayer,
    batchnorm_infer,
    conv2d,
    conv_output_size,
    gelu,
    grn,
    linear,
)
from .reparam import (
    dilate_kernel,
    equivalent_kernel_size,
    fuse_bn,
    merge_dilated_reparam,
    reparam_forward,
    stock_branches,
)
from .blocks import (
    BlockSpec,
    FfnBlock,
    SeBlock,
    block_forward,
    downsample_forward,
    ffn_forward,
    merge_block,
    se_forward,
)
from .model import (
    ArchConfig,
    INSTANCE_NAMES,
    ModelInstance,
    REFERENCE_PARAMS_M,
    arch_config,
    build_model,
    build_named,
    forward,
    forward_stages,
    merge_for_deploy,
    model_astype,
    param_breakdown,
    param_count,
)
from .modality import (
    embed_audio,
    embed_pointcloud,
    embed_time_series,
    embed_video,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
