"""Desk-scale place-recognition pipeline: frozen transformer backbone,
low-rank parallel adapters, decoder aggregator, and retrieval evaluation,
all on a minimal f64 autodiff core."""

from .adapters import LoPAConfig, build_adapters, lopa_forward, memory_report
from .aggregator import AggregatorConfig, Aggregator, aggregate, build_aggregator
from .attention import MHAParams, init_mha, mha
from .autodiff import Param, Tape, Tensor, frozen_region
from .backbone import ViTConfig, build_backbone, forward_collect, patch_embed
from .config import (
    RunConfig,
    TrainConfig,
    load_run_config,
    load_synth_config,
    run_config_from_dict,
)
from .errors import (
    ContractError,
    DegenerateInputError,
    FormatError,
    FrozenRegionError,
    NumericalError,
    PlacerecError,
    ShapeError,
    TapeReuseError,
    ValidationError,
)
from .gradcheck import GradCheckReport, grad_check
from .loss import LossConfig, MiningResult, mine_pairs, ms_loss, similarity_matrix
from .model import (
    DescriptorModel,
    build_model,
    load_model,
    pipeline_gradcheck,
    save_model,
)
from .retrieval import (
    DescriptorIndex,
    EvalResult,
    build_index,
    evaluate_files,
    evaluate_model,
    extract_descriptors,
    knn,
    recall_at_n,
)
from .synth import BatchSampler, Manifest, Perturbation, SynthConfig, generate, read_manifest
from .training import Adam, Trainer, lr_at, train_step

__all__ = [
    "Adam",
    "Aggregator",
    "AggregatorConfig",
    "BatchSampler",
    "ContractError",
    "DegenerateInputError",
    "DescriptorIndex",
    "DescriptorModel",
    "EvalResult",
    "FormatError",
    "FrozenRegionError",
    "GradCheckReport",
    "LoPAConfig",
    "LossConfig",
    "MHAParams",
    "Manifest",
    "MiningResult",
    "NumericalError",
    "Param",
    "Perturbation",
    "PlacerecError",
    "RunConfig",
    "ShapeError",
    "SynthConfig",
    "Tape",
    "TapeReuseError",
    "Tensor",
    "TrainConfig",
    "Trainer",
    "ValidationError",
    "ViTConfig",
    "aggregate",
    "build_adapters",
    "build_aggregator",
    "build_backbone",
    "build_index",
    "build_model",
    "evaluate_files",
    "evaluate_model",
    "extract_descriptors",
    "forward_collect",
    "frozen_region",
    "generate",
    "grad_check",
    "init_mha",
    "knn",
    "load_model",
    "load_run_config",
    "load_synth_config",
    "lopa_forward",
    "lr_at",
    "memory_report",
    "mha",
    "mine_pairs",
    "ms_loss",
    "patch_embed",
    "pipeline_gradcheck",
    "read_manifest",
    "recall_at_n",
    "run_config_from_dict",
    "save_model",
    "similarity_matrix",
    "train_step",
]
