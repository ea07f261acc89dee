"""Desk-scale place-recognition pipeline: frozen transformer backbone,
low-rank parallel adapters, decoder aggregator, and retrieval evaluation,
all on a minimal f64 autodiff core.

Callers import what they use from the submodules. Every submodule but
`cli` is loaded with the package, so tools that patch functions by module
attribute (`perfbench/spans.py`) find each one on it.
"""

from . import adapters, aggregator, attention, autodiff, backbone, fasteval, loss, ops  # noqa: F401
from . import fileformats, model, retrieval, training  # noqa: F401
from .config import run_config_from_dict  # noqa: F401
from .retrieval import build_index, knn, recall_at_n  # noqa: F401
