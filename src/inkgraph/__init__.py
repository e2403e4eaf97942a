"""inkgraph: stroke-level graph attention networks for online handwritten
mathematical expression recognition.

Pipeline: parse or synthesize ink, normalize and resample strokes, build a
visibility + writing-order graph with fuzzy directional edge features, then
jointly classify symbols (nodes) and spatial relations (edges) with an
edge-weighted graph attention network trained on unpadded sub-expression
chunks. Everything runs on numpy with a small reverse-mode autodiff tape.
"""

from .engine import (Adam, PlateauScheduler, Tape, Tensor, backward,
                     load_checkpoint, save_checkpoint)
from .graphs import (GraphConfig, ModeledGraph, augment_global,
                     build_local_graph, line_of_sight, split_subexpressions)
from .ink import (InkExpression, Stroke, normalize_expression, parse_inkml,
                  parse_lg, resample_stroke)
from .labels import (AlignedLabels, LabelGraph, Vocabulary, align_labels,
                     decode_labels, serialize_lg)
from .metrics import build_report, confusion_histograms, expression_metrics
from .model import ModelConfig, forward, init_parameters
from .synth import compose, generate_synthetic
from .train import TrainConfig, fit

__version__ = "0.1.0"

__all__ = [
    "Adam", "AlignedLabels", "GraphConfig", "InkExpression", "LabelGraph",
    "ModeledGraph", "ModelConfig", "PlateauScheduler", "Stroke", "Tape",
    "Tensor", "TrainConfig", "Vocabulary", "align_labels", "augment_global",
    "backward", "build_local_graph", "build_report", "compose",
    "confusion_histograms", "decode_labels", "expression_metrics", "fit",
    "forward", "generate_synthetic", "init_parameters", "line_of_sight",
    "load_checkpoint", "normalize_expression", "parse_inkml", "parse_lg",
    "resample_stroke", "save_checkpoint", "serialize_lg",
    "split_subexpressions",
]
