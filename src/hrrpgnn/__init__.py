"""Graph-network classifier for radar high-resolution range profiles.

A range profile is turned into a fully connected graph whose edge weights
fall off with cell distance, then classified by a small network: two
conv/batchnorm/leaky-relu blocks, one graph convolution over the profile's
own adjacency, attention pooling, and a dense softmax head. All numerics
are plain float64 ndarrays with hand-written backward passes.
"""

from .data import (
    Dataset,
    HrrpSample,
    ScattererSpec,
    SynthClassSpec,
    default_three_class_specs,
    load_class_specs,
    load_csv,
    make_benchmark,
    normalize,
    save_class_specs,
    save_csv,
    synth_generate,
    toy_two_class_specs,
)
from .errors import (
    ConfigError,
    DataFormatError,
    HrrpGnnError,
    NumericError,
    ShapeError,
    UsageError,
)
from .gradcheck import (
    check_all_ablations,
    check_layer,
    check_model,
    finite_diff_check,
    layer_suite,
    worst_error,
)
from .layers import (
    AttentionPool,
    BatchNorm1d,
    Conv1d,
    Dense,
    GraphConv,
    LeakyReLU,
    MeanPool,
)
from .model import ABLATION_ORDER, GraphClassifier, ModelConfig
from .trainkit import (
    Adam,
    Metrics,
    TrainConfig,
    ablation_table,
    dataset_loss,
    evaluate,
    run_ablation_suite,
    save_ablation_csv,
    save_epoch_log,
    train,
)

__version__ = "1.0.0"

__all__ = [
    "ABLATION_ORDER",
    "Adam",
    "AttentionPool",
    "BatchNorm1d",
    "ConfigError",
    "Conv1d",
    "DataFormatError",
    "Dataset",
    "Dense",
    "GraphClassifier",
    "GraphConv",
    "HrrpGnnError",
    "HrrpSample",
    "LeakyReLU",
    "MeanPool",
    "Metrics",
    "ModelConfig",
    "NumericError",
    "ScattererSpec",
    "ShapeError",
    "SynthClassSpec",
    "TrainConfig",
    "UsageError",
    "ablation_table",
    "check_all_ablations",
    "check_layer",
    "check_model",
    "dataset_loss",
    "default_three_class_specs",
    "evaluate",
    "finite_diff_check",
    "layer_suite",
    "load_class_specs",
    "load_csv",
    "make_benchmark",
    "normalize",
    "run_ablation_suite",
    "save_ablation_csv",
    "save_class_specs",
    "save_csv",
    "save_epoch_log",
    "synth_generate",
    "toy_two_class_specs",
    "train",
    "worst_error",
]
