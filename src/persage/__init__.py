"""Per-person age estimators produced by a residual weight generator.

The pieces, bottom to top: ``mathcore`` (affine/batch-norm/ReLU layers with
manual gradients and a finite-difference checker), ``estimator`` (scores,
softmax expectation decoding), ``losses`` (joint cross-entropy + ordinal
hinge), ``metalearner`` (the residual generator mapping identity features to
K x D classifier weights), ``data`` (binary feature files and a synthetic
benchmark with analytic error floors), ``metrics`` (MAE / cumulative score /
sigma-weighted error, weight-space retrieval), ``training`` (Adam loop for
the generator and its global / concatenation baselines, and the checkpoint
files), and ``cli``.
"""

from .data import (
    Dataset,
    FeatureRecord,
    FormatError,
    SynthConfig,
    SynthOracle,
    batches,
    compute_oracle,
    read_features,
    split,
    subset,
    synth_generate,
    write_features,
)
from .estimator import (
    AgeDistribution,
    age_distribution,
    class_scores,
    class_scores_batch,
    expected_ages,
    predict,
)
from .losses import LossConfig, batch_loss, cls_loss, hinge, ord_loss, total_loss
from .mathcore import (
    AffineLayer,
    BatchNormLayer,
    GradCheckReport,
    grad_check,
    init_affine,
    softmax,
)
from .metalearner import (
    Dims,
    MetaLearnerParams,
    generate_class_weight,
    generate_weights,
    generate_weights_batch,
    init_params,
    personal_scores,
    personal_scores_backward,
)
from .metrics import (
    EvalResult,
    RetrievalResult,
    cs,
    cs_curve,
    eps_error,
    eval_result,
    mae,
    retrieve,
    slice_agreement,
    weight_embedding,
    weight_embeddings,
)
from .training import (
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainedModel,
    adam_step,
    evaluate,
    lambda_delta_sweep,
    load_model,
    load_params,
    save_model,
    save_params,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AffineLayer", "AgeDistribution", "BatchNormLayer",
    "CheckpointError", "Dataset", "Dims", "EvalResult", "FeatureRecord",
    "FormatError", "GradCheckReport", "LossConfig", "MetaLearnerParams",
    "RetrievalResult", "SynthConfig", "SynthOracle", "TrainConfig",
    "TrainedModel", "adam_step", "age_distribution", "batch_loss", "batches",
    "class_scores", "class_scores_batch", "cls_loss", "compute_oracle", "cs",
    "cs_curve", "eps_error", "eval_result", "evaluate", "expected_ages",
    "generate_class_weight", "generate_weights", "generate_weights_batch",
    "grad_check", "hinge", "init_affine", "init_params", "lambda_delta_sweep",
    "load_model", "load_params", "mae", "ord_loss", "personal_scores",
    "personal_scores_backward", "predict", "read_features",
    "retrieve", "save_model", "save_params", "slice_agreement", "split",
    "subset", "synth_generate", "total_loss", "train", "weight_embedding",
    "weight_embeddings", "write_features",
]
