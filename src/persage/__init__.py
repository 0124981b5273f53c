"""Per-person age estimators produced by a residual weight generator.

The pieces, bottom to top: ``mathcore`` (affine/batch-norm/ReLU layers with
manual gradients and a finite-difference checker), ``estimator`` (batched
class scores, expectation decoding), ``losses`` (the batched joint
cross-entropy + ordinal hinge loss), ``metalearner`` (the residual generator
mapping identity features to K x D classifier weights, and the score head
that uses them), ``data`` (binary feature files and a synthetic benchmark
with analytic error floors), ``metrics`` (MAE / cumulative score /
sigma-weighted error, weight-space retrieval), ``training`` (every model's
block layout with each block's init rule, the Adam loop for the generator
and its global / concatenation baselines, batched eval-mode prediction, and
the checkpoint files), and ``cli``.
"""

from .data import (
    Dataset,
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
from .estimator import class_scores_batch, expected_ages
from .losses import LossConfig, batch_loss, ord_loss
from .mathcore import (
    AffineLayer,
    BatchNormLayer,
    GradCheckReport,
    grad_check,
    softmax,
)
from .metalearner import (
    Dims,
    MetaLearnerParams,
    generate_weights,
    generate_weights_batch,
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
    init_model,
    init_params,
    lambda_delta_sweep,
    load_model,
    load_params,
    model_predict,
    save_model,
    save_params,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AffineLayer", "BatchNormLayer", "CheckpointError",
    "Dataset", "Dims", "EvalResult", "FormatError", "GradCheckReport",
    "LossConfig", "MetaLearnerParams", "RetrievalResult", "SynthConfig",
    "SynthOracle", "TrainConfig", "TrainedModel", "adam_step", "batch_loss",
    "batches", "class_scores_batch", "compute_oracle", "cs", "cs_curve",
    "eps_error", "eval_result", "evaluate", "expected_ages",
    "generate_weights", "generate_weights_batch", "grad_check",
    "init_model", "init_params", "lambda_delta_sweep", "load_model",
    "load_params", "mae", "model_predict", "ord_loss", "personal_scores",
    "personal_scores_backward", "read_features", "retrieve", "save_model",
    "save_params", "slice_agreement", "split", "subset", "synth_generate",
    "train", "weight_embedding", "weight_embeddings", "write_features",
]
