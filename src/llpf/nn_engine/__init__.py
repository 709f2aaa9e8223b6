"""Minimal numpy training engine: graphs, init, autodiff, SGD, datasets."""

from .engine import Plan, forward, init_params, loss_and_grad, norm_stats
from .graph import GraphError, GraphNode, ModelGraph, build_model, lenet_micro, mlp2, resnet_micro
from .trainer import (
    AugmentSpec,
    Dataset,
    StopRule,
    TrainerConfig,
    TrainResult,
    evaluate,
    fixed_subset,
    norm_rows,
    sample_batch,
    sgd_step,
    train_until,
)

__all__ = [
    "AugmentSpec",
    "Dataset",
    "GraphError",
    "GraphNode",
    "ModelGraph",
    "Plan",
    "StopRule",
    "TrainerConfig",
    "TrainResult",
    "build_model",
    "evaluate",
    "fixed_subset",
    "forward",
    "init_params",
    "lenet_micro",
    "loss_and_grad",
    "mlp2",
    "norm_rows",
    "norm_stats",
    "resnet_micro",
    "sample_batch",
    "sgd_step",
    "train_until",
]
