"""Decomposed multiscale spatiotemporal network library.

Numeric 5-d tensor kernels with exact backward passes, the three multiscale
block variants and the full architecture built from them, an analytic
parameter/FLOP cost model, optimizers and schedules for clip regression, and
a synthetic-video pipeline for desk-scale runs.
"""

from .blocks import BlockSpec, block_backward, block_forward, build_block
from .complexity import CostReport, count_flops, count_params, emit_cost_table
from .gradsuite import GradCheckReport, grad_check
from .model import (ModelConfig, ModelSpec, build_model, init_params,
                    load_checkpoint, model_forward, save_checkpoint)
from .ops import ConvLayerSpec, MacCounter
from .pipeline import (ClipDataset, FoldPlan, SynthConfig, VideoRecord,
                       aggregate_video_score, bdi_severity_band, clip_label,
                       load_manifest, loso_splits, metric_mae, metric_mse,
                       metric_rmse, quantize_pspi, save_manifest,
                       segment_clips, synth_generate)
from .training import (OptimizerState, Schedule, TrainConfig, TrainHistory,
                       adam_step, lr_at, mae_loss, mse_loss, sgd_step, train)

__version__ = "0.1.0"

__all__ = [
    "BlockSpec", "ClipDataset", "ConvLayerSpec", "CostReport", "FoldPlan",
    "GradCheckReport", "MacCounter", "ModelConfig", "ModelSpec",
    "OptimizerState", "Schedule", "SynthConfig", "TrainConfig", "TrainHistory",
    "VideoRecord", "adam_step", "aggregate_video_score", "bdi_severity_band",
    "block_backward", "block_forward", "build_block", "build_model",
    "clip_label", "count_flops", "count_params", "emit_cost_table",
    "grad_check", "init_params", "load_checkpoint", "load_manifest",
    "loso_splits", "lr_at", "mae_loss", "metric_mae", "metric_mse",
    "metric_rmse", "model_forward", "mse_loss", "quantize_pspi",
    "save_checkpoint", "save_manifest", "segment_clips", "sgd_step",
    "synth_generate", "train",
]
