"""Where each poselift layer is looked up, and the per-layer metric names.

Modules import most functions by name (``from .numerics import linear``),
so a function is wrapped in every module that calls it, not where it is
defined.  One span name covers all of a function's lookup sites.
"""

from __future__ import annotations

from poselift import data, frequency, hga, losses, metrics, network, numerics, training

ENCODER_NAMES = {
    "network.spatial_block_forward": "network.ste",
    "network.temporal_block_forward": "network.tte",
    None: "network.encoder_forward",
}


def _frames(args) -> int:
    return len(args[0])


def sites() -> list:
    """(owner, attribute, span name[, count]) for every traced lookup."""
    Tensor, PoseLifter = numerics.Tensor, network.PoseLifter
    return [
        (Tensor, "backward", "numerics.backward"),
        (network, "dropout", "numerics.dropout"),
        (training, "adamw_step", "training.adamw_step"),
        (losses, "total_loss", "losses.total_loss"),
        (losses, "wmpjpe", "losses.wmpjpe"),
        (losses, "tc_loss", "losses.tc_loss"),
        (losses, "mpjve_loss", "losses.mpjve_loss"),
        (losses, "freq_loss", "frequency.freq_loss"),
        (frequency, "freq_loss", "frequency.freq_loss"),
        (network, "scaled_dot_attention", "numerics.scaled_dot_attention"),
        (hga, "scaled_dot_attention", "numerics.scaled_dot_attention"),
        (numerics, "softmax_rows", "numerics.softmax_rows"),
        (hga, "softmax_rows", "numerics.softmax_rows"),
        (network, "encoder_forward", ENCODER_NAMES),
        (network, "spatial_block_forward", "network.spatial_block_forward"),
        (network, "temporal_block_forward", "network.temporal_block_forward"),
        (PoseLifter, "forward", "network.forward"),
        (network, "hga_forward", "hga.hga_forward"),
        (network, "linear", "numerics.linear"),
        (hga, "linear", "numerics.linear"),
        (network, "layer_norm", "numerics.layer_norm"),
        (hga, "layer_norm", "numerics.layer_norm"),
        (hga, "batch_norm", "numerics.batch_norm"),
        (network, "gelu", "numerics.gelu"),
        (hga, "gelu", "numerics.gelu"),
        (network, "embed_input", "network.embed_input"),
        (network, "regression_head", "network.regression_head"),
        (training, "two_stage_forward", "network.two_stage_forward"),
        (network, "two_stage_forward", "network.two_stage_forward"),
        (training, "evaluate", "training.evaluate"),
        (training, "load_dataset", "training.load_dataset"),
        (training, "prepare_pairs", "training.prepare_pairs"),
        (training, "load_checkpoint", "numerics.load_checkpoint"),
        (PoseLifter, "__init__", "network.PoseLifter.init"),
        (training, "evaluate_sequences", "metrics.evaluate_sequences"),
        (metrics, "evaluate_sequences", "metrics.evaluate_sequences"),
        (metrics, "p_mpjpe", "metrics.p_mpjpe", _frames),
        (data, "read_sequence", "data.read_sequence"),
        (data, "project_2d", "data.project_2d"),
        (network, "build_hybrid_adjacency", "skeleton.build_hybrid_adjacency"),
        (training, "load_skeleton", "skeleton.load_skeleton"),
    ]


def layer_names() -> list:
    """Every span name a traced run reports, in table order."""
    names = []
    for site in sites():
        labels = [site[2]] if isinstance(site[2], str) else list(site[2].values())
        names += [n for n in labels if n not in names and n != ENCODER_NAMES[None]]
    return names

