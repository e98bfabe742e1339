"""Forward and backward time of single layers, in float32 and float64.

Timed from outside, backward is one opaque span, so each probe calls one
public layer function on a leaf input of the train-t27 shape and then
``.backward()`` on its output, timing the two halves separately.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from poselift import frequency, hga, losses, network, numerics, skeleton

from workloads import MODEL_SEED

PROBE_LAYERS = ("embed", "hga", "ste", "tte", "head", "loss")
PROBE_DTYPES = ("float32", "float64")


def _layer_calls(model, rng, drop: float) -> dict:
    """Per layer: (input shape, function of the leaf input)."""
    cfg = model.config
    b, t, n, c = 8, cfg.frames, cfg.joints, cfg.embed_dim
    spatial, temporal = model.blocks[0]
    adj = model.hybrid.skeletal
    weights = losses.LossWeights()
    freq_cfg = frequency.FreqLossConfig()
    target = numerics.Tensor(rng.normal(0.0, 0.2, size=(b, t, n, 3)))
    return {
        "embed": ((b, t, n, cfg.channels_in),
                  lambda x: network.embed_input(x, model.w_emb, model.b_emb, model.pe_spatial)),
        "hga": ((b, t, n, c), lambda x: hga.hga_forward(x, spatial.hga1, adj, training=True)),
        "ste": ((b, t, n, c), lambda x: network.encoder_forward(x, spatial.ste, True, rng, drop)),
        "tte": ((b, n, t, c), lambda x: network.encoder_forward(x, temporal.ttes[0], True, rng, drop)),
        "head": ((b, t, n, c), lambda x: network.regression_head(x, model.w_head, model.b_head)),
        "loss": ((b, t, n, 3), lambda x: losses.total_loss(x, target, weights, freq_cfg).total),
    }


def run_probes(frames=27, embed_dim=64, depth=3, repeats=5, seed=0) -> dict:
    """Median forward and backward seconds per layer and dtype."""
    results = {}
    sk = skeleton.human36m_skeleton()
    cfg = network.ModelConfig(frames=frames, channels_in=2, embed_dim=embed_dim, depth=depth)
    for dtype in PROBE_DTYPES:
        with numerics.precision(dtype):
            model = network.PoseLifter(cfg, sk, seed=MODEL_SEED)
            rng = np.random.default_rng(seed)
            calls = _layer_calls(model, rng, cfg.dropout)
            for layer in PROBE_LAYERS:
                shape, fn = calls[layer]
                fwd, bwd = [], []
                for _ in range(repeats):
                    model.zero_grad()
                    leaf = numerics.Tensor(rng.normal(size=shape), requires_grad=True)
                    t0 = time.perf_counter()
                    out = fn(leaf)
                    t1 = time.perf_counter()
                    out.backward()
                    t2 = time.perf_counter()
                    fwd.append(t1 - t0)
                    bwd.append(t2 - t1)
                results[f"probe.{layer}.fwd_s.{dtype}"] = statistics.median(fwd)
                results[f"probe.{layer}.bwd_s.{dtype}"] = statistics.median(bwd)
    return results
