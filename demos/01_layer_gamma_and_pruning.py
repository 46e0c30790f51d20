"""Walkthrough: how the layer-level score turns into per-head pruning.

Runs a small synthetic multimodal prompt through the toy decoder with the
default pruning setting and prints, for each layer, the vision attention
score, the layer class, the allocated retention rate, and how many vision
rows each head kept.
"""

import numpy as np

from plphp import (IMAGE, TEXT, ModelConfig, PruningConfig, Segment, account,
                   build_sequence, decide, init_model, prefill, prune)

cfg = ModelConfig(num_layers=8, num_heads=4, model_dim=16, head_dim=4,
                  vocab_size=64, max_positions=256)
seq = build_sequence([Segment(TEXT, 6), Segment(IMAGE, 40), Segment(IMAGE, 30),
                      Segment(TEXT, 4)], seed=7, vocab_size=cfg.vocab_size)
print(f"prompt: {seq.total_length} tokens, "
      f"{seq.vision_union.size} of them vision, 2 images\n")

pruning = PruningConfig()  # (r, dr, alpha, beta) = (0.4, 0.3, 0.25, 0.1)
weights = init_model(cfg, seed=7)
state, report = prefill(weights, cfg, seq, record_trace=True)
decisions = decide(pruning, report.attn_last_rows, seq)
state = prune(state, seq, decisions)

print(f"{'layer':>5} {'gamma':>8} {'class':>18} {'retention':>9}   kept vision rows per head")
for decision in decisions:
    kept = [decision.per_head_retained.shape[1]] * cfg.num_heads \
        if not decision.exempt else ["full"] * cfg.num_heads
    retention = "-" if decision.retention is None else f"{decision.retention:.2f}"
    tag = " (exempt)" if decision.exempt else ""
    print(f"{decision.layer:>5} {decision.gamma:>8.4f} {decision.layer_class:>18} "
          f"{retention:>9}   {kept}{tag}")

metrics = account(state, seq)
print(f"\nvision retention rate RR = {metrics.retention_rate:.4f}")
print(f"kv cache fraction     KV = {metrics.kv_fraction:.4f}")
