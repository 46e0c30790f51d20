"""Sweep the base retention rate and watch the cache-size fraction move.

Classification depends only on the attention pattern and the thresholds,
never on r, so KV is monotone non-decreasing in r on a fixed workload.
"""

import numpy as np

from plphp import (IMAGE, TEXT, ModelConfig, PruningConfig, Segment, account,
                   build_sequence, decide, init_model, prefill, prune)

cfg = ModelConfig(num_layers=8, num_heads=4, model_dim=16, head_dim=4,
                  vocab_size=64, max_positions=512)
seq = build_sequence([Segment(TEXT, 8), Segment(IMAGE, 92), Segment(TEXT, 4)],
                     seed=1, vocab_size=cfg.vocab_size)
weights = init_model(cfg, seed=1)

# the caches and last rows do not depend on r: one prefill, one pruning per rate
prefilled, report = prefill(weights, cfg, seq, record_trace=True)
print(f"{'r':>5} {'RR':>8} {'KV':>8}")
for r in np.arange(0.1, 0.61, 0.1):
    pruning = PruningConfig(r=round(float(r), 2), delta_r=0.1)
    state = prune(prefilled, seq, decide(pruning, report.attn_last_rows, seq))
    metrics = account(state, seq)
    print(f"{r:>5.1f} {metrics.retention_rate:>8.4f} {metrics.kv_fraction:>8.4f}")
