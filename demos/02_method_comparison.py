"""Compare the pruning methods on one workload.

Same prompt, same weights, four cache policies: no pruning, per-layer
per-head adaptive pruning, FastV (one shallow cut propagated onward) and
VTW (text-only caches from layer K). Prints RR/KV plus the generated
tokens, showing how much each method perturbs greedy decoding.
"""

from plphp import (IMAGE, TEXT, FastVConfig, ModelConfig, PruningConfig, Segment,
                   VTWConfig, account, build_sequence, decide, greedy_generate, init_model,
                   prefill, prune)

cfg = ModelConfig(num_layers=8, num_heads=4, model_dim=16, head_dim=4,
                  vocab_size=64, max_positions=256)
seq = build_sequence([Segment(TEXT, 6), Segment(IMAGE, 60), Segment(TEXT, 4)],
                     seed=3, vocab_size=cfg.vocab_size)
weights = init_model(cfg, seed=3)

methods = {
    "none": None,
    "plphp": PruningConfig(),
    "fastv": FastVConfig(k_layer=3, prune_ratio=0.5),
    "vtw": VTWConfig(k_layer=5),
}

print(f"{'method':>6} {'RR':>7} {'KV':>7}   greedy tokens")
for name, method in methods.items():
    state, report = prefill(weights, cfg, seq, record_trace=True)
    state = prune(state, seq, decide(method, report.attn_last_rows, seq))
    tokens = greedy_generate(weights, cfg, state, start_token=0, steps=12)
    metrics = account(state, seq)
    print(f"{name:>6} {metrics.retention_rate:>7.3f} {metrics.kv_fraction:>7.3f}   {tokens}")
