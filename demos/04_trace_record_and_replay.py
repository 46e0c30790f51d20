"""Record an attention trace, inspect its bytes, replay it offline.

The trace stores only the last attention row of each (layer, head) — the
single row every pruning method reads — so decisions can be recomputed
without rerunning the model, and the file round-trips bit-exactly.
"""

import tempfile
from pathlib import Path

from plphp import (IMAGE, TEXT, ModelConfig, PruningConfig, Segment, account,
                   build_sequence, decide, init_model, prefill, prune)
from plphp.trace import read_trace, replay, trace_from_run, write_trace

cfg = ModelConfig(num_layers=6, num_heads=2, model_dim=8, head_dim=4,
                  vocab_size=64, max_positions=128)
seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, 20), Segment(TEXT, 4)],
                     seed=11, vocab_size=cfg.vocab_size)
pruning = PruningConfig()
weights = init_model(cfg, seed=11)
state, report = prefill(weights, cfg, seq, record_trace=True)
live_decisions = decide(pruning, report.attn_last_rows, seq)
state = prune(state, seq, live_decisions)

path = Path(tempfile.mkdtemp()) / "run.plpt"
write_trace(path, trace_from_run(report.attn_last_rows, seq))
header = path.read_bytes()[:44]
print(f"wrote {path.stat().st_size} bytes; header hex: {header.hex(' ')}\n")

decisions, offline = replay(read_trace(path), pruning)
live = account(state, seq)
print(f"{'':>8} {'RR':>8} {'KV':>8}")
print(f"{'live':>8} {live.retention_rate:>8.4f} {live.kv_fraction:>8.4f}")
print(f"{'replay':>8} {offline.retention_rate:>8.4f} {offline.kv_fraction:>8.4f}")

match = all(
    a.gamma == b.gamma and a.layer_class == b.layer_class
    for a, b in zip(live_decisions, decisions)
)
print(f"\nper-layer decisions identical: {match}")
