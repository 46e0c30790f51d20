"""Per-layer per-head vision-token KV-cache pruning, at desk scale.

A small numpy decoder with one KV cache store per layer, the two-level
pruning rules, simplified FastV/VTW baselines, efficiency metrics, a binary
trace format with offline replay, and a CLI experiment runner.
"""

from .baselines import FastVConfig, VTWConfig, decide
from .layout import IMAGE, TEXT, MultimodalSequence, Segment, build_sequence
from .metrics import MetricsReport, account, latency_probe
from .model import (DecoderState, HeadKVCache, LayerKVCache, ModelConfig, ModelWeights,
                    decode_step, greedy_generate, init_model, prefill, weight_shapes)
from .pruning import (LayerDecision, PruningConfig, allocate_retention, classify_layer, prune,
                      prune_head_cache, vision_attention_score)
from .tensor_core import argtopk, make_rng, masked_row_softmax, matmul
from .trace import AttentionTrace, read_trace, replay, trace_from_run, write_trace

__version__ = "0.1.0"
