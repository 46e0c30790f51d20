"""Simplified FastV and VTW pruning baselines.

Both are semantic re-implementations of the baselines' one-line behavior,
not ports of the original codebases. FastV ranks vision tokens once at a
shallow layer K by head-averaged last-row attention, drops the bottom R
fraction, and applies the same surviving set to every head from layer K
onward. VTW keeps all vision tokens below layer K and drops every one of
them from layer K on. Neither ever prunes text positions. Each is a rule
(``FastVRule``, ``vtw_decide``) whose decisions record the layer's gamma but
no class or retention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import MultimodalSequence, vision_index_union
from .model import HeadKVCache
# prune_head_cache stays bound here for perfbench/tracer.py, which rebinds it
# under this module's name; the hooks prune through prune_layer.
from .pruning import LayerDecision, prune_head_cache, prune_layer, vision_attention_score  # noqa: F401
from .tensor_core import argtopk

__all__ = ["FastVConfig", "VTWConfig", "FastVRule", "fastv_surviving_set", "vtw_decide",
           "fastv_hook", "vtw_hook", "check_depth", "make_fastv_hook", "make_vtw_hook"]


@dataclass(frozen=True)
class FastVConfig:
    k_layer: int = 3
    prune_ratio: float = 0.5

    def __post_init__(self):
        if self.k_layer < 1:
            raise ValueError("k_layer must be >= 1")
        if not 0.0 <= self.prune_ratio <= 1.0:
            raise ValueError(f"prune_ratio must be in [0, 1], got {self.prune_ratio}")


@dataclass(frozen=True)
class VTWConfig:
    k_layer: int = 4

    def __post_init__(self):
        if self.k_layer < 1:
            raise ValueError("k_layer must be >= 1")


def check_depth(cfg: FastVConfig | VTWConfig, num_layers: int) -> None:
    if cfg.k_layer > num_layers:
        raise ValueError(f"k_layer {cfg.k_layer} exceeds model depth {num_layers}")


def fastv_surviving_set(last_rows: np.ndarray, seq: MultimodalSequence,
                        cfg: FastVConfig) -> np.ndarray:
    """Vision positions surviving FastV's one-shot ranking at layer K."""
    vision = vision_index_union(seq)
    if vision.size == 0:
        return vision
    mean_row = np.mean(np.asarray(last_rows, dtype=np.float64), axis=0)
    keep = vision.size - int(np.floor(cfg.prune_ratio * vision.size))
    local = argtopk(mean_row[vision], keep)
    return vision[local]


def _shared_decision(layer: int, last_rows: np.ndarray, seq: MultimodalSequence,
                     kept: np.ndarray | None) -> LayerDecision:
    """Every head keeps the vision positions ``kept``; None exempts the layer."""
    gamma = vision_attention_score(last_rows, vision_index_union(seq))
    if kept is None:
        return LayerDecision(layer=layer, gamma=gamma, layer_class=None, exempt=True)
    per_image = [kept[np.isin(kept, image)] for image in seq.image_indices]
    return LayerDecision(layer=layer, gamma=gamma, layer_class=None, exempt=False,
                         per_head_retained=[per_image] * len(last_rows))


class FastVRule:
    """FastV's decision rule; ``surviving`` is the set ranked at layer K."""

    def __init__(self, cfg: FastVConfig):
        self.cfg = cfg
        self.surviving: np.ndarray | None = None

    def __call__(self, layer: int, last_rows: np.ndarray,
                 seq: MultimodalSequence) -> LayerDecision:
        k = self.cfg.k_layer
        if layer == k:
            self.surviving = fastv_surviving_set(last_rows, seq, self.cfg)
        elif layer > k and self.surviving is None:
            raise ValueError(f"layer {layer} reached without a surviving set from layer {k}")
        return _shared_decision(layer, last_rows, seq, self.surviving if layer >= k else None)


def vtw_decide(layer: int, last_rows: np.ndarray, seq: MultimodalSequence,
               cfg: VTWConfig) -> LayerDecision:
    """VTW's decision rule: every vision row below layer K, none from K on."""
    kept = None if layer < cfg.k_layer else np.empty(0, dtype=np.int64)
    return _shared_decision(layer, last_rows, seq, kept)


def fastv_hook(layer: int, last_rows: np.ndarray, caches: list[HeadKVCache],
               seq: MultimodalSequence,
               rule: FastVRule) -> tuple[list[HeadKVCache], LayerDecision]:
    """Apply FastV at one layer; ``rule`` carries the surviving set across layers."""
    decision = rule(layer, last_rows, seq)
    return prune_layer(caches, seq, decision), decision


def vtw_hook(layer: int, last_rows: np.ndarray, caches: list[HeadKVCache],
             seq: MultimodalSequence,
             cfg: VTWConfig) -> tuple[list[HeadKVCache], LayerDecision]:
    """Text-only caches from layer K onward; untouched below."""
    decision = vtw_decide(layer, last_rows, seq, cfg)
    return prune_layer(caches, seq, decision), decision


def make_fastv_hook(cfg: FastVConfig, num_layers: int):
    """Adapter with the generic prefill-hook signature; owns the session state."""
    check_depth(cfg, num_layers)
    rule = FastVRule(cfg)

    def hook(layer, last_rows, caches, seq):
        return fastv_hook(layer, last_rows, caches, seq, rule)

    return hook


def make_vtw_hook(cfg: VTWConfig, num_layers: int):
    check_depth(cfg, num_layers)

    def hook(layer, last_rows, caches, seq):
        return vtw_hook(layer, last_rows, caches, seq, cfg)

    return hook
