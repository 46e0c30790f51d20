"""Simplified FastV and VTW pruning baselines, and ``decide`` for every method.

Both baselines are semantic re-implementations of their one-line behavior,
not ports of the original codebases. FastV ranks vision tokens once at a
shallow layer K by head-averaged last-row attention, drops the bottom R
fraction, and applies the same surviving set to every head from layer K
onward. VTW keeps all vision tokens below layer K and drops every one of
them from layer K on. Neither ever prunes text positions, and their
decisions record each layer's gamma but no class or retention.

``decide(cfg, rows[N, H, S], seq)`` is the one decision path of every
method: a pure function of the last prefill rows of all N layers, which
``run`` then applies with ``pruning.prune`` and ``replay`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import MultimodalSequence
from .model import LayerKVCache
# prune_head_cache stays bound here for perfbench/tracer.py, which rebinds it
# under this module's name; the hooks prune through prune_layer.
from .pruning import (LayerDecision, PruningConfig, _head_average, decide_layers,  # noqa: F401
                      prune_head_cache, prune_layer, vision_attention_score)
from .tensor_core import argtopk

__all__ = ["FastVConfig", "VTWConfig", "fastv_surviving_set", "decide", "check_depth"]


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
    """Vision positions surviving FastV's one-shot ranking of layer K's
    ``(H, S)`` rows, by the head average gamma also reads."""
    vision = seq.vision_union
    if vision.size == 0:
        return vision
    mean_row = _head_average(np.asarray(last_rows, dtype=np.float64))
    keep = vision.size - int(np.floor(cfg.prune_ratio * vision.size))
    return vision[argtopk(mean_row[vision], keep)]


_NO_VISION = np.empty(0, dtype=np.int64)


def _kept_from_k(rows: np.ndarray, seq: MultimodalSequence, k_layer: int, kept: np.ndarray,
                 first_layer: int = 1) -> list[LayerDecision]:
    """Decisions for layers ``first_layer..`` from their ``(L, H, S)`` rows.

    Layers below ``k_layer`` are exempt; from it on every head keeps the
    ascending vision positions ``kept``, one row broadcast to ``(H, K)``.
    Gamma takes one reduction for all L layers.
    """
    gammas = vision_attention_score(rows, seq.vision_union)
    per_head = np.broadcast_to(kept, (rows.shape[1], kept.size))
    return [LayerDecision(layer=layer, gamma=gamma, layer_class=None,
                          per_head_retained=None if layer < k_layer else per_head)
            for layer, gamma in enumerate(gammas.tolist(), start=first_layer)]


def decide(cfg: PruningConfig | FastVConfig | VTWConfig | None, rows: np.ndarray,
           seq: MultimodalSequence) -> list[LayerDecision] | None:
    """Every layer's decision under method ``cfg`` (None: no pruning) from ``(N, H, S)`` rows.

    Pure function of the rows, the layout and the config. FastV ranks
    ``rows[K - 1]`` once; VTW keeps no vision row from layer K on.
    """
    if cfg is None:
        return None
    rows = np.asarray(rows, dtype=np.float64)
    if isinstance(cfg, PruningConfig):
        return decide_layers(rows, seq, cfg, 1, len(rows))
    check_depth(cfg, len(rows))
    kept = fastv_surviving_set(rows[cfg.k_layer - 1], seq, cfg) \
        if isinstance(cfg, FastVConfig) else _NO_VISION
    return _kept_from_k(rows, seq, cfg.k_layer, kept)


def fastv_hook(layer: int, last_rows: np.ndarray, caches: LayerKVCache,
               seq: MultimodalSequence, cfg: FastVConfig,
               surviving: np.ndarray) -> tuple[LayerKVCache, LayerDecision]:
    """FastV at one layer, given the set ranked at layer K; for perfbench/ until ROADMAP item 6."""
    decision = _kept_from_k(np.asarray(last_rows)[None], seq, cfg.k_layer, surviving, layer)[0]
    return prune_layer(caches, seq, decision), decision


def vtw_hook(layer: int, last_rows: np.ndarray, caches: LayerKVCache,
             seq: MultimodalSequence,
             cfg: VTWConfig) -> tuple[LayerKVCache, LayerDecision]:
    """VTW at one layer; kept for perfbench/ until ROADMAP item 6."""
    decision = _kept_from_k(np.asarray(last_rows)[None], seq, cfg.k_layer, _NO_VISION, layer)[0]
    return prune_layer(caches, seq, decision), decision


def make_fastv_hook(cfg: FastVConfig, num_layers: int):
    """FastV's prefill hook; only it holds the layer-K set. For perfbench/ until ROADMAP item 6."""
    check_depth(cfg, num_layers)
    surviving = _NO_VISION  # read only from layer K on

    def hook(layer, last_rows, caches, seq):
        nonlocal surviving
        if layer == cfg.k_layer:
            surviving = fastv_surviving_set(last_rows, seq, cfg)
        return fastv_hook(layer, last_rows, caches, seq, cfg, surviving)

    return hook


def make_vtw_hook(cfg: VTWConfig, num_layers: int):
    """VTW's prefill hook; kept for perfbench/ until ROADMAP item 6."""
    check_depth(cfg, num_layers)

    def hook(layer, last_rows, caches, seq):
        return vtw_hook(layer, last_rows, caches, seq, cfg)

    return hook
