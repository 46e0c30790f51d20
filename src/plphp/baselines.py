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
``run`` then applies with ``pruning.prune``. It is level one,
``allocate(cfg, rows, seq)``, which fixes each layer's gamma, class,
retention and count of kept vision rows per head, then level two, which
selects those rows. ``replay`` counts ``allocate``'s result alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import MultimodalSequence
from .model import DecoderState
# prune_head_cache stays bound here for perfbench/tracer.py, which rebinds it
# under this module's name; the hooks prune through pruning.prune.
from .pruning import (LayerAllocation, LayerDecision, PruningConfig,  # noqa: F401
                      _floor_share, _head_average, allocate_layers, decide_layers,
                      prune, prune_head_cache, vision_attention_score)
from .tensor_core import argtopk

__all__ = ["FastVConfig", "VTWConfig", "fastv_kept_count", "fastv_surviving_set", "allocate",
           "decide", "check_depth"]


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


def fastv_kept_count(prune_ratio: float, num_vision: int) -> int:
    """FastV's K: the V - floor(prune_ratio * V) vision rows that survive
    (the floor rounded as in ``pruning.retained_count``)."""
    return num_vision - _floor_share(prune_ratio, num_vision)


def fastv_surviving_set(last_rows: np.ndarray, seq: MultimodalSequence,
                        cfg: FastVConfig) -> np.ndarray:
    """Vision positions surviving FastV's one-shot ranking of layer K's
    ``(H, S)`` rows, by the head average gamma also reads."""
    vision = seq.vision_union
    if vision.size == 0:
        return vision
    mean_row = _head_average(np.asarray(last_rows, dtype=np.float64))
    return vision[argtopk(mean_row[vision], fastv_kept_count(cfg.prune_ratio, vision.size))]


_NO_VISION = np.empty(0, dtype=np.int64)


def allocate(cfg: PruningConfig | FastVConfig | VTWConfig | None, rows: np.ndarray,
             seq: MultimodalSequence) -> list[LayerAllocation] | None:
    """Level one of ``decide``: each layer's gamma, class, retention and the
    number of vision rows each head keeps, from ``(N, H, S)`` rows, with no
    row selected. None for no pruning.

    plphp keeps ``retained_count`` rows of each image, FastV
    ``fastv_kept_count`` rows and VTW none, both from layer K on (the
    layers below K are exempt). Gamma takes one reduction for all N layers.
    """
    if cfg is None:
        return None
    rows = np.asarray(rows, dtype=np.float64)
    if isinstance(cfg, PruningConfig):
        return allocate_layers(rows, seq, cfg)
    check_depth(cfg, len(rows))
    kept = fastv_kept_count(cfg.prune_ratio, seq.vision_union.size) \
        if isinstance(cfg, FastVConfig) else 0
    gammas = vision_attention_score(rows, seq.vision_union)
    return [LayerAllocation(layer, gamma, None, None, None if layer < cfg.k_layer else kept)
            for layer, gamma in enumerate(gammas.tolist(), start=1)]


def decide(cfg: PruningConfig | FastVConfig | VTWConfig | None, rows: np.ndarray,
           seq: MultimodalSequence) -> list[LayerDecision] | None:
    """Every layer's decision under method ``cfg`` (None: no pruning) from ``(N, H, S)`` rows.

    Pure function of the rows, the layout and the config: ``allocate``,
    then the rows it counts. FastV ranks ``rows[K - 1]`` once; VTW keeps no
    vision row from layer K on. Every head of a baseline's pruned layer keeps
    the same ascending vision positions, one row broadcast to ``(H, K)``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if isinstance(cfg, PruningConfig):
        return decide_layers(rows, seq, cfg)
    allocations = allocate(cfg, rows, seq)
    if allocations is None:
        return None
    kept = fastv_surviving_set(rows[cfg.k_layer - 1], seq, cfg) \
        if isinstance(cfg, FastVConfig) else _NO_VISION
    per_head = np.broadcast_to(kept, (rows.shape[1], kept.size))
    return [LayerDecision(layer=a.layer, gamma=a.gamma, layer_class=None,
                          per_head_retained=None if a.kept is None else per_head)
            for a in allocations]


def fastv_hook(last_rows: np.ndarray, state: DecoderState, seq: MultimodalSequence,
               cfg: FastVConfig | VTWConfig) -> tuple[DecoderState, list[LayerDecision]]:
    """``decide`` and ``prune`` under ``cfg`` over prefill's ``(N, H, S)`` rows;
    kept for perfbench/ until ROADMAP item 6."""
    decisions = decide(cfg, last_rows, seq)
    return prune(state, seq, decisions), decisions


# VTW's hook is the same adapter, bound under the name perfbench/tracer.py times it by
vtw_hook = fastv_hook


def make_fastv_hook(cfg: FastVConfig, num_layers: int):
    """FastV's prefill hook; kept for perfbench/ until ROADMAP item 6."""
    check_depth(cfg, num_layers)

    def hook(last_rows, state, seq):
        return fastv_hook(last_rows, state, seq, cfg)
    return hook


def make_vtw_hook(cfg: VTWConfig, num_layers: int):
    """VTW's prefill hook; kept for perfbench/ until ROADMAP item 6."""
    check_depth(cfg, num_layers)

    def hook(last_rows, state, seq):
        return vtw_hook(last_rows, state, seq, cfg)
    return hook
