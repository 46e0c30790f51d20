"""Two-level vision-token KV-cache pruning.

Level one scores each decoder layer by how much attention its last prefill
row pays to vision tokens, classifies the layer, and allocates a retention
rate. Level two lets every attention head keep its own top-K vision rows
per image, K set per layer and image, so a layer's heads keep equally many
rows. Text rows are never pruned, and layers 1, 2 and N are exempt.

Every method decides all layers at once through ``baselines.decide(cfg,
rows[N, H, S], seq)``, plphp through ``decide_layers`` here; ``prune``
cuts each layer's cache in one gather. Level one alone fixes how many rows
each head keeps, so ``baselines.allocate`` (plphp: ``allocate_layers``)
stops there, and trace replay counts its result without selecting a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .layout import MultimodalSequence
from .model import DecoderState, HeadKVCache, LayerKVCache
from .tensor_core import argtopk

VISION_ATTENTIVE = "vision-attentive"
VISION_BALANCED = "vision-balanced"
VISION_INDIFFERENT = "vision-indifferent"

__all__ = [
    "VISION_ATTENTIVE", "VISION_BALANCED", "VISION_INDIFFERENT",
    "PruningConfig", "LayerAllocation", "LayerDecision",
    "vision_attention_score", "classify_layer", "allocate_retention",
    "retained_count", "prune_head_cache", "prune_layer", "prune",
    "allocate_layers", "decide_layers",
]


@dataclass(frozen=True)
class PruningConfig:
    """Retention-rate and threshold settings.

    Defaults are the method's standard setting (r, dr, alpha, beta) =
    (0.4, 0.3, 0.25, 0.1). Layer indices are 1-based; the pruned range
    defaults to [3, N-1] and both ends are overridable.
    """

    r: float = 0.4
    delta_r: float = 0.3
    alpha: float = 0.25
    beta: float = 0.1
    first_pruned_layer: int = 3
    last_pruned_layer: int | None = None  # None -> N-1, resolved per model

    def __post_init__(self):
        if not 0.0 <= self.beta <= self.alpha <= 1.0:
            raise ValueError(f"need 0 <= beta <= alpha <= 1, got beta={self.beta}, alpha={self.alpha}")
        if not 0.0 <= self.delta_r <= self.r <= 1.0 - self.delta_r:
            raise ValueError(f"need 0 <= delta_r <= r <= 1 - delta_r, got r={self.r}, delta_r={self.delta_r}")
        if self.first_pruned_layer < 1:
            raise ValueError("first_pruned_layer must be >= 1")
        if self.last_pruned_layer is not None and self.last_pruned_layer < self.first_pruned_layer:
            raise ValueError("last_pruned_layer must be >= first_pruned_layer")

    def pruned_range(self, num_layers: int) -> tuple[int, int]:
        last = self.last_pruned_layer if self.last_pruned_layer is not None else num_layers - 1
        if last > num_layers:
            raise ValueError(f"last pruned layer {last} exceeds model depth {num_layers}")
        if self.first_pruned_layer > last:
            raise ValueError(f"first pruned layer {self.first_pruned_layer} lies past the "
                             f"last, {last}, of a {num_layers}-layer model: nothing to prune")
        return self.first_pruned_layer, last


@dataclass(frozen=True, eq=False)
class LayerDecision:
    """Outcome of the layer-level decision for one decoder layer.

    A layer is ``exempt``, and keeps its full cache, exactly when it has no
    ``per_head_retained``; gamma (and, for plphp, the class) is still
    recorded so per-layer attention reports cover the whole model. The
    baselines have no layer classes and leave ``layer_class`` and
    ``retention`` None. A pruned layer's ``per_head_retained`` is one
    ``(H, K)`` int64 array: row h holds the absolute vision positions head h
    keeps, ascending, images in layout order. So a layer's heads keep
    equally many rows: anything else raises ``ValueError`` here.
    """

    layer: int
    gamma: float
    layer_class: str | None
    retention: float | None = None
    per_head_retained: np.ndarray | None = None

    def __post_init__(self):
        kept = self.per_head_retained
        if kept is not None and not (isinstance(kept, np.ndarray) and kept.ndim == 2
                                     and kept.dtype == np.int64):
            raise ValueError(f"layer {self.layer}'s kept rows must be one (H, K) int64 array, "
                             f"so that its heads keep equally many rows")

    @property
    def exempt(self) -> bool:
        return self.per_head_retained is None


class LayerAllocation(NamedTuple):
    """Level one's outcome for one decoder layer, before any row is selected.

    ``kept`` is the number of vision rows each head of the layer keeps,
    every image together, or None for an exempt layer, which keeps its
    whole cache; gamma, class and retention are as in ``LayerDecision``.
    """

    layer: int
    gamma: float
    layer_class: str | None
    retention: float | None
    kept: int | None


def vision_attention_score(attn_last_rows: np.ndarray, vision_union: np.ndarray) -> np.ndarray:
    """Each layer's head-averaged attention mass on vision positions, in [0, 1].

    ``attn_last_rows`` is ``(L, H, S)``, each head's last attention row (softmax
    over the full sequence) in L layers, and the result ``(L,)``. The vision
    columns of ``_head_average`` are gathered C-ordered, so each layer's row
    sum is numpy's pairwise sum over its own vision mass: the same bits for every L.
    """
    rows = np.asarray(attn_last_rows, dtype=np.float64)
    if rows.ndim != 3:
        raise ValueError(f"expected (L, H, S) rows, got {rows.ndim}-D")
    vision_union = np.asarray(vision_union, dtype=np.int64)
    if vision_union.size == 0:
        return np.zeros(rows.shape[0])
    if vision_union.max() >= rows.shape[-1] or vision_union.min() < 0:
        raise ValueError("vision index out of range for attention rows")
    # np.take returns C order; an index [:, vision] would come back Fortran-ordered,
    # and a row sum over that is not pairwise
    return np.take(_head_average(rows), vision_union, axis=-1).sum(axis=-1)


def _head_average(rows: np.ndarray) -> np.ndarray:
    """The mean of ``(..., H, S)`` rows over H heads, read by gamma and FastV: the
    heads added in turn, then divided by H (``np.mean(rows, axis=-2)``'s bits)."""
    return rows.sum(axis=-2) / rows.shape[-2]


def classify_layer(gamma: float, cfg: PruningConfig) -> str:
    """gamma >= alpha -> attentive; gamma < beta -> indifferent; else balanced."""
    if gamma >= cfg.alpha:
        return VISION_ATTENTIVE
    if gamma < cfg.beta:
        return VISION_INDIFFERENT
    return VISION_BALANCED


def allocate_retention(layer_class: str, cfg: PruningConfig) -> float:
    if layer_class == VISION_ATTENTIVE:
        return cfg.r + cfg.delta_r
    if layer_class == VISION_INDIFFERENT:
        return cfg.r - cfg.delta_r
    return cfg.r


def _floor_share(fraction: float, length: int) -> int:
    """floor(fraction * length) by ``retained_count``'s rounding rule."""
    return math.floor(round(fraction * length, 9))


def retained_count(retention: float, image_length: int) -> int:
    """K = floor(retention * image_length), with a minimum of 1 whenever
    retention > 0 so no image vanishes from context entirely.

    The product is rounded to 9 decimals before the floor, because a
    retention of r +- dr carries float error: 0.3 - 0.1 is
    0.19999999999999998, and 10 rows of it must keep 2, not 1. FastV's
    dropped count, floor(prune_ratio * V), floors by the same rule.
    """
    if image_length < 1:
        raise ValueError("image index set must be nonempty")
    if not 0.0 <= retention <= 1.0:
        raise ValueError(f"retention must be in [0, 1], got {retention}")
    k = _floor_share(retention, image_length)
    return max(1, k) if retention > 0.0 else k


def prune_head_cache(cache: HeadKVCache, text_union: np.ndarray,
                     retained_vision: np.ndarray) -> np.ndarray:
    """Indices of exactly the rows at text positions plus the retained vision set."""
    keep = np.union1d(np.asarray(text_union, dtype=np.int64),
                      np.asarray(retained_vision, dtype=np.int64))
    present = np.isin(keep, cache.positions)
    if not present.all():
        missing = keep[~present]
        raise ValueError(f"retained positions {missing.tolist()} not present in cache")
    return np.flatnonzero(np.isin(cache.positions, keep))


def allocate_layers(attn_last_rows: np.ndarray, seq: MultimodalSequence,
                    cfg: PruningConfig) -> list[LayerAllocation]:
    """Level one for all N layers from their ``(N, H, S)`` last attention rows.

    Gamma takes one reduction for all N layers; a layer in the pruned range
    keeps ``retained_count`` rows of each image (``seq.image_spans``).
    """
    gammas = vision_attention_score(attn_last_rows, seq.vision_union).tolist()  # checks (N, H, S)
    first, last = cfg.pruned_range(len(gammas))
    lengths = [hi - lo for lo, hi in seq.image_spans]
    allocations = []
    for layer, gamma in enumerate(gammas, start=1):
        layer_class = classify_layer(gamma, cfg)
        retention = allocate_retention(layer_class, cfg) if first <= layer <= last else None
        kept = None if retention is None else sum(retained_count(retention, n) for n in lengths)
        allocations.append(LayerAllocation(layer, gamma, layer_class, retention, kept))
    return allocations


def decide_layers(attn_last_rows: np.ndarray, seq: MultimodalSequence,
                  cfg: PruningConfig) -> list[LayerDecision]:
    """Decisions for all N layers from their ``(N, H, S)`` last attention rows.

    Pure function of the rows, the layout and the config: level one by
    ``allocate_layers``, then level two. Each image takes one top-K per
    retention value over the ``(layers * H, image)`` rows of the layers
    allotted it: one copy of just the image's columns, K by
    ``retained_count``. There are at most three retention values, so an
    image takes at most three top-K calls whatever the depth: an N=12, H=8
    trace with 3 images makes at most 9 calls, not one per pruned layer and
    image (27). The images' selections are concatenated once per retention
    value, in layout order, into each layer's ``(H, K)``
    ``per_head_retained``. Every row stands alone in both, so a layer's
    decision has the same bits as one selected alone.
    """
    rows = np.asarray(attn_last_rows, dtype=np.float64)
    allocations = allocate_layers(rows, seq, cfg)
    retentions = [a.retention for a in allocations]
    num_heads, spans, kept = rows.shape[1], seq.image_spans, {}
    for retention in dict.fromkeys(r for r in retentions if r is not None):
        group = [i for i, r in enumerate(retentions) if r == retention]
        per_image = [np.empty((len(group), num_heads, 0), dtype=np.int64)]
        for lo, hi in spans:
            k = retained_count(retention, hi - lo)
            local = argtopk(rows[group, :, lo:hi].reshape(-1, hi - lo), k)
            per_image.append((local + lo).reshape(len(group), num_heads, k))
        kept.update(zip(group, np.concatenate(per_image, axis=2)))
    return [LayerDecision(layer=a.layer, gamma=a.gamma, layer_class=a.layer_class,
                          retention=a.retention, per_head_retained=kept.get(i))
            for i, a in enumerate(allocations)]


# plphp_hook decides through this name, which perfbench/tracer.py times; until ROADMAP item 6
decide_layer = decide_layers


def prune_layer(layer: LayerKVCache, seq: MultimodalSequence,
                decision: LayerDecision) -> LayerKVCache:
    """A new layer: each head's text and kept vision rows in one gather (exempt: every row)."""
    if decision.exempt:
        return layer.clone()
    heads = zip(layer, decision.per_head_retained, strict=True)
    return layer.take(np.stack([prune_head_cache(c, seq.text_union, kept) for c, kept in heads]))


def prune(state: DecoderState, seq: MultimodalSequence,
          decisions: list[LayerDecision] | None) -> DecoderState:
    """A new state with each layer's cache cut as its decision says (None: none cut).

    The new state shares no cache with ``state``, so decoding either one
    leaves the other as it was.
    """
    if decisions is None:
        return state.clone()
    caches = [prune_layer(layer, seq, decision)
              for layer, decision in zip(state.caches, decisions, strict=True)]
    return DecoderState(caches=caches, next_position=state.next_position)


def plphp_hook(last_rows: np.ndarray, state: DecoderState, seq: MultimodalSequence,
               cfg: PruningConfig) -> tuple[DecoderState, list[LayerDecision]]:
    """plphp's decisions from prefill's ``(N, H, S)`` rows, and the state they prune;
    kept for perfbench/ until ROADMAP item 6."""
    decisions = decide_layer(last_rows, seq, cfg)
    return prune(state, seq, decisions), decisions


def make_hook(cfg: PruningConfig, num_layers: int):
    """plphp's prefill hook, refused here if ``cfg`` prunes past layer ``num_layers``;
    kept for perfbench/ until ROADMAP item 6."""
    cfg.pruned_range(num_layers)

    def hook(last_rows, state, seq):
        return plphp_hook(last_rows, state, seq, cfg)
    return hook
