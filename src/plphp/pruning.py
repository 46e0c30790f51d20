"""Two-level vision-token KV-cache pruning.

Level one scores each decoder layer by how much attention its last prefill
row pays to vision tokens, classifies the layer, and allocates a retention
rate. Level two lets every attention head keep its own top-K vision rows
per image, K set per layer and image, so a layer's heads keep equally many
rows. Text rows are never pruned, and layers 1, 2 and N are exempt.

Every method decides all layers at once through ``baselines.decide(cfg,
rows[N, H, S], seq)``, plphp through ``decide_layers`` here; ``prune``
cuts each layer's cache in one gather, and trace replay counts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import MultimodalSequence, vision_index_union
from .model import DecoderState, HeadKVCache, LayerKVCache
from .tensor_core import argtopk

VISION_ATTENTIVE = "vision-attentive"
VISION_BALANCED = "vision-balanced"
VISION_INDIFFERENT = "vision-indifferent"

__all__ = [
    "VISION_ATTENTIVE", "VISION_BALANCED", "VISION_INDIFFERENT",
    "PruningConfig", "LayerDecision",
    "vision_attention_score", "classify_layer", "allocate_retention",
    "select_retained", "prune_head_cache", "prune_layer", "prune", "decide_layers",
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
        return self.first_pruned_layer, last


@dataclass(eq=False)
class LayerDecision:
    """Outcome of the layer-level decision for one decoder layer.

    ``exempt`` layers keep their full caches; gamma (and, for plphp, the
    class) is still recorded so per-layer attention reports cover the whole
    model. The baselines have no layer classes and leave ``layer_class`` and
    ``retention`` None. ``per_head_retained[h][j]`` is the ascending set of
    absolute positions kept for image j by head h (for plphp, row h of
    image j's ``(H, K)`` selection).
    """

    layer: int
    gamma: float
    layer_class: str | None
    exempt: bool
    retention: float | None = None
    per_head_retained: list[list[np.ndarray]] | None = None

    def head_kept_vision(self, head: int) -> int:
        if self.per_head_retained is None:
            return 0
        return sum(len(s) for s in self.per_head_retained[head])



def vision_attention_score(attn_last_rows: list[np.ndarray] | np.ndarray,
                           vision_union: np.ndarray) -> float | np.ndarray:
    """Head-averaged attention mass on vision positions, in [0, 1].

    ``attn_last_rows`` holds the last attention row of each head (softmax
    output over the full sequence), ``(H, S)`` for one layer or ``(L, H, S)``
    for L layers; the result is a float or one gamma per layer. The heads
    are added in turn and divided by H, as ``np.mean`` does, and the vision
    columns are gathered C-ordered, so each layer's row sum is numpy's
    pairwise sum over its own vision mass: the same bits for every L.
    """
    rows = np.asarray(attn_last_rows, dtype=np.float64)
    if rows.ndim not in (2, 3):
        raise ValueError(f"expected (H, S) or (L, H, S) rows, got {rows.ndim}-D")
    vision_union = np.asarray(vision_union, dtype=np.int64)
    if vision_union.size == 0:
        return 0.0 if rows.ndim == 2 else np.zeros(rows.shape[0])
    if vision_union.max() >= rows.shape[-1] or vision_union.min() < 0:
        raise ValueError("vision index out of range for attention rows")
    means = rows.sum(axis=-2) / rows.shape[-2]
    # np.take returns C order; means[:, vision] would come back Fortran-ordered,
    # and a row sum over that is not pairwise
    gamma = np.take(means, vision_union, axis=-1).sum(axis=-1)
    return float(gamma) if rows.ndim == 2 else gamma


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


def select_retained(head_row: np.ndarray, image_indices: np.ndarray,
                    retention: float) -> tuple[np.ndarray, int]:
    """Top-K vision positions of one image for one head, or for each row of ``(H, S)``.

    K = floor(retention * image_length), with a minimum of 1 whenever
    retention > 0 so no image vanishes from context entirely. Returns the
    retained absolute positions (ascending, one row per head for 2-D input)
    and K.
    """
    head_row = np.asarray(head_row, dtype=np.float64)
    image_indices = np.asarray(image_indices, dtype=np.int64)
    if image_indices.size == 0:
        raise ValueError("image index set must be nonempty")
    if not 0.0 <= retention <= 1.0:
        raise ValueError(f"retention must be in [0, 1], got {retention}")
    k = int(np.floor(retention * image_indices.size))
    if retention > 0.0:
        k = max(1, k)
    # np.take gathers C-ordered; head_row[..., image_indices] would come back
    # Fortran-ordered for 2-D rows, and argtopk runs slower across rows
    local = argtopk(np.take(head_row, image_indices, axis=-1), k)
    return image_indices[local], k


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


def decide_layers(attn_last_rows: np.ndarray, seq: MultimodalSequence, cfg: PruningConfig,
                  first_layer: int, num_layers: int) -> list[LayerDecision]:
    """Decisions for layers ``first_layer..`` from their ``(L, H, S)`` last attention rows.

    Pure function of the rows, the layout and the config. Gamma takes one
    reduction for all L layers, and each image takes one top-K per
    retention value over the ``(layers * H, image)`` rows of the layers
    allotted it; ``per_head_retained[h][j]`` are row views into that
    selection. Every row stands alone in both, so a layer's decision has the
    same bits whichever layers share the call.
    """
    rows = np.asarray(attn_last_rows, dtype=np.float64)
    if rows.ndim != 3:
        raise ValueError(f"expected (L, H, S) rows, got {rows.ndim}-D")
    gammas = vision_attention_score(rows, vision_index_union(seq))
    first, last = cfg.pruned_range(num_layers)
    decisions = []
    for layer, gamma in enumerate(gammas.tolist(), start=first_layer):
        layer_class = classify_layer(gamma, cfg)
        exempt = not first <= layer <= last
        decisions.append(LayerDecision(
            layer=layer, gamma=gamma, layer_class=layer_class, exempt=exempt,
            retention=None if exempt else allocate_retention(layer_class, cfg)))
    num_heads, s = rows.shape[1:]
    for retention in dict.fromkeys(d.retention for d in decisions if not d.exempt):
        group = [d for d in decisions if d.retention == retention]
        head_rows = rows[[d.layer - first_layer for d in group]].reshape(-1, s)
        kept = []
        for img in seq.image_indices:
            selected, k = select_retained(head_rows, img, retention)
            kept.append(selected.reshape(len(group), num_heads, k))
        for g, decision in enumerate(group):
            decision.per_head_retained = [[k[g, h] for k in kept] for h in range(num_heads)]
    return decisions


def decide_layer(attn_last_rows: list[np.ndarray] | np.ndarray, seq: MultimodalSequence,
                 cfg: PruningConfig, layer: int, num_layers: int) -> LayerDecision:
    """Full layer-level decision from one layer's ``(H, S)`` last attention rows.

    ``decide_layers`` for one layer, for ``plphp_hook``: the hook and
    ``decide`` run one code path, so their decisions agree exactly.
    """
    rows = np.asarray(attn_last_rows, dtype=np.float64)[None]
    return decide_layers(rows, seq, cfg, layer, num_layers)[0]


def prune_layer(layer: LayerKVCache, seq: MultimodalSequence,
                decision: LayerDecision) -> LayerKVCache:
    """Cut each head to text plus the vision rows ``decision`` keeps, in one
    gather; heads that would keep unequally many rows raise ``ValueError``."""
    if decision.exempt:
        return layer
    text = seq.text_union
    empty = np.empty(0, dtype=np.int64)
    rows = [prune_head_cache(cache, text, np.concatenate([empty, *decision.per_head_retained[h]]))
            for h, cache in enumerate(layer)]
    if len({len(kept) for kept in rows}) > 1:
        raise ValueError(f"layer {decision.layer}'s heads keep unequally many rows: "
                         f"{[len(kept) for kept in rows]}")
    return layer.take(np.stack(rows))


def prune(state: DecoderState, seq: MultimodalSequence,
          decisions: list[LayerDecision] | None) -> DecoderState:
    """A new state with each layer's cache cut as its decision says (None: none cut).

    The new state shares no cache with ``state``, so decoding either one
    leaves the other as it was.
    """
    if decisions is None:
        return state.clone()
    caches = [layer.clone() if decision.exempt else prune_layer(layer, seq, decision)
              for layer, decision in zip(state.caches, decisions, strict=True)]
    return DecoderState(caches=caches, next_position=state.next_position)


def plphp_hook(layer: int, last_rows: np.ndarray, caches: LayerKVCache,
               seq: MultimodalSequence, cfg: PruningConfig,
               num_layers: int) -> tuple[LayerKVCache, LayerDecision]:
    """plphp at one layer (decide, then prune); kept for perfbench/ until ROADMAP item 4."""
    decision = decide_layer(last_rows, seq, cfg, layer, num_layers)
    return prune_layer(caches, seq, decision), decision


def make_hook(cfg: PruningConfig, num_layers: int):
    """plphp's prefill hook; kept for perfbench/ until ROADMAP item 4."""
    def hook(layer, last_rows, caches, seq):
        return plphp_hook(layer, last_rows, caches, seq, cfg, num_layers)
    return hook
