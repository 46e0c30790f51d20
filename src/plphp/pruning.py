"""Two-level vision-token KV-cache pruning.

Level one scores each decoder layer by how much attention its last prefill
row pays to vision tokens, classifies the layer, and allocates a retention
rate. Level two lets every attention head independently keep its own top-K
vision rows per image and drop the rest from that head's cache. Text rows
are never pruned, and layers 1, 2 and N are exempt.

Every method, the baselines included, is a rule ``(layer, last_rows[H, S],
seq) -> LayerDecision``. A live hook is its rule plus ``prune_layer``; trace
replay runs the same rule and counts what the decisions keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import MultimodalSequence, vision_index_union
from .model import HeadKVCache
from .tensor_core import argtopk

VISION_ATTENTIVE = "vision-attentive"
VISION_BALANCED = "vision-balanced"
VISION_INDIFFERENT = "vision-indifferent"

__all__ = [
    "VISION_ATTENTIVE", "VISION_BALANCED", "VISION_INDIFFERENT",
    "PruningConfig", "LayerDecision",
    "vision_attention_score", "classify_layer", "allocate_retention",
    "select_retained", "prune_head_cache", "prune_layer", "decide_layer", "plphp_hook",
    "make_hook",
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
    absolute positions kept for image j by head h.
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
                           vision_union: np.ndarray) -> float:
    """Head-averaged attention mass on vision positions, in [0, 1].

    ``attn_last_rows`` holds the last attention row of each head (softmax
    output over the full sequence).
    """
    rows = np.asarray(attn_last_rows, dtype=np.float64)
    vision_union = np.asarray(vision_union, dtype=np.int64)
    if vision_union.size == 0:
        return 0.0
    if vision_union.max() >= rows.shape[1] or vision_union.min() < 0:
        raise ValueError("vision index out of range for attention rows")
    return float(np.sum(np.mean(rows, axis=0)[vision_union]))


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
    """Top-K vision positions of one image for one head.

    K = floor(retention * image_length), with a minimum of 1 whenever
    retention > 0 so no image vanishes from context entirely. Returns the
    retained absolute positions (ascending) and K.
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
    local = argtopk(head_row[image_indices], k)
    return image_indices[local], k


def prune_head_cache(cache: HeadKVCache, text_union: np.ndarray,
                     retained_vision: np.ndarray) -> HeadKVCache:
    """Keep exactly the rows at text positions plus the retained vision set."""
    keep = np.union1d(np.asarray(text_union, dtype=np.int64),
                      np.asarray(retained_vision, dtype=np.int64))
    present = np.isin(keep, cache.positions)
    if not present.all():
        missing = keep[~present]
        raise ValueError(f"retained positions {missing.tolist()} not present in cache")
    mask = np.isin(cache.positions, keep)
    return HeadKVCache(
        keys=cache.keys[mask],
        values=cache.values[mask],
        positions=cache.positions[mask],
    )


def decide_layer(attn_last_rows: list[np.ndarray] | np.ndarray, seq: MultimodalSequence,
                 cfg: PruningConfig, layer: int, num_layers: int) -> LayerDecision:
    """Full layer-level decision from the heads' last attention rows.

    Pure function of the rows, the layout and the config; the live hook and
    offline trace replay both run through here, so their decisions agree
    exactly.
    """
    vision = vision_index_union(seq)
    gamma = vision_attention_score(attn_last_rows, vision)
    layer_class = classify_layer(gamma, cfg)
    first, last = cfg.pruned_range(num_layers)
    if not first <= layer <= last:
        return LayerDecision(layer=layer, gamma=gamma, layer_class=layer_class, exempt=True)
    retention = allocate_retention(layer_class, cfg)
    rows = np.asarray(attn_last_rows, dtype=np.float64)
    per_head = [
        [select_retained(rows[h], img, retention)[0] for img in seq.image_indices]
        for h in range(rows.shape[0])
    ]
    return LayerDecision(layer=layer, gamma=gamma, layer_class=layer_class,
                         exempt=False, retention=retention, per_head_retained=per_head)


def prune_layer(caches: list[HeadKVCache], seq: MultimodalSequence,
                decision: LayerDecision) -> list[HeadKVCache]:
    """Cut each head's cache to text plus the vision rows ``decision`` keeps."""
    if decision.exempt:
        return caches
    text = seq.text_union
    empty = np.empty(0, dtype=np.int64)
    return [prune_head_cache(cache, text, np.concatenate([empty, *decision.per_head_retained[h]]))
            for h, cache in enumerate(caches)]


def plphp_hook(layer: int, last_rows: np.ndarray, caches: list[HeadKVCache],
               seq: MultimodalSequence, cfg: PruningConfig,
               num_layers: int) -> tuple[list[HeadKVCache], LayerDecision]:
    """Post-prefill hook for one layer: decide, then prune each head's cache."""
    decision = decide_layer(last_rows, seq, cfg, layer, num_layers)
    return prune_layer(caches, seq, decision), decision


def make_hook(cfg: PruningConfig, num_layers: int):
    """Adapter with the generic prefill-hook signature."""
    def hook(layer, last_rows, caches, seq):
        return plphp_hook(layer, last_rows, caches, seq, cfg, num_layers)
    return hook
