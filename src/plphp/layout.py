"""Interleaved text/image token sequence layout.

A multimodal prompt is a list of segments, each either text or image. The
flat sequence assigns every segment a contiguous run of positions; the
per-segment runs are what every pruning rule operates on. Token ids
are synthetic integers: nothing downstream ever inspects token content,
only positions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .tensor_core import make_rng

TEXT = "text"
IMAGE = "image"

__all__ = ["TEXT", "IMAGE", "Segment", "MultimodalSequence", "build_sequence"]


@dataclass(frozen=True)
class Segment:
    kind: str  # TEXT or IMAGE
    length: int

    def __post_init__(self):
        if self.kind not in (TEXT, IMAGE):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.length < 1:
            raise ValueError(f"segment length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class MultimodalSequence:
    """Segments laid end to end, one synthetic token id per position.

    Every position set derives from the segments, so each segment is one
    ascending run by construction; each union is built once, read-only. The
    layout is nonempty and ends in text: the last prefill position, the
    query row every decision reads, is text.
    """

    segments: tuple[Segment, ...]
    token_ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("at least one segment required")
        if self.segments[-1].kind != TEXT:
            raise ValueError("final segment must be text")
        if len(self.token_ids) != self.total_length:
            raise ValueError(f"{len(self.token_ids)} token ids for {self.total_length} positions")

    def _spans(self, kind: str) -> tuple[tuple[int, int], ...]:
        ends = itertools.accumulate(seg.length for seg in self.segments)
        return tuple((hi - seg.length, hi) for seg, hi in zip(self.segments, ends)
                     if seg.kind == kind)

    @property
    def total_length(self) -> int:
        return sum(seg.length for seg in self.segments)

    @property
    def image_spans(self) -> tuple[tuple[int, int], ...]:
        """``(lo, hi)`` per image, in layout order: its positions are ``range(lo, hi)``."""
        return self._spans(IMAGE)

    def _union(self, kind: str) -> np.ndarray:
        runs = [np.arange(lo, hi, dtype=np.int64) for lo, hi in self._spans(kind)]
        union = np.concatenate([np.empty(0, dtype=np.int64), *runs])
        union.flags.writeable = False
        return union

    @functools.cached_property
    def text_union(self) -> np.ndarray:
        return self._union(TEXT)

    @functools.cached_property
    def vision_union(self) -> np.ndarray:
        return self._union(IMAGE)


def build_sequence(segments: list[Segment] | tuple[Segment, ...], seed: int,
                   vocab_size: int = 1024) -> MultimodalSequence:
    """Lay out segments into one flat sequence with synthetic token ids."""
    length = sum(seg.length for seg in segments)
    return MultimodalSequence(segments, make_rng(seed).integers(0, vocab_size, size=length,
                                                                dtype=np.int64))

