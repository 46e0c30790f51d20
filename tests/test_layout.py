import dataclasses

import numpy as np
import pytest

from conftest import random_segments
from plphp import IMAGE, TEXT, MultimodalSequence, Segment, build_sequence, vision_index_union


def test_basic_layout():
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 3), Segment(TEXT, 1)], seed=0)
    assert seq.total_length == 6
    assert [run.tolist() for run in seq.text_indices] == [[0, 1], [5]]
    assert [run.tolist() for run in seq.image_indices] == [[2, 3, 4]]
    assert seq.image_spans == ((2, 5),)
    assert seq.text_union.tolist() == [0, 1, 5]


def test_text_only():
    seq = build_sequence([Segment(TEXT, 1)], seed=0)
    assert seq.total_length == 1
    assert vision_index_union(seq).size == 0


def test_two_images_union_count():
    seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, 10), Segment(IMAGE, 10),
                          Segment(TEXT, 2)], seed=0)
    union = vision_index_union(seq)
    # counting oracle: disjoint union of the two image runs
    expected = set(range(4, 14)) | set(range(14, 24))
    assert set(union.tolist()) == expected
    assert union.size == 20


def test_token_ids_deterministic():
    a = build_sequence([Segment(TEXT, 5)], seed=9)
    b = build_sequence([Segment(TEXT, 5)], seed=9)
    assert np.array_equal(a.token_ids, b.token_ids)


def test_rejects_empty_and_nontext_final():
    with pytest.raises(ValueError):
        build_sequence([], seed=0)
    with pytest.raises(ValueError):
        build_sequence([Segment(TEXT, 1), Segment(IMAGE, 2)], seed=0)
    with pytest.raises(ValueError):
        Segment(TEXT, 0)


@pytest.mark.parametrize("segments, ids, message", [
    ((), 0, "at least one segment required"),
    ((Segment(TEXT, 1), Segment(IMAGE, 2)), 3, "final segment must be text"),
    ((Segment(TEXT, 2), Segment(IMAGE, 2), Segment(TEXT, 1)), 4, "4 token ids for 5 positions"),
    ((Segment(TEXT, 2), Segment(IMAGE, 2), Segment(TEXT, 1)), 6, "6 token ids for 5 positions"),
], ids=["empty", "image-final", "too-few-ids", "too-many-ids"])
def test_sequence_refuses_what_it_cannot_hold(segments, ids, message):
    with pytest.raises(ValueError, match=message):
        MultimodalSequence(segments, np.zeros(ids, dtype=np.int64))


def test_sequence_holds_only_segments_and_token_ids():
    # every position set derives from the segments: none can be set apart from them
    assert [f.name for f in dataclasses.fields(MultimodalSequence)] == ["segments", "token_ids"]
    seq = MultimodalSequence([Segment(TEXT, 1), Segment(IMAGE, 2), Segment(TEXT, 1)],
                             np.zeros(4, dtype=np.int64))
    assert seq.segments == (Segment(TEXT, 1), Segment(IMAGE, 2), Segment(TEXT, 1))
    assert (seq.total_length, seq.image_spans) == (4, ((1, 3),))
    for name in ("total_length", "text_indices", "image_indices", "text_union", "image_spans"):
        with pytest.raises(AttributeError):
            setattr(seq, name, ())


def test_partition_property(rng):
    for _ in range(200):
        segs = random_segments(rng)
        seq = build_sequence(segs, seed=int(rng.integers(0, 1000)))
        all_indices = [i for run in seq.text_indices for i in run.tolist()]
        all_indices += [i for run in seq.image_indices for i in run.tolist()]
        assert sorted(all_indices) == list(range(seq.total_length))
        assert len(set(all_indices)) == len(all_indices)
        expected_vision = sum(s.length for s in segs if s.kind == IMAGE)
        assert vision_index_union(seq).size == expected_vision
        # each run is a contiguous ascending block
        for run in list(seq.text_indices) + list(seq.image_indices):
            assert np.array_equal(np.diff(run), np.ones(run.size - 1))
        pos, spans = 0, []
        for seg in segs:
            if seg.kind == IMAGE:
                spans.append((pos, pos + seg.length))
            pos += seg.length
        assert seq.image_spans == tuple(spans)
