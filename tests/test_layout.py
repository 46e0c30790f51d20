import dataclasses

import numpy as np
import pytest

from conftest import random_segments
from plphp import IMAGE, TEXT, MultimodalSequence, Segment, build_sequence


def test_basic_layout():
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 3), Segment(TEXT, 1)], seed=0)
    assert seq.total_length == 6
    assert seq.image_spans == ((2, 5),)
    assert seq.text_union.tolist() == [0, 1, 5]
    assert seq.vision_union.tolist() == [2, 3, 4]


def test_text_only():
    seq = build_sequence([Segment(TEXT, 1)], seed=0)
    assert seq.total_length == 1
    assert seq.vision_union.size == 0 and seq.vision_union.dtype == np.int64


def test_two_images_union_count():
    seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, 10), Segment(IMAGE, 10),
                          Segment(TEXT, 2)], seed=0)
    union = seq.vision_union
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
    for name in ("total_length", "text_union", "vision_union", "image_spans"):
        with pytest.raises(AttributeError):
            setattr(seq, name, ())


def test_partition_property(rng):
    for _ in range(200):
        segs = random_segments(rng)
        seq = build_sequence(segs, seed=int(rng.integers(0, 1000)))
        pos, spans, text, vision = 0, [], [], []
        for seg in segs:
            if seg.kind == IMAGE:
                spans.append((pos, pos + seg.length))
                vision += range(pos, pos + seg.length)
            else:
                text += range(pos, pos + seg.length)
            pos += seg.length
        assert seq.image_spans == tuple(spans)
        # the unions partition the positions, each the concatenated runs of its kind
        union = seq.text_union.tolist() + seq.vision_union.tolist()
        assert sorted(union) == list(range(seq.total_length))
        for union, want in ((seq.text_union, text), (seq.vision_union, vision)):
            assert union.dtype == np.int64 and union.tolist() == want
            assert not union.flags.writeable
            with pytest.raises(ValueError):
                union[:1] = -1
        # built once per sequence: a second read is the same array
        assert seq.text_union is seq.text_union and seq.vision_union is seq.vision_union
