"""The model's passes and cache store against the references in ``helpers``.

``TestBlockedPrefill`` checks the blocked prefill, pruned after the pass,
against ``full_matrix_prefill``, which prunes each layer before the next one
runs, bit for bit: caches, last rows and 8-12 greedy decode steps of each
method against the per-head ``reference_decode_step``. ``TestKVStore``
checks the cache store and its clones, and ``TestParallelHeads`` the
prefill threads.
"""

import collections
import contextlib
import dataclasses
import hashlib
import itertools
import os
import signal
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_segments, small_model
from helpers import (DirtyNumpy, assert_same_caches, full_matrix_prefill, layer_from_heads,
                     pruned_prefill, reference_decode_step, same_bits)
from plphp import (IMAGE, TEXT, DecoderState, FastVConfig, LayerKVCache, ModelConfig,
                   PruningConfig, Segment, VTWConfig, build_sequence, decide, decode_step,
                   greedy_generate, init_model, make_rng, model, prefill, prune, tensor_core,
                   weight_shapes)

B = model.ATTN_BLOCK_ROWS

# method -> its pruning config; None runs unpruned
METHODS = {"none": None, "plphp": PruningConfig(),
           "fastv": FastVConfig(k_layer=2, prune_ratio=0.5), "vtw": VTWConfig(k_layer=3)}


@pytest.fixture
def cpus(monkeypatch):
    """Sets the usable CPU count the prefill pass sees."""

    def set_cpus(n):
        monkeypatch.setattr(model, "_usable_cpus", lambda: n)

    return set_cpus


def mixed_seq(vocab=32, seed=0):
    return build_sequence([Segment(TEXT, 3), Segment(IMAGE, 8), Segment(TEXT, 2)],
                          seed=seed, vocab_size=vocab)


def tiny(n=4, h=2, dk=4, vocab=32, seed=0, max_positions=64):
    cfg = ModelConfig(num_layers=n, num_heads=h, model_dim=h * dk, head_dim=dk,
                      vocab_size=vocab, max_positions=max_positions)
    return cfg, init_model(cfg, seed)


class TestInitModel:
    def test_seed_changes_weights(self):
        _, w1 = tiny(seed=3)
        _, w2 = tiny(seed=4)
        assert not np.array_equal(w1.w_q, w2.w_q)

    def test_weight_shapes_list_every_field_in_order(self):
        cfg, w = tiny()
        shapes = weight_shapes(cfg)
        assert list(shapes) == [field.name for field in dataclasses.fields(w)]
        assert all(getattr(w, name).shape == shape for name, shape in shapes.items())

    def test_q_k_v_are_read_only_views_of_one_table(self):
        # one (3, N, H, D, D_k) table, counted once: the weight floats, and so
        # the CLI's cap, are those of three (N, H, D, D_k) projections
        cfg, w = tiny()
        n, h, d, dk = cfg.num_layers, cfg.num_heads, cfg.model_dim, cfg.head_dim
        for c, name in enumerate(("w_q", "w_k", "w_v")):
            view = getattr(w, name)
            assert view.shape == (n, h, d, dk) and np.shares_memory(view, w.w_qkv)
            assert view.ctypes.data == w.w_qkv[c].ctypes.data
            with pytest.raises(ValueError):
                view[0, 0, 0, 0] = 1.0
        v, p = cfg.vocab_size, cfg.max_positions
        assert sum(np.prod(shape) for shape in weight_shapes(cfg).values()) == \
            v * d + p * d + 3 * n * h * d * dk + n * d * d + 2 * n * d * 4 * d + d * v

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(num_layers=4, num_heads=2, model_dim=9, head_dim=4,
                        vocab_size=32, max_positions=64)
        with pytest.raises(ValueError):
            ModelConfig(num_layers=3, num_heads=2, model_dim=8, head_dim=4,
                        vocab_size=32, max_positions=64)


class TestPrefill:
    def test_hook_reads_the_recorded_rows_read_only(self):
        cfg, w = tiny()
        seen = []

        def hook(layer, last_rows, caches, seq):
            with pytest.raises(ValueError):
                last_rows[0, 0] = 1.0
            seen.append(last_rows)
            return caches, None

        _, report = prefill(w, cfg, mixed_seq(), hook=hook, record_trace=True)
        assert len(seen) == cfg.num_layers
        for l, rows in enumerate(seen):  # views of the one array the report returns
            assert np.shares_memory(rows, report.attn_last_rows)
            assert same_bits(rows, report.attn_last_rows[l])

    def test_prefix_invariance(self):
        # causal attention: tokens from position j on cannot reach any cache
        # row before j, bit for bit
        cfg, w = tiny()
        seq = mixed_seq()
        base, _ = prefill(w, cfg, seq)
        for j in (1, 5, seq.total_length - 1):
            ids = seq.token_ids.copy()
            ids[j:] = (ids[j:] + 1) % cfg.vocab_size
            changed, _ = prefill(w, cfg, dataclasses.replace(seq, token_ids=ids))
            for l in range(cfg.num_layers):
                for h in range(cfg.num_heads):
                    a, b = base.caches[l][h], changed.caches[l][h]
                    assert np.array_equal(a.keys[:j], b.keys[:j])
                    assert np.array_equal(a.values[:j], b.values[:j])
                    assert not np.array_equal(a.keys[j:], b.keys[j:])

    def test_sequence_too_long(self):
        cfg, w = tiny()
        long_seq = build_sequence([Segment(TEXT, cfg.max_positions + 1)], seed=0,
                                  vocab_size=cfg.vocab_size)
        with pytest.raises(ValueError):
            prefill(w, cfg, long_seq)


def assert_decodes_like_reference(w, cfg, ref, got, steps):
    """``steps`` greedy steps: decode_step on ``got``, the reference decoder on
    ``ref``; logits and every cache must keep the same bits after each step."""
    token = 0
    for _ in range(steps):
        ref_logits, ref = reference_decode_step(w, cfg, ref, token)
        got_logits, got = decode_step(w, cfg, got, token)
        assert same_bits(got_logits, ref_logits)
        assert_same_caches(ref, got)
        assert got.next_position == ref.next_position
        token = int(np.argmax(ref_logits))


def assert_blocked_equals_full(w, cfg, seq, pruning=None, steps=8):
    """Row-blocked prefill, then ``prune``, vs the full-matrix reference pruning
    between layers, bit for bit: the last row its forward pass returns, caches,
    last attention rows, and ``steps`` greedy decode steps against the
    reference decoder. ``pruning`` is any method's config, or None."""
    returned = []
    forward = model._prefill_pass

    def recording_forward(*args):
        returned.append(forward(*args))
        return returned[-1]

    with mock.patch.object(model, "_prefill_pass", recording_forward):
        got, rows, decisions = pruned_prefill(w, cfg, seq, pruning)
    ref, ref_rows, ref_hidden = full_matrix_prefill(w, cfg, seq, decisions)
    assert len(returned) == 1 and same_bits(returned[0], ref_hidden[-1:])
    assert same_bits(rows, ref_rows)
    assert_same_caches(ref, got)
    assert_decodes_like_reference(w, cfg, ref, got, steps)


class TestBlockedPrefill:
    # exact tiles, 1-row tails (joined to the tile before) and ragged tails, 1 to 8 tiles
    @pytest.mark.parametrize("s", [37, B, B + 1, 2 * B - 1, 2 * B + 1,
                                   4 * B, 4 * B + 1, 8 * B - 1, 8 * B + 1])
    def test_block_boundaries_bitwise(self, s):
        cfg, w = tiny(seed=s, max_positions=s + 8)
        seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, s - 8), Segment(TEXT, 4)],
                             seed=s, vocab_size=cfg.vocab_size)
        assert_blocked_equals_full(w, cfg, seq, PruningConfig())

    @settings(max_examples=15, deadline=None)
    @given(s=st.integers(B + 1, 5 * B - 1), seed=st.integers(0, 2**31 - 1),
           method=st.sampled_from(sorted(METHODS)), head=st.integers(1, 8),
           tail=st.integers(1, 8))
    def test_default_tiles_with_ragged_tail_bitwise(self, s, seed, method, head, tail):
        # 2 to 5 tiles of the default ATTN_BLOCK_ROWS with a ragged last tile,
        # against full-width softmax rows over the strided k.T
        rng = make_rng(seed)
        h, dk = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        cfg, w = tiny(n=int(rng.integers(4, 6)), h=h, dk=dk, seed=seed, max_positions=s + 8)
        seq = build_sequence([Segment(TEXT, head), Segment(IMAGE, s - head - tail),
                              Segment(TEXT, tail)], seed=seed, vocab_size=cfg.vocab_size)
        assert_blocked_equals_full(w, cfg, seq, METHODS[method])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), block_rows=st.integers(1, 12),
           method=st.sampled_from(sorted(METHODS)), steps=st.integers(8, 12))
    def test_random_layouts_and_block_sizes_bitwise(self, seed, block_rows, method, steps):
        # small blocks put many boundaries (and 1-row blocks) inside short
        # prompts; the head-batched decode keeps the per-head loop's bits
        # over the head-divergent caches each method leaves
        rng = make_rng(seed)
        cfg, w = small_model(rng, max_layers=5)
        seq = build_sequence(random_segments(rng, max_segments=5, max_len=12),
                             seed=seed, vocab_size=cfg.vocab_size)
        with mock.patch.object(model, "ATTN_BLOCK_ROWS", block_rows):
            assert_blocked_equals_full(w, cfg, seq, METHODS[method], steps)

    # one tile, exact tiles, a 1-row tail (joined to the tile before) and a ragged tail
    @pytest.mark.parametrize("s", [B, 2 * B, 2 * B + 1, 3 * B - 5])
    def test_final_layer_attends_for_its_last_block_alone(self, s):
        # every earlier layer runs all blocks; the final one projects keys
        # and values for all s rows but queries, normalises, mixes and runs
        # the rest of the layer for the last block's rows only
        cfg, w = tiny(seed=s, max_positions=s)
        seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, s - 8), Segment(TEXT, 4)],
                             seed=s, vocab_size=cfg.vocab_size)
        blocks = model.attention_row_blocks(s)
        i0 = blocks[-1][0]
        rows = s - i0
        h, d, dk = cfg.num_heads, cfg.model_dim, cfg.head_dim
        # per layer, (thread, call): ("matmul", a.shape, b.shape) and
        # ("softmax", shape, width); heads on other threads interleave
        # their calls, so each thread's calls are checked on their own
        calls = []
        matmul, softmax = model.matmul, model.masked_row_softmax

        def recording_softmax(scores, width, **kwargs):
            calls[-1].append((threading.get_ident(), ("softmax", scores.shape, width)))
            return softmax(scores, width=width, **kwargs)

        def recording_matmul(a, b, **kwargs):
            calls[-1].append((threading.get_ident(), ("matmul", a.shape, b.shape)))
            out = matmul(a, b, **kwargs)
            if b.shape == (4 * d, d):  # the MLP down-projection ends a layer
                calls.append([])
            return out

        calls.append([])
        with mock.patch.object(model, "matmul", recording_matmul), \
                mock.patch.object(model, "masked_row_softmax", recording_softmax):
            prefill(w, cfg, seq)
        *earlier, final, after_final = calls
        assert after_final == [] and len(earlier) == cfg.num_layers - 1
        for layer in earlier:
            assert sum(call[0] == "softmax" for _, call in layer) == h * len(blocks)
        by_thread = collections.defaultdict(list)
        for thread, call in final:
            by_thread[thread].append(call)
        heads = 0
        for own in by_thread.values():
            n_heads = sum(kind == "softmax" for kind, _, _ in own)  # one block per head
            heads += n_heads
            projections = [a[0] for kind, a, b in own if b == (d, dk)]
            assert projections == [rows, s, s] * n_heads  # q, k, v per head
            # rows i0 .. s - 1 of the s-wide map
            assert [c for c in own if c[0] == "softmax"] == [("softmax", (rows, s), s)] * n_heads
            assert [a for kind, a, b in own if b == (s, dk)] == [(rows, s)] * n_heads  # value mix
            # a 1-row operand would be labelled a decode step
            assert min(a[0] for kind, a, b in own if kind == "matmul") > 1
        assert heads == h
        assert [a[0] for _, (kind, a, b) in final
                if b in ((d, d), (d, 4 * d), (4 * d, d))] == [rows] * 3  # out-proj, MLP

    # one tile, a 1-row tail (joined to the tile before) and a ragged tail
    @pytest.mark.parametrize("s", [B, 2 * B + 1, 3 * B - 5])
    def test_workspace_is_written_before_it_is_read(self, s):
        # np.empty in tensor_core and model returns DIRTY_NAN memory: a score
        # workspace byte read before it is written would change a bit
        cfg, w = tiny(seed=s, max_positions=s + 8)
        seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, s - 8), Segment(TEXT, 4)],
                             seed=s, vocab_size=cfg.vocab_size)
        ref, ref_rows, _ = pruned_prefill(w, cfg, seq, PruningConfig())
        with mock.patch.object(tensor_core, "np", DirtyNumpy()), \
                mock.patch.object(model, "np", DirtyNumpy()):
            got, rows, _ = pruned_prefill(w, cfg, seq, PruningConfig())
        assert same_bits(rows, ref_rows)
        assert_same_caches(ref, got)
        assert_decodes_like_reference(w, cfg, ref, got, 3)

    @settings(max_examples=200, deadline=None)
    @given(s=st.integers(1, 2000), block_rows=st.integers(1, 300))
    def test_row_blocks_tile_the_prompt(self, s, block_rows):
        with mock.patch.object(model, "ATTN_BLOCK_ROWS", block_rows):
            blocks = model.attention_row_blocks(s)
        assert blocks[0][0] == 0 and blocks[-1][1] == s
        assert all(prev[1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))
        sizes = [i1 - i0 for i0, i1 in blocks]
        assert all(1 <= n <= block_rows + 1 for n in sizes)
        if s > 1 and block_rows > 1:  # a 1-row block would look like a decode step
            assert min(sizes) > 1

    def test_peak_memory_below_one_score_matrix(self, cpus):
        # two heads, then four on the same two threads: the score workspaces
        # and temporaries are per thread, so the heads add only their caches
        cpus(2)
        s = 2048
        for h in (2, 4):
            cfg, w = tiny(h=h, max_positions=s)
            seq = build_sequence([Segment(TEXT, 16), Segment(IMAGE, s - 32), Segment(TEXT, 16)],
                                 seed=0, vocab_size=cfg.vocab_size)
            tracemalloc.start()
            try:
                pruned_prefill(w, cfg, seq, PruningConfig())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # tile-sized: a few ATTN_BLOCK_ROWS x S buffers per thread, never S x S
            assert peak < 8 * 2**20, f"H={h} prefill peak {peak / 2**20:.1f} MiB"


def prefill_and_decode_digest(w, cfg, seq, pruning, steps=5):
    """SHA-256 over the last rows, every cache and ``steps`` greedy decode logits."""
    state, rows, _ = pruned_prefill(w, cfg, seq, pruning)
    digest = hashlib.sha256(rows.tobytes())
    token = 0
    for _ in range(steps):
        logits, state = decode_step(w, cfg, state, token)
        digest.update(logits.tobytes())
        token = int(np.argmax(logits))
    for layer in state.caches:
        for cache in layer:
            for array in (cache.keys, cache.values, cache.positions):
                digest.update(array.tobytes())
    return digest.hexdigest()


class TestParallelHeads:
    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_worker_count_changes_no_bit(self, cpus, h, method):
        # one thread against up to four (more threads than this host may
        # have cores, switching every microsecond), in clean and in dirty
        # memory, over prompts that end inside, at and one row past a block
        # boundary
        ran_on = set()
        real = model.matmul

        def recording(a, b, **kwargs):
            ran_on.add(threading.get_ident())
            return real(a, b, **kwargs)

        for s, dirty in itertools.product((B - 3, 2 * B, 2 * B + 2), (False, True)):
            cfg, w = tiny(h=h, dk=3, seed=s + h, max_positions=s + 8)
            seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, s - 8), Segment(TEXT, 4)],
                                 seed=s, vocab_size=cfg.vocab_size)
            digests = []
            for n_cpus in (1, 4):
                cpus(n_cpus)
                ran_on.clear()
                with contextlib.ExitStack() as stack:
                    stack.callback(sys.setswitchinterval, sys.getswitchinterval())
                    sys.setswitchinterval(1e-6)
                    stack.enter_context(mock.patch.object(model, "matmul", recording))
                    if dirty:
                        stack.enter_context(mock.patch.object(tensor_core, "np", DirtyNumpy()))
                        stack.enter_context(mock.patch.object(model, "np", DirtyNumpy()))
                    digests.append(prefill_and_decode_digest(w, cfg, seq, METHODS[method]))
                # the caller runs head 0, and a worker at least one other head
                assert (len(ran_on) > 1) == (min(h, n_cpus) > 1)
            assert digests[0] == digests[1]

    def test_lowest_head_error_raised_after_every_head_finished(self, cpus):
        # head 2 fails first and head 1 later, while head 3 is still working:
        # the caller sees head 1's error, and only once head 3 is done; on
        # one thread too, where head 1 fails before heads 2 and 3 run
        cfg, w = tiny(n=4, h=4, dk=2)
        seq = mixed_seq()
        real = model.matmul
        current = threading.local()  # the head this thread runs: its q projection comes first
        w_q = [w.w_q[0, h].ctypes.data for h in range(cfg.num_heads)]
        calls = collections.Counter()

        def failing(a, b, **kwargs):
            if b.ctypes.data in w_q:
                current.head = w_q.index(b.ctypes.data)
                if current.head == 1:
                    time.sleep(0.05)
                    raise RuntimeError("head 1")
                if current.head == 2:
                    raise RuntimeError("head 2")
            if current.head == 3:
                time.sleep(0.01)
            calls[current.head] += 1
            return real(a, b, **kwargs)

        per_head = 3 + 2 * len(model.attention_row_blocks(seq.total_length))
        for n_cpus in (1, 4):
            cpus(n_cpus)
            calls.clear()
            with mock.patch.object(model, "matmul", failing), \
                    pytest.raises(RuntimeError, match="head 1"):
                prefill(w, cfg, seq)
            assert calls == {0: per_head, 3: per_head}, n_cpus
            time.sleep(0.05)
            assert calls == {0: per_head, 3: per_head}  # nothing still running

    def test_one_cpu_prefill_and_decode_stay_on_the_calling_thread(self, cpus):
        # a one-CPU host runs prefill on the calling thread, and decode never
        # hands a head to a worker
        cfg, w = tiny()
        threads = threading.active_count()
        ran_on = set()
        real = model.matmul

        def recording(a, b, **kwargs):
            ran_on.add(threading.get_ident())
            return real(a, b, **kwargs)

        with mock.patch.object(model, "matmul", recording):
            cpus(1)
            state, _ = prefill(w, cfg, mixed_seq())
            cpus(4)
            for token in range(3):
                decode_step(w, cfg, state, token)
        assert ran_on == {threading.get_ident()} and threading.active_count() == threads

    @pytest.mark.parametrize("n_cpus", [2, 4])
    def test_no_thread_outlives_a_prefill(self, cpus, n_cpus):
        # every head thread is joined before its layer ends; started threads
        # lag behind the caller, so one left running would outlive the prefill
        cfg, w = tiny(h=4)
        threads = threading.active_count()
        caller = threading.get_ident()
        ran_on = set()
        real = model.matmul

        def recording(a, b, **kwargs):
            ran_on.add(threading.get_ident())
            if threading.get_ident() != caller:
                time.sleep(0.005)
            return real(a, b, **kwargs)

        cpus(n_cpus)
        with mock.patch.object(model, "matmul", recording):
            _, _, decisions = pruned_prefill(w, cfg, mixed_seq(), PruningConfig())
        # the caller ran head 0, and threads started for each layer the rest
        assert len(ran_on) > 1 and len(decisions) == cfg.num_layers
        assert threading.active_count() == threads

    def test_a_thread_that_fails_to_start_leaves_no_worker_running(self, cpus):
        # the second of three starts fails: the one worker already started
        # (slowed, so it is still busy when the start fails) is joined before
        # prefill raises the start's error
        cpus(4)
        cfg, w = tiny(h=4)
        caller = threading.get_ident()
        real_matmul, real_start = model.matmul, threading.Thread.start
        starts = []

        def slow(a, b, **kwargs):
            if threading.get_ident() != caller:
                time.sleep(0.005)
            return real_matmul(a, b, **kwargs)

        def start(thread):
            starts.append(thread.name)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            real_start(thread)

        with mock.patch.object(model, "matmul", slow), \
                mock.patch.object(threading.Thread, "start", start), \
                pytest.raises(RuntimeError, match="can't start new thread"):
            prefill(w, cfg, mixed_seq())
        assert starts == ["plphp-head-1", "plphp-head-2"]
        assert [t.name for t in threading.enumerate() if t.name.startswith("plphp-head-")] == []

    def test_forked_child_prefills_to_the_same_bits(self, cpus):
        # a child forked after a multi-thread prefill prefills to the same bits
        cpus(2)
        cfg, w = tiny()
        seq = mixed_seq()
        want, _ = prefill(w, cfg, seq)
        pid = os.fork()
        if pid == 0:  # the child
            code = 1
            try:
                got, _ = prefill(w, cfg, seq)
                code = 0 if same_bits(got.caches[-1][-1].keys, want.caches[-1][-1].keys) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


class TestDecode:
    def test_states_pruned_from_one_prefill_decode_like_separate_prefills(self):
        # criterion 7's four retention rates at desk size: pruned from one
        # prefill and decoded interleaved, each keeps the bits of its own prefill
        cfg, w = tiny(n=6)
        seq = mixed_seq()
        configs = [PruningConfig(r=r, delta_r=0.0, alpha=0.0, beta=0.0, first_pruned_layer=2,
                                 last_pruned_layer=5) for r in (1.0, 0.5, 0.4, 0.3)]
        state, report = prefill(w, cfg, seq, record_trace=True)
        shared = [prune(state, seq, decide(c, report.attn_last_rows, seq)) for c in configs]
        separate = [pruned_prefill(w, cfg, seq, c)[0] for c in configs]
        assert len({layer.rows for layer in shared[-1].caches}) > 1  # some layers were cut
        tokens = [0] * len(configs)
        for _ in range(4):
            for i, (got, want) in enumerate(zip(shared, separate)):
                logits, _ = decode_step(w, cfg, got, tokens[i])
                want_logits, _ = decode_step(w, cfg, want, tokens[i])
                assert same_bits(logits, want_logits)
                tokens[i] = int(np.argmax(logits))
        for got, want in zip(shared, separate, strict=True):
            assert_same_caches(want, got)

    def test_position_overflow(self):
        cfg, w = tiny()
        seq = mixed_seq()
        state, _ = prefill(w, cfg, seq)
        state.next_position = cfg.max_positions
        with pytest.raises(ValueError):
            decode_step(w, cfg, state, 0)

    @pytest.mark.parametrize("token", [-1, 32])
    def test_token_outside_vocabulary_refused(self, token):
        # -1 would index the last embedding row, 32 one past the table
        cfg, w = tiny(vocab=32)
        state, _ = prefill(w, cfg, mixed_seq())
        lengths = [len(c) for layer in state.caches for c in layer]
        with pytest.raises(ValueError, match=rf"token id {token} .*\[0, 32\)"):
            decode_step(w, cfg, state, token)
        assert [len(c) for layer in state.caches for c in layer] == lengths
        assert state.next_position == mixed_seq().total_length

    def test_prompt_outside_vocabulary_refused(self):
        # build_sequence draws ids below its own vocab_size, 1024 by default
        cfg, w = tiny(vocab=16)
        seq = build_sequence([Segment(TEXT, 3), Segment(IMAGE, 4), Segment(TEXT, 2)], seed=0)
        bad = int(seq.token_ids[seq.token_ids >= 16][0])
        with pytest.raises(ValueError, match=rf"token id {bad} .*\[0, 16\)"):
            prefill(w, cfg, seq)



class TestKVStore:
    def test_append_reserves_bounded_capacity(self, rng):
        # twice the new length at most, never past max_rows, and the rows
        # already held copied over exactly, in every head
        h, dk, max_rows = 2, 3, 40
        heads = [(rng.random((5, dk)), rng.random((5, dk)), np.arange(5)) for _ in range(h)]
        layer = layer_from_heads(heads)
        keys, values, positions = (np.stack(arrays) for arrays in zip(*heads))
        for m in (1, 1, 7, 1, 20, 1, 1, 1):
            k_new, v_new = rng.random((h, m, dk)), rng.random((h, m, dk))
            p_new = np.arange(layer.rows, layer.rows + m)
            kt, vs = layer.extend(p_new, max_rows)
            n = layer.rows
            for head in range(h):  # as each head of a forward pass writes its rows
                kt[head, :, n - m:n], vs[head, n - m:n] = k_new[head].T, v_new[head]
            keys, values = np.concatenate([keys, k_new], 1), np.concatenate([values, v_new], 1)
            positions = np.concatenate([positions, np.tile(p_new, (h, 1))], 1)
            assert n == positions.shape[1] and kt.shape == (h, dk, vs.shape[1])
            assert n <= vs.shape[1] <= min(2 * n, max_rows)
            assert same_bits(kt[:, :, :n].transpose(0, 2, 1), keys) and same_bits(vs[:, :n], values)
            for head, cache in enumerate(layer):
                assert same_bits(cache.keys, keys[head]) and same_bits(cache.values, values[head])
                assert np.array_equal(cache.positions, positions[head])

    def test_cache_never_aliases_its_arrays(self, rng):
        # the constructor copies into the layer's own store and a clone into
        # another: writing to the arrays it was built from leaves its rows
        # alone, and no view of the clone shares memory with the original
        keys, values = rng.random((2, 6, 3)), rng.random((2, 6, 3))
        positions = np.tile(np.arange(6, dtype=np.int64), (2, 1))
        layer = LayerKVCache(keys, values, positions)
        clone = layer.clone()
        frozen = keys.copy(), values.copy(), positions.copy()
        keys[:], values[:], positions[:] = np.nan, -1.0, 99
        for h, (cache, copy) in enumerate(zip(layer, clone, strict=True)):
            assert same_bits(cache.keys, frozen[0][h]) and same_bits(cache.values, frozen[1][h])
            assert np.array_equal(cache.positions, frozen[2][h]) and len(cache) == 6
            for a, b in ((cache.keys, copy.keys), (cache.values, copy.values),
                         (cache.positions, copy.positions)):
                assert same_bits(a, b) and not np.shares_memory(a, b)

    def test_views_are_read_only(self):
        cfg, w = tiny()
        state, _ = prefill(w, cfg, mixed_seq())
        c = state.caches[0][1]
        for view in (c.keys, c.values, c.positions):
            with pytest.raises(ValueError, match="read-only"):
                view[1] = 7
        assert c.positions.tolist() == list(range(mixed_seq().total_length))

    def test_layer_is_a_sequence_of_head_views(self, rng):
        heads = [(rng.random((4, 2)), rng.random((4, 2)), np.arange(4) + 2 * h) for h in range(3)]
        layer = layer_from_heads(heads)
        assert len(layer) == 3 and layer.rows == 4
        assert [c.positions.tolist() for c in layer] == [p.tolist() for _, _, p in heads]
        assert same_bits(layer[-1].keys, heads[2][0]) and same_bits(layer[-3].values, heads[0][1])
        with pytest.raises(IndexError):
            layer[3]

    @pytest.mark.parametrize("keys, values, positions", [
        ((2, 5, 3), (2, 4, 3), (2, 5)),  # values one row short
        ((2, 5, 3), (2, 5, 3), (3, 5)),  # positions for a third head
        ((2, 5, 3), (2, 5, 3), (2, 4)),  # a row without a position
        ((5, 3), (5, 3), (5,)),          # one head's arrays, not a layer's
        ((2, 5, 3), (2, 5), (2, 5)),     # values without D_k
    ])
    def test_layer_refuses_mismatched_shapes(self, keys, values, positions):
        with pytest.raises(ValueError, match="H x L x D_k"):
            LayerKVCache(np.zeros(keys), np.zeros(values), np.zeros(positions, dtype=np.int64))

    def test_layer_refuses_non_ascending_head_rows(self):
        for bad in ([0, 2, 2], [0, 3, 1]):  # head 1 only
            with pytest.raises(ValueError, match="strictly ascending"):
                LayerKVCache(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)), np.array([[0, 1, 2], bad]))

    def test_one_row_appends_grow_geometrically(self):
        layer = LayerKVCache(np.empty((2, 0, 2)), np.empty((2, 0, 2)),
                             np.empty((2, 0), dtype=np.int64))
        stores = []  # held, so no two stores share an id
        for i in range(300):
            kt, _ = layer.extend(np.array([i]), 1000)
            stores.append(kt)
            assert kt.shape[2] <= 2 * layer.rows
        assert len({id(kt) for kt in stores}) <= 10  # capacities 2, 6, 14, ..., 510

    def test_views_keep_their_bits_across_later_steps(self):
        # appends write only new rows, and a store that grows leaves the old
        # one to any view still holding it
        cfg, w = tiny()
        state, _, _ = pruned_prefill(w, cfg, mixed_seq(), PruningConfig())
        decode_step(w, cfg, state, 0)  # every cache now lives in its store
        held = [[(c.keys, c.values, c.positions) for c in layer] for layer in state.caches]
        frozen = [[tuple(a.copy() for a in views) for views in layer] for layer in held]
        token = 0
        for _ in range(30):  # past each store's first capacity
            logits, state = decode_step(w, cfg, state, token)
            token = int(np.argmax(logits))
        for layer, held_l, frozen_l in zip(state.caches, held, frozen, strict=True):
            for cache, (k, v, p), (k0, v0, p0) in zip(layer, held_l, frozen_l, strict=True):
                n = len(p)
                assert same_bits(k, k0) and same_bits(v, v0) and np.array_equal(p, p0)
                assert same_bits(cache.keys[:n], k0) and same_bits(cache.values[:n], v0)
                assert np.array_equal(cache.positions[:n], p0)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_decoding_a_clone_leaves_the_original(self, method):
        cfg, w = tiny()
        state, _, _ = pruned_prefill(w, cfg, mixed_seq(), METHODS[method])
        decode_step(w, cfg, state, 0)  # every cache now lives in its store
        before, copy = state.clone(), state.clone()
        assert_decodes_like_reference(w, cfg, copy.clone(), copy, 6)
        assert_same_caches(before, state)
        assert state.next_position == before.next_position
        # the reference decoder replaces each layer's cache with one stacked
        # from the concatenated rows: the original must still decode bit for bit
        assert_decodes_like_reference(w, cfg, state, before, 6)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_decoding_a_pruned_state_leaves_its_input(self, method):
        # prune shares no cache with its input, exempt layers included, so
        # the input still decodes bit for bit like a fresh prefill
        cfg, w = tiny()
        seq = mixed_seq()
        state, report = prefill(w, cfg, seq, record_trace=True)
        pruned = prune(state, seq, decide(METHODS[method], report.attn_last_rows, seq))
        greedy_generate(w, cfg, pruned, 0, 3)
        fresh, _ = prefill(w, cfg, seq)
        assert_same_caches(fresh, state)
        assert state.next_position == fresh.next_position
        assert_decodes_like_reference(w, cfg, fresh, state, 4)

    def test_decode_steps_copy_no_cache(self):
        # with the store, a step allocates only its temporaries: less than one
        # head's key rows, where a per-step copy of any cache needs more
        rows, h, dk = 4096, 2, 16
        cfg, w = tiny(h=h, dk=dk, max_positions=2 * rows + 8)
        rng = make_rng(0)
        caches = [layer_from_heads((rng.standard_normal((rows, dk)),
                                    rng.standard_normal((rows, dk)), np.arange(rows))
                                   for _ in range(h))
                  for _ in range(cfg.num_layers)]
        state = DecoderState(caches=caches, next_position=rows)
        decode_step(w, cfg, state, 0)  # the first append copies each layer into its store
        tracemalloc.start()
        try:
            for token in (1, 2, 3):
                decode_step(w, cfg, state, token)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        key_rows = rows * dk * 8
        assert peak < key_rows, f"decode step peak {peak} B, one head's keys {key_rows} B"


class TestGreedyGenerate:
    def test_zero_steps(self):
        cfg, w = tiny()
        state, _ = prefill(w, cfg, mixed_seq())
        assert greedy_generate(w, cfg, state, 0, 0) == []
