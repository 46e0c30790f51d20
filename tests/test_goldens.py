"""Absolute goldens: values recorded once, not a second path of today's code.

Every other bitwise test compares two paths of the current code, so a change
that moves both together (a reordered weight draw, say) passes them all.
These constants pin one small run per method: the SHA-256 of the drawn
weights, the greedy tokens, RR and KV exactly, and the final logits within
1e-9 (the tolerance of perfbench/goldens.json, which leaves room for
``np.exp``'s CPU-dependent last bit). Re-recording them changes what the
program computes and is declared with the change that needs it.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from helpers import pruned_prefill
from plphp import (IMAGE, TEXT, FastVConfig, ModelConfig, PruningConfig, Segment, VTWConfig,
                   account, build_sequence, decode_step, init_model)

CONFIG = ModelConfig(num_layers=5, num_heads=2, model_dim=8, head_dim=4, vocab_size=24,
                     max_positions=64)
SEGMENTS = [Segment(TEXT, 3), Segment(IMAGE, 20), Segment(TEXT, 2), Segment(IMAGE, 15),
            Segment(TEXT, 3)]
STEPS = 6
# method -> (seed, method config)
METHODS = {
    "none": (0, None),
    "plphp": (1, PruningConfig()),
    "fastv": (2, FastVConfig(k_layer=3, prune_ratio=0.5)),
    "vtw": (3, VTWConfig(k_layer=4)),
}

# recorded at the commit that added this file
GOLDENS = {
    "fastv": {
        "weights_sha256": "37a30ab697eadc2803f5c887822f975a668bdeb93cad2ae17252ab93e8fbcc87",
        "tokens": [15, 7, 15, 7, 15, 7],
        "rr": 0.7085714285714285,
        "kv": 0.7627906976744186,
        "logits": [
            "-0x1.1aee1654bc476p+1", "-0x1.ac2cef256e298p-2", "0x1.60b59c45b27c9p+0",
            "-0x1.7a5402ffc06fcp-1", "0x1.4e49f7f9d2a4dp-1", "0x1.1d6600d9cf4e7p-2",
            "0x1.3803fe4852205p-1", "0x1.3d96377f068d4p+1", "0x1.ac0bdb2106c41p-2",
            "0x1.928684d7ea3dep-1", "0x1.95be0bfb4cd01p-1", "0x1.ed537b1e803bdp-4",
            "-0x1.52949810ac446p-1", "-0x1.cb879296a8d1dp-1", "-0x1.e6b4df6e29e1ap+0",
            "0x1.ac9c888f38ba0p-3", "-0x1.4427de6aecb9ap+0", "-0x1.a0cb241ebf486p-2",
            "-0x1.9c6985a8b4f83p-3", "-0x1.0fe8aad06ccf7p-2", "0x1.77cc3bf27cfebp-1",
            "0x1.3d3cf41ebb8c2p+0", "0x1.755297168fa2fp+0", "0x1.398e5a9593d19p-1",
        ],
    },
    "none": {
        "weights_sha256": "afb14c6202bb47b0867184769daf410a00dfb2cd704a6081498f76bab16c2460",
        "tokens": [8, 6, 6, 8, 6, 6],
        "rr": 1.0,
        "kv": 1.0,
        "logits": [
            "-0x1.cd8f940fa87d0p-5", "-0x1.93c6a700b2004p+0", "0x1.0c2fdfbc5842ep-1",
            "-0x1.492b23b7f6ff5p+1", "-0x1.39c47b927d3d7p+0", "0x1.f64b736ff854cp-5",
            "0x1.051d2182dc96cp+1", "0x1.dc9fdb88dac83p-1", "0x1.e239c4affb2e0p+0",
            "0x1.63cb581f8c17cp-2", "0x1.de208aefd5098p-4", "-0x1.2368a41668fa6p+0",
            "0x1.d16922d575610p-2", "-0x1.35a3103e34ffcp-1", "-0x1.4e474e6523320p-2",
            "0x1.c98aca8252b06p-1", "-0x1.6e233363eee7ep-3", "-0x1.faf59e2b6b5f5p-1",
            "-0x1.92d2efe848c52p-1", "0x1.7a009637431d9p+0", "0x1.188096a1765b1p+0",
            "0x1.b8a3784e2d131p-2", "0x1.a0cf20b0e70e5p-2", "-0x1.ead41e929d725p-1",
        ],
    },
    "plphp": {
        "weights_sha256": "e598b3f5f7090d0a9be55e929b53230ff45ea6415a592d855a2694c71e941da6",
        "tokens": [0, 0, 20, 20, 20, 20],
        "rr": 0.8742857142857143,
        "kv": 0.8976744186046511,
        "logits": [
            "-0x1.26840a6468da5p-2", "0x1.541e5b480f39dp-4", "0x1.a645f35252160p-6",
            "-0x1.a2b389d981412p-2", "-0x1.a3f8283632a0dp-5", "-0x1.bbcd2456534acp-2",
            "0x1.8dbb73a093756p-1", "0x1.3469a0925330bp-1", "-0x1.70142cacba74dp-1",
            "0x1.13c1f3aaa1ca4p-4", "-0x1.15a036b901138p-4", "0x1.a3e7b34752d58p-4",
            "0x1.78f2ccf4da1a9p-1", "0x1.4664622d884bep-2", "-0x1.fd1b1b83bded1p-3",
            "0x1.64438770f7f28p-1", "0x1.267114c053241p+0", "0x1.a0f951609a162p+0",
            "-0x1.824ceb979c25ap-1", "0x1.938e925a56e08p-4", "0x1.1256b73f3e039p+1",
            "0x1.27babb9fb99edp-1", "0x1.6fc1e6bddafe9p+0", "0x1.998d51ec9946bp-1",
        ],
    },
    "vtw": {
        "weights_sha256": "8cff51c1ceafe15d382e546cfb6bc7adbdfc47e8560a13761948855205d9e8a2",
        "tokens": [22, 17, 22, 17, 17, 11],
        "rr": 0.6,
        "kv": 0.6744186046511628,
        "logits": [
            "0x1.f8b290f35da56p-1", "-0x1.30a5d598d1a8cp+1", "-0x1.6d51cfbf81b24p-2",
            "-0x1.a543fc8bc00ffp-1", "0x1.9c63da0115d45p+0", "-0x1.325bc32985703p+1",
            "-0x1.20bf231e0e20ep+0", "-0x1.c80c0921d4f69p-3", "-0x1.6a15219c20ef8p-3",
            "-0x1.184b37565cbc8p-3", "-0x1.3d353efdeabbbp+0", "0x1.c1075fc1b0323p+0",
            "-0x1.45abe2acce574p-1", "-0x1.c8a9a3bc29254p-1", "-0x1.db0741f462d43p+0",
            "0x1.06d908551311bp-1", "-0x1.e506d8e19f5d0p-4", "0x1.1e07c2b349e96p+0",
            "0x1.2f4b225dc1ddap-2", "0x1.4e85bc3d98b35p-1", "-0x1.591ea944d9af6p-1",
            "0x1.c2e0b18779c3ap-3", "0x1.68ea88f73083dp+0", "-0x1.a0c31b959fd4fp-2",
        ],
    },
}


def golden_run(method):
    """(weights SHA-256, greedy tokens, RR, KV, final logits) of ``method``'s run."""
    seed, pruning = METHODS[method]
    weights = init_model(CONFIG, seed)
    digest = hashlib.sha256()
    for field in dataclasses.fields(weights):
        digest.update(getattr(weights, field.name).tobytes())
    seq = build_sequence(SEGMENTS, seed=seed, vocab_size=CONFIG.vocab_size)
    state, _, decisions = pruned_prefill(weights, CONFIG, seq, pruning)
    metrics = account(state, seq, decisions)
    tokens, token = [], 0
    for _ in range(STEPS):
        logits, state = decode_step(weights, CONFIG, state, token)
        token = int(np.argmax(logits))
        tokens.append(token)
    return digest.hexdigest(), tokens, metrics.retention_rate, metrics.kv_fraction, logits


@pytest.mark.parametrize("method", sorted(METHODS))
def test_run_matches_recorded_values(method):
    sha, tokens, rr, kv, logits = golden_run(method)
    want = GOLDENS[method]
    assert sha == want["weights_sha256"]
    assert tokens == want["tokens"]
    assert rr == want["rr"] and kv == want["kv"]
    want_logits = np.array([float.fromhex(x) for x in want["logits"]])
    assert np.max(np.abs(logits - want_logits)) <= 1e-9
