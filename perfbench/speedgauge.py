"""Host-speed normalisation for the benchmark's end-to-end timings.

The benchmark runs on shared machines whose speed drifts over seconds to
minutes: identical decode steps took from 29 to 60 ms within one minute, in
CPU time as much as in wall time. A run therefore samples the host's speed
with fixed reference kernels between the timed pieces of its operations
(between decode steps, before each prefill hook call, between replay calls,
between set-ups) and scales every piece by

    REFERENCE_S[kind] / median(reference samples of that kind around the piece)

so that a normalised time reads as seconds on a host that runs the reference
kernel in ``REFERENCE_S[kind]``. Two kernels cover the program's two kinds of
work, and each piece is scaled by the one that matches it:

- ``interp``: numpy calls on 1 x 4 operands in a Python loop, like a decode
  step's attention at head_dim 4, whose time is interpreter overhead;
- ``mixed``: the loop matmul and softmax on 64 x 64 operands plus streaming
  passes over 8 MiB, like prefill, trace I/O and report building.

The kernels live here, not in plphp, so no change to the program can move
them. Samples are excluded from every timed piece. With the gauge disabled
(the traced run) nothing is sampled and normalised times equal raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median duration of one sample of each kernel on the machine the benchmark
# was tuned on (see perfbench/baseline.json); only the unit of normalised
# times depends on them.
REFERENCE_S = {"interp": 0.0022, "mixed": 0.0065}
# Samples on each side of a piece that its scale is the median of.
HALF_WINDOW = 3


class SpeedGauge:
    """Splits operations into timed pieces separated by reference samples.

    ``start(op, kind)`` opens a piece of operation ``op``; ``sample(kind)``
    closes the open piece, samples both kernels and opens the next piece of
    the same operation (of ``kind``, if given); ``stop()`` closes the piece.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        rng = np.random.Generator(np.random.PCG64(20250220))
        self._row, self._col = rng.random((1, 4)), rng.random((1, 4))
        self._a, self._b = rng.random((64, 8)), rng.random((8, 64))
        self._src = rng.random(1 << 20)  # 8 MiB
        self._dst = np.empty_like(self._src)
        self.samples: dict[str, list[float]] = {kind: [] for kind in REFERENCE_S}
        self.sampled_s = 0.0  # total time spent sampling
        self.pieces: list[tuple[object, str, float, int]] = []  # (op, kind, raw s, next sample)
        self._op, self._kind, self._t = None, "mixed", 0.0

    def _interp(self) -> None:
        out = np.zeros((1, 4))
        tmp = np.empty_like(out)
        for _ in range(2500):
            np.multiply(self._row, self._col, out=tmp)
            out += tmp

    def _mixed(self) -> None:
        a, b = self._a, self._b
        for _ in range(12):
            out = np.zeros((a.shape[0], b.shape[1]))
            tmp = np.empty_like(out)
            for k in range(a.shape[1]):
                np.multiply(a[:, k:k + 1], b[k:k + 1, :], out=tmp)
                out += tmp
            out -= out.max(axis=1, keepdims=True)
            np.exp(out, out=out)
            out /= out.sum(axis=1, keepdims=True)
        for _ in range(2):
            np.multiply(self._src, 1.0000001, out=self._dst)
            self._dst += self._src

    def start(self, op, kind: str = "mixed") -> None:
        self._op, self._kind = op, kind
        self._t = time.perf_counter()

    def stop(self) -> None:
        self.pieces.append((self._op, self._kind, time.perf_counter() - self._t,
                            len(self.samples["mixed"])))
        self._op = None

    def sample(self, kind: str | None = None) -> None:
        """Close the open piece (if any), sample both kernels, reopen."""
        if not self.enabled:
            return
        op, kind = self._op, kind or self._kind
        if op is not None:
            self.stop()
        t0 = time.perf_counter()
        for name, kernel in (("interp", self._interp), ("mixed", self._mixed)):
            t1 = time.perf_counter()
            kernel()
            self.samples[name].append(time.perf_counter() - t1)
        self.sampled_s += time.perf_counter() - t0
        if op is not None:
            self.start(op, kind)

    def interleave(self, hook):
        """A prefill hook that samples before each call."""
        if hook is None or not self.enabled:
            return hook

        def sampled(*args):
            self.sample()
            return hook(*args)
        return sampled

    def scale(self, kind: str, next_sample: int) -> float:
        """Normalisation factor of a ``kind`` piece followed by ``next_sample``."""
        series = self.samples[kind]
        window = series[max(0, next_sample - HALF_WINDOW):next_sample + HALF_WINDOW]
        return REFERENCE_S[kind] / statistics.median(window) if window else 1.0

    def totals(self, ops, kind: str | None = None) -> tuple[list[float], list[float]]:
        """(raw, normalised) seconds of each of ``ops``, summed over its pieces
        (over its pieces of ``kind`` only, if given)."""
        raw = {op: 0.0 for op in ops}
        norm = dict(raw)
        for op, piece_kind, took, nxt in self.pieces:
            if op in raw and kind in (None, piece_kind):
                raw[op] += took
                norm[op] += took * self.scale(piece_kind, nxt)
        return [raw[op] for op in ops], [norm[op] for op in ops]
