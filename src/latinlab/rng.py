"""Deterministic randomness for every stochastic routine in the package.

All draws come from Philox, a counter-based 64-bit generator, so a run is
reproducible across platforms and across worker counts.  Seeds fan out to
independent streams by entropy composition: the stream for child ``path``
of master seed ``s`` is built from ``numpy.random.SeedSequence((s, *path))``,
and ``RandomStream.child`` spawns numbered streams from a stream's own
seed sequence, for a routine that gives each of its uses its own draws.
Scalar draws are served from pre-generated blocks of 62-bit words
because per-call ``Generator`` overhead dominates tight Markov-chain
loops.  ``randrange`` takes one word per call; the Jacobson-Matthews
kernel in ``sampling`` reads the block in place (``block``, then
``seek`` to where it stopped), one word per move, so both see the same
word sequence and no word is used twice.  Blocks start at FIRST_BLOCK
words and double up to BLOCK, so a stream that reads a few dozen words
does not pay for sixteen thousand.  Each word is one 64-bit Philox
output masked to 62 bits, whatever the block size, so the words are
those of a single ``integers(0, 2**62, size=N, dtype=np.int64)`` draw.
"""

from __future__ import annotations

import numpy as np

from .core import InputError


class RandomStream:
    """Buffered scalar interface over a Philox generator.

    ``generator`` stays exposed for vectorised numpy work; the scalar
    helpers below share the same underlying counter stream.
    """

    FIRST_BLOCK = 1 << 6
    BLOCK = 1 << 14

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            ss = seed
        else:
            if int(seed) < 0:
                raise InputError(
                    f"seed must be a non-negative integer, got {seed}")
            # the 0 is part of the entropy of every stream drawn so far
            ss = np.random.SeedSequence((int(seed), 0))
        self.seed_sequence = ss
        self.generator = np.random.Generator(np.random.Philox(ss))
        self._buf: list[int] = []
        self._pos = 0

    def _refill(self) -> None:
        size = min(max(2 * len(self._buf), self.FIRST_BLOCK), self.BLOCK)
        self._buf = self.generator.integers(
            0, 1 << 62, size=size, dtype=np.int64
        ).tolist()
        self._pos = 0

    def block(self) -> tuple[list[int], int]:
        """The buffered words and the index of the first unread one,
        refilled first when every word has been read.  A caller that
        reads words in place reports where it stopped with ``seek``."""
        if self._pos >= len(self._buf):
            self._refill()
        return self._buf, self._pos

    def seek(self, pos: int) -> None:
        """Mark the words of the current block before ``pos`` as read."""
        self._pos = pos

    def randrange(self, bound: int) -> int:
        # modulo bias is < bound / 2**62, far below anything measurable here
        if self._pos >= len(self._buf):
            self._refill()
        v = self._buf[self._pos]
        self._pos += 1
        return v % bound

    def child(self, index: int) -> RandomStream:
        """Independent stream number ``index`` spawned from this stream's
        seed sequence; the same whatever this stream has already drawn."""
        ss = self.seed_sequence
        return RandomStream(np.random.SeedSequence(
            ss.entropy, spawn_key=(*ss.spawn_key, int(index)),
            pool_size=ss.pool_size))

    def shuffled(self, items):
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randrange(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def substream(master_seed: int, *path: int) -> RandomStream:
    """Independent stream for a child task, stable under re-partitioning.

    Child ``(i,)`` of seed ``s`` always sees the same randomness no matter
    how many siblings run or in what order, which keeps multi-worker
    experiment runs byte-identical to serial ones.
    """
    return RandomStream(np.random.SeedSequence((int(master_seed), *map(int, path))))
