"""The seeded random samples of the `verify` suites.

The suites need uniform integers and uniform complex entries only, and the
hermitian operators and pure states made of them, so they draw them from
the standard library's Mersenne Twister instead of ``numpy.random``, whose
import loads OpenSSL through ``secrets`` and ``hashlib`` and adds about
6 MB to a `verify` process.
"""

from __future__ import annotations

import math
import random

import numpy as np


class Sampler:
    """Samples drawn from ``random.Random(seed)``.

    Every draw is read from 64-bit words of ``randbytes``, so it is an
    exact function of the seed on every platform.
    """

    def __init__(self, seed):
        self._random = random.Random(seed)

    def _words(self, shape):
        return np.frombuffer(self._random.randbytes(8 * math.prod(shape)),
                             "<u8").reshape(shape)

    def integers(self, lo, hi, size=()):
        """Ints in [lo, hi) of shape ``size``: the top bits of a word.  The
        span hi - lo must be a power of two."""
        span = hi - lo
        if span < 1 or span & (span - 1):
            raise ValueError(f"span {span} of [{lo}, {hi}) is not a power of two")
        out = self._words(size) >> np.uint64(65 - span.bit_length())
        return lo + out.astype(np.int64)

    def complex(self, shape):
        """Real and imaginary parts uniform in [-1, 1): the top 52 bits of
        a word each, scaled exactly."""
        return self.complex_draws(1, shape)[0][0]

    def complex_draws(self, count, *shapes):
        """``count`` rounds of one ``complex(shape)`` draw per shape, read at
        once: a (count, *shape) stack per shape, bitwise equal to the draws
        made one at a time."""
        sizes = [2 * math.prod(shape) for shape in shapes]
        units = (self._words((count, sum(sizes))) >> np.uint64(12)) * 2.0 ** -51 - 1.0
        out, start = [], 0
        for shape, size in zip(shapes, sizes):
            re, im = units[:, start:start + size].reshape(count, 2, *shape).swapaxes(0, 1)
            out.append(re + 1j * im)
            start += size
        return out

    def hermitian(self, dim, count):
        """``count`` draws of a + a^dagger with a = ``complex((dim, dim))``,
        as a (count, dim, dim) stack."""
        a, = self.complex_draws(count, (dim, dim))
        return a + a.conj().swapaxes(-1, -2)

    def pure(self, dim):
        """A normalized ``complex((dim,))`` vector."""
        v = self.complex((dim,))
        return v / np.linalg.norm(v)
