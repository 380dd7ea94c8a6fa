"""The seeded random samples of the `verify` suites.

The suites need uniform integers and uniform complex entries only, so they
draw them from the standard library's Mersenne Twister instead of
``numpy.random``, whose import loads OpenSSL through ``secrets`` and
``hashlib`` and adds about 6 MB to a `verify` process.
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
        """Ints in [lo, hi) of shape ``size``: the top bits of a word when
        hi - lo is a power of two, ``randrange`` otherwise."""
        span = hi - lo
        if span & (span - 1):
            out = np.array([self._random.randrange(span)
                            for _ in range(math.prod(size))]).reshape(size)
        else:
            out = self._words(size) >> np.uint64(65 - span.bit_length())
        return lo + out.astype(np.int64)

    def complex(self, shape):
        """Real and imaginary parts uniform in [-1, 1): the top 52 bits of
        a word each, scaled exactly."""
        re, im = (self._words((2, *shape)) >> np.uint64(12)) * 2.0 ** -51 - 1.0
        return re + 1j * im
