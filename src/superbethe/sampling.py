"""Seeded drawing of small generic rational parameters.

All randomness flows from one seeded generator per consumer; values are p/q
with |p| <= 64, q <= 64. "Generic" draws keep every pairwise difference away
from 0 and +-c, which is exactly the pole set of the g/f/h coefficients and
of the symmetrized products, so drawn campaigns never hit a removable
precondition failure. That test runs on the cleared int pairs of the
candidate, the avoided values and c (ParameterSampler.generic), so a
rejected candidate builds no rational.
"""

from __future__ import annotations

import random

from .rational import ONE, rat
from .scalars import as_pair, is_zero


class ParameterSampler:
    def __init__(self, seed, c=1):
        self.rng = random.Random(seed)
        self.c = ONE * c

    def _pair(self):
        return self.rng.randint(-64, 64), self.rng.randint(1, 64)

    def rational(self):
        return rat(*self._pair())

    def nonzero(self):
        while True:
            x = self.rational()
            if not is_zero(x):
                return x

    def twist(self):
        return (self.nonzero(), self.nonzero(), self.nonzero())

    def generic(self, n, avoid=()):
        """n values whose mutual differences (and differences against avoid)
        miss 0 and +-c.

        Each candidate is drawn as the int pair (p, q) that rational()
        draws, and tested before any rational is built: with a value of avoid
        or an accepted one cleared as r/s and c = cn/cd, the difference is
        e/(cd q s), e = cd (p s - r q), and it hits 0 or +-c iff e is 0 or
        |e| = |cn q s|. Only an accepted candidate becomes a rational."""
        cn, cd = as_pair(self.c)
        pairs = [as_pair(y) for y in avoid]
        out = []
        while len(out) < n:
            p, q = self._pair()
            for r, s in pairs:
                e = cd * (p * s - r * q)
                if not e or abs(e) == abs(cn * q * s):
                    break
            else:
                pairs.append((p, q))
                out.append(rat(p, q))
        return tuple(out)

    def generic_one(self, avoid=()):
        return self.generic(1, avoid)[0]
