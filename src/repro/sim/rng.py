"""Named deterministic random-number streams.

Every stochastic element of the simulation (transport jitter, script
execution variation, NFS service noise) draws from its own named
stream.  Streams are derived from a single experiment seed via SHA-256,
so adding a new consumer never perturbs the draws seen by existing
ones — figures regenerate bit-identically across runs and versions.

What a name costs: a ``random.Random`` is ~2.9 KB, and a request whose
DAG ends in an action nobody else's has names streams that are drawn
from exactly once.  The hub keeps a generator only for a name that
comes back or that :meth:`RngHub.stream` handed out: a first
``uniform``/``lognormal`` on an unseen name seeds, draws, journals that
one call and lets the generator go; the next access re-seeds and
replays it.  What is stored changes, never what is drawn.  Memory stays
O(distinct names), and nothing resident is evicted: a generator in use
cannot be rebuilt short of its whole draw history.
"""

from __future__ import annotations

import hashlib
import random
from math import exp, log
from random import NV_MAGICCONST
from typing import Dict, Tuple

__all__ = ["RngHub"]


class RngHub:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        #: Generators of the names drawn from twice or handed out.
        self._streams: Dict[str, random.Random] = {}
        #: ``(method, its two arguments)`` of a name's only draw so far.
        self._drawn_once: Dict[str, Tuple[str, float, float]] = {}

    def _seeded(self, name: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``: resident, never rebuilt."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = self._seeded(name)
            journaled = self._drawn_once.pop(name, None)
            if journaled is not None:
                method, a, b = journaled
                getattr(rng, method)(a, b)
        return rng

    def _unresident(
        self, name: str, method: str, a: float, b: float
    ) -> random.Random:
        """The generator for a named draw on a name that has none
        resident: the first draw's own (journaled, then let go) or,
        on the second, the replayed resident one."""
        if name in self._drawn_once:
            return self.stream(name)
        self._drawn_once[name] = (method, a, b)
        return self._seeded(name)

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw ``U[low, high)`` from the named stream: what
        ``random.uniform`` computes, without its frame."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._unresident(name, "uniform", low, high)
        return low + (high - low) * rng.random()

    def expovariate(self, name: str, rate: float) -> float:
        """Draw an exponential inter-arrival with the given rate."""
        return self.stream(name).expovariate(rate)

    def lognormal(self, name: str, mu: float, sigma: float) -> float:
        """Draw a log-normal variate (natural-log parameters).

        What ``random.lognormvariate`` computes, spelled out: the
        stdlib's Kinderman–Monahan loop (``normalvariate``) on the
        stream's ``random``, so a draw is one Python call and bit for
        bit the stdlib's value (``tests/test_rng.py`` holds it to it).
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = self._unresident(name, "normalvariate", mu, sigma)
        draw = rng.random
        while True:
            u1 = draw()
            u2 = 1.0 - draw()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                return exp(mu + z * sigma)

    def choice(self, name: str, seq):
        """Pick a uniformly random element of ``seq``.

        What ``random.choice`` computes, spelled out: the stdlib's
        ``_randbelow_with_getrandbits`` on the stream's ``getrandbits``,
        so a pick is one Python call and bit for bit the stdlib's.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = self.stream(name)
        n = len(seq)
        if not n:  # ``getrandbits(0)`` is 0, which is never below 0
            raise IndexError("Cannot choose from an empty sequence")
        getrandbits = rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]
