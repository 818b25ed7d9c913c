"""Named deterministic random-number streams.

Every stochastic element of the simulation (transport jitter, script
execution variation, NFS service noise) draws from its own named
stream.  Streams are derived from a single experiment seed via SHA-256,
so adding a new consumer never perturbs the draws seen by existing
ones — figures regenerate bit-identically across runs and versions.
"""

from __future__ import annotations

import hashlib
import random
from math import exp
from typing import Dict

__all__ = ["RngHub"]


class RngHub:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (cached) stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw ``U[low, high)`` from the named stream."""
        return self.stream(name).uniform(low, high)

    def expovariate(self, name: str, rate: float) -> float:
        """Draw an exponential inter-arrival with the given rate."""
        return self.stream(name).expovariate(rate)

    def lognormal(self, name: str, mu: float, sigma: float) -> float:
        """Draw a log-normal variate (natural-log parameters).

        What ``random.lognormvariate`` computes, spelled out to save
        its frame on a path every transport hop takes.
        """
        return exp(self.stream(name).normalvariate(mu, sigma))

    def choice(self, name: str, seq):
        """Pick a uniformly random element of ``seq``."""
        return self.stream(name).choice(seq)

    def __repr__(self) -> str:
        return f"<RngHub seed={self.seed} streams={len(self._streams)}>"
