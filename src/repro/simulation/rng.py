"""Named, reproducible random streams for the simulation.

Every stochastic component of the simulation (peer sampling, churn, noise
shares, dataset jitter, ...) draws from its own named stream derived from a
single master seed.  This keeps runs exactly reproducible while making sure
that changing how one component consumes randomness does not silently shift
the randomness seen by the others.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .._validation import check_non_negative_int
from ..exceptions import SimulationError


class RngRegistry:
    """Factory of named :class:`numpy.random.Generator` streams.

    Each distinct name deterministically maps to an independent stream; the
    same (seed, name) pair always produces the same stream.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = check_non_negative_int(master_seed, "master_seed")
        self._streams: dict[str, np.random.Generator] = {}

    def _seed_for(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream registered under *name*."""
        if not name:
            raise SimulationError("stream names must not be empty")
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self._seed_for(name))
        return self._streams[name]
