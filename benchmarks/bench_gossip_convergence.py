"""E5 — gossip approximation error vs number of exchanges (Section III.B, item 3).

The demo keeps "the approximation error of gossip algorithms ... similar to a
context with a larger population by decreasing the number of messages per
participant"; the underlying fact is the exponential convergence of gossip
aggregation (Kempe et al., FOCS 2003).  This benchmark regenerates the error
curve: maximum relative error across participants as a function of the number
of gossip cycles.

The averaging is the kernels the slab engine and the plain distributed
baseline run: a uniform random matching of the population (``pair_online``)
whose pairs adopt their mean (``average_pairs_inplace``).  A cycle is the
protocol's: every participant initiates one exchange, n exchanges in all,
which is two matchings of n/2 pairs.  Two curves are not drawn:

* push-sum (Kempe et al.) — the protocol does not run it;
* encrypted averaging — pair by pair it decrypts to the cleartext average
  (``tests/test_gossip_encrypted.py::test_repeated_averaging_matches_cleartext``),
  so its curve is the cleartext one.

Expected shape: the error decreases exponentially (roughly halving per
cycle) for every population size.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.analysis import format_series, format_table
from repro.simulation import RngRegistry, average_pairs_inplace, pair_online


#: Matchings per cycle: n initiated exchanges are two matchings of n/2 pairs.
MATCHINGS_PER_CYCLE = 2


def _error_curve(values: np.ndarray, cycles: int, seed: int) -> list[float]:
    """Max over nodes of the relative L2 error against the true mean, after
    each cycle of matched pairwise averaging."""
    estimates = values.copy()
    mean = values.mean(axis=0)
    online = np.ones(values.shape[0], dtype=bool)
    pairing = RngRegistry(seed).stream("slab.pairing")
    history = []
    for _ in range(cycles):
        for _ in range(MATCHINGS_PER_CYCLE):
            average_pairs_inplace(estimates, pair_online(online, pairing))
        spread = np.linalg.norm(estimates - mean, axis=1).max()
        history.append(float(spread / np.linalg.norm(mean)))
    return history


def test_cleartext_convergence_curve(benchmark):
    values = np.random.default_rng(5).uniform(0.0, 1.0, size=(256, 8))

    history = run_once(benchmark, _error_curve, values, 20, 5)
    print()
    print(format_series(history, label="E5 - max relative error per gossip cycle (n=256)"))
    # Exponential convergence: after 20 cycles the error collapsed by >10^3.
    assert history[-1] < history[0] * 1e-3
    # Roughly monotone decrease.
    assert history[-1] == min(history)


def test_convergence_vs_population(benchmark):
    def run():
        rows = []
        for population in (64, 256, 1024):
            values = np.random.default_rng(7).uniform(0.0, 1.0, size=(population, 4))
            history = _error_curve(values, 16, 7)
            rows.append({
                "n_participants": population,
                "error_after_4": history[3],
                "error_after_8": history[7],
                "error_after_16": history[15],
            })
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, title="E5 - gossip error vs cycles and population size"))
    for row in rows:
        assert row["error_after_16"] < row["error_after_4"]
