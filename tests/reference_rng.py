"""Pure-Python-int reference of the counter hash behind DeterministicRng.

Deliberately independent of warmdiff.core: the SplitMix64 finalizer is
written out on unbounded Python ints reduced mod 2^64 by hand, one address
at a time, with no numpy. Also holds a recorder that lists every address the
engine draws.
"""

from hashlib import blake2b

import numpy as np

from warmdiff.core import DeterministicRng

MOD = 2**64


def splitmix64(z):
    """SplitMix64's output function (Steele, Lea & Flood 2014)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % MOD
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % MOD
    return z ^ (z >> 31)


def purpose_key(purpose):
    return int.from_bytes(blake2b(purpose.encode("utf-8"), digest_size=8).digest(), "little")


def reference_draw(seed, purpose, position, iteration):
    """The uniform at (purpose, position, iteration) under `seed`."""
    gamma = 0x9E3779B97F4A7C15
    key = splitmix64(seed % MOD)
    base = splitmix64((splitmix64(key ^ purpose_key(purpose)) + iteration % MOD * gamma) % MOD)
    z = splitmix64((position % MOD * gamma + base) % MOD)
    return (z >> 11) / 2**53


def reference_run_key(seed, run):
    return splitmix64((splitmix64(seed % MOD) + (run + 1) * 0x9E3779B97F4A7C15) % MOD)


def record_draws(monkeypatch):
    """Patch DeterministicRng.draws to append (purpose, position, iteration)
    for each address it draws; returns the list it fills."""
    seen = []
    draws = DeterministicRng.draws

    def recording_draws(self, purpose, positions, iteration):
        seen.extend((purpose, int(p), iteration) for p in np.asarray(positions, dtype=np.int64))
        return draws(self, purpose, positions, iteration)

    monkeypatch.setattr(DeterministicRng, "draws", recording_draws)
    return seen
