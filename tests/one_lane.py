"""Test helpers for states of one lane.

Every MatrixProductState is a lane state: its kernels read one uniform per
lane id from each rng.random() and return one result per lane. A test of a
single trajectory wraps its scalar rng in OneLane and reads each result as
x[0]. step is the tests' own event dispatcher, so a reference loop built on
it shares no dispatch code with the sampler's block loop that it checks.
scan_bits reads a trajectory record's bits in scan order.
"""

import numpy as np

from sebd.lightcone import Gate, MeasureReset, Noise


class OneLane:
    """Wraps an rng whose random() returns a float (a numpy Generator, or a
    test's fixed draws) so that random() returns it as a length-1 array."""

    def __init__(self, rng):
        self.rng = rng

    def random(self) -> np.ndarray:
        return np.array([self.rng.random()])


def step(psi, ev, policy, rng, m: list) -> bool:
    """Apply a gate or noise event, appending sampled Kraus indices to m.

    A pick holds one index per lane. Returns False, having done nothing,
    for a readout, which each caller handles its own way.
    """
    if isinstance(ev, Gate):
        if ev.j is None:
            psi.apply_1q(ev.i, ev.matrix)
        else:
            picks = psi.apply_2q(ev.i, ev.j, ev.matrix, policy, ev.kraus, rng)
            if picks is not None:
                m.extend(picks)
        return True
    if isinstance(ev, Noise):
        m.append(psi.apply_kraus(ev.i, ev.kraus, rng))
        return True
    if isinstance(ev, MeasureReset):
        return False
    raise TypeError(f"unknown event {ev!r}")


def scan_bits(rec) -> tuple:
    """rec.z's bits in scan order: row by row (y), then x within a row."""
    return tuple(rec.z[c] for c in sorted(rec.z, key=lambda c: (c[1], c[0])))
