"""Test helper for states of one lane.

Every MatrixProductState is a lane state: its kernels read one uniform per
lane id from each rng.random() and return one result per lane. A test of a
single trajectory wraps its scalar rng in OneLane and reads each result as
x[0].
"""

import numpy as np


class OneLane:
    """Wraps an rng whose random() returns a float (a numpy Generator, or a
    test's fixed draws) so that random() returns it as a length-1 array."""

    def __init__(self, rng):
        self.rng = rng

    def random(self) -> np.ndarray:
        return np.array([self.rng.random()])
