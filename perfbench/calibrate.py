"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared virtual CPUs whose speed drifts by a third
or more over tens of seconds. To take that drift out of a timing, a fixed
calibration kernel runs right before and right after each timed step,
and the step's seconds are scaled by
``CAL_REF_S / <kernel seconds around it>``: they read as seconds on a
machine where one kernel chunk takes ``CAL_REF_S``.

Set-up time is mostly imports, which follow the speed of importing in a
fresh interpreter rather than that of the kernel below. Its reference is
``import_seconds``: a fresh isolated interpreter timing the import of a
fixed set of standard-library modules, scaled against ``IMPORT_REF_S``
the same way. Over ten windows of eight set-up probes this brought the
spread of the median from 0.22 raw to 0.03.

The kernel is a two-site MPS update written with numpy alone: contract
two bond-dimension-4 site tensors, split the block by SVD and fold the
normalised singular values into the left factor. It uses nothing from
``sebd``, so a change to the program moves the scaled times exactly as it
moves the raw ones. Of the kernels tried (LAPACK on 16x16 and 32x32
blocks, pure Python, this update at bond dimension 2 to 16), this one
was best or within 0.02 of the best on every workload: over ten 20-24 s
windows the spread of the median command time was 0.04-0.07 scaled
against 0.17-0.32 raw.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

__all__ = ["CAL_REF_S", "Calibrator", "IMPORT_REF_S", "import_seconds"]

# median seconds of one chunk on the 2.1 GHz Xeon vCPU the benchmark was
# written on, so that scaled times read close to plain seconds there
CAL_REF_S = 0.013

# median seconds of import_seconds() on that machine
IMPORT_REF_S = 0.075
_IMPORT_REF_MODULES = (
    "email.mime.multipart, http.client, json, decimal, asyncio, unittest, xml.dom.minidom, argparse"
)

# bound at import, before a traced run wraps numpy.linalg, so that the
# kernel's calls never count as spans
_svd = np.linalg.svd
_norm = np.linalg.norm

_CHI = 4
_REPS = 100


class Calibrator:
    """Times fixed chunks of the calibration kernel."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        shape = (_CHI, 2, 2, _CHI)
        self._site = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.chunk()  # warm up

    def chunk(self) -> float:
        """Seconds of one kernel chunk."""
        site = self._site
        t0 = time.perf_counter()
        for _ in range(_REPS):
            theta = np.tensordot(site, site, axes=([3], [0])).reshape(4 * _CHI, 4 * _CHI)
            u, s, _ = _svd(theta, full_matrices=False)
            np.einsum("ij,j->ij", u, s / _norm(s))
        return time.perf_counter() - t0

    def sample(self, seconds: float) -> float:
        """Mean seconds per chunk over chunks run for about ``seconds``."""
        times = [self.chunk()]
        while sum(times) < seconds:
            times.append(self.chunk())
        return sum(times) / len(times)


def import_seconds(timeout: float = 60.0) -> float:
    """Seconds a fresh isolated interpreter takes to import the reference modules."""
    code = f"import time; t = time.perf_counter(); import {_IMPORT_REF_MODULES}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=timeout, check=True
    )
    return float(proc.stdout)
