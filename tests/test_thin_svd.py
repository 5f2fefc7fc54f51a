"""The closed-form SVD of stacked thin blocks agrees with LAPACK's at every lane count."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sebd import mps
from sebd.mps import _thin_svd

# how each lane is drawn: random, rank 1 (parallel columns or rows), one
# zero column, all zero, and entries of modulus 1 (columns of exactly equal
# norm, where the sign of the Gram matrix's diagonal difference is zero)
LANE_KINDS = ("random", "rank1", "zero-column", "zero", "unimodular")


def lane(rng, kind, m, n):
    z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    if kind == "rank1":
        return np.outer(z[:, 0], z[0])
    if kind == "zero-column":
        z[:, rng.integers(n)] = 0.0
    if kind == "zero":
        return np.zeros((m, n), dtype=complex)
    if kind == "unimodular":
        return 1j ** rng.integers(0, 4, size=(m, n))
    return z


@given(
    side=st.sampled_from(("m1", "1n", "m2", "2n")),
    length=st.integers(1, 8),
    kinds=st.lists(st.sampled_from(LANE_KINDS), min_size=1, max_size=6),
    exponent=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_thin_stacked_svd_matches_lapack(side, length, kinds, exponent, seed):
    rng = np.random.default_rng(seed)
    m, n = {"m1": (length, 1), "1n": (1, length), "m2": (length, 2), "2n": (2, length)}[side]
    a = np.stack([lane(rng, kind, m, n) for kind in kinds]) * 10.0**exponent
    # called directly: _robust_svd sends stacks of few lanes to LAPACK
    u, s, vh = _thin_svd(a)
    k = min(m, n)
    b = len(kinds)
    assert u.shape == (b, m, k) and s.shape == (b, k) and vh.shape == (b, k, n)
    size = np.linalg.norm(a, axis=(1, 2))
    rebuilt = (u * s[:, None, :]) @ vh
    assert (np.linalg.norm(a - rebuilt, axis=(1, 2)) <= 1e-14 * size).all()
    eye = np.eye(k)
    assert np.abs(u.conj().swapaxes(1, 2) @ u - eye).max() <= 1e-13
    assert np.abs(vh @ vh.conj().swapaxes(1, 2) - eye).max() <= 1e-13
    want = np.linalg.svd(a, compute_uv=False)
    assert (np.abs(s - want) <= 1e-14 * want[:, :1]).all()
    assert (np.diff(s, axis=1) <= 0.0).all()


def test_stacks_take_the_closed_form_from_their_lane_threshold(monkeypatch):
    # few lanes go to LAPACK, where gesdd is as fast; one-lane matrices always do
    taken = []
    monkeypatch.setattr(mps, "_thin_svd", lambda a: taken.append(a.shape) or "closed")
    for k, shape in ((1, (5, 1)), (1, (1, 3)), (2, (4, 2)), (2, (2, 8))):
        least = mps.THIN_SVD_MIN_LANES[k]
        for lanes in (1, least - 1, least, 2 * least):
            a = np.ones((lanes,) + shape, dtype=complex)
            closed = mps._robust_svd(a) == "closed"
            assert closed == (lanes >= least), (shape, lanes)
        assert mps._robust_svd(np.ones(shape, dtype=complex)) != "closed"
    wide = np.ones((64, 3, 3), dtype=complex)
    assert mps._robust_svd(wide) != "closed"
