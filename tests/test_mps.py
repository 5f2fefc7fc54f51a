"""MPS backend tests, cross-checked against the dense oracles."""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from sebd.channels import (
    KrausSet,
    NoiseModel,
    gauge_transform,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
)
from sebd import mps
from sebd.gates import CNOT, CZ, H, SWAP, W, X, fsim, pauli_half_power
from sebd.lightcone import build_lattice, compile_sebd, random_instance
from sebd.mps import (
    DEFAULT_POLICY,
    MatrixProductState,
    MpsError,
    TruncationOverflow,
    TruncationPolicy,
)
from sebd.oracles.dense import DenseVector
from sebd.sampler import RunConfig, _LaneUniforms, run_trajectory

from one_lane import OneLane

LN2 = np.log(2.0)
BIG = TruncationPolicy(chi_max=4096, svd_cutoff=0.0)


class FakeRng:
    """Deterministic stand-in for rng.random(), fed from a list; wrap it in
    OneLane for a state of one lane."""

    def __init__(self, vals):
        self.vals = list(vals)

    def random(self):
        return self.vals.pop(0)


def clone(psi):
    """An independent copy of a state."""
    return copy.deepcopy(psi)


def ghz(n):
    psi = MatrixProductState.new_product_state(n)
    psi.apply_1q(0, H)
    for i in range(n - 1):
        psi.apply_2q(i, i + 1, CNOT, BIG)
    return psi


def random_state(n, seed, depth=12):
    rng = np.random.default_rng(seed)
    psi = MatrixProductState.new_product_state(n)
    for _ in range(depth):
        s = int(rng.integers(n))
        psi.apply_1q(s, unitary_group.rvs(2, random_state=rng))
        i = int(rng.integers(n - 1))
        psi.apply_2q(i, i + 1, unitary_group.rvs(4, random_state=rng), BIG)
    return psi


class TestConstruction:
    def test_product_amplitudes(self):
        psi = MatrixProductState.new_product_state(3, "000")
        assert psi.amplitude("000") == pytest.approx(1.0)
        assert psi.amplitude("010") == pytest.approx(0.0)

    def test_single_one(self):
        psi = MatrixProductState.new_product_state(1, "1")
        v = psi.to_dense()
        rho = np.outer(v, v.conj())
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-15)

    def test_all_cuts_unentangled(self):
        psi = MatrixProductState.new_product_state(6, "010011")
        for cut in range(1, 6):
            assert psi.entropy(cut)[0] == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(MpsError):
            MatrixProductState.new_product_state(0)


class TestGates:
    def test_x_flips(self):
        psi = MatrixProductState.new_product_state(2)
        psi.apply_1q(0, X)
        assert abs(psi.amplitude("10")) == pytest.approx(1.0, abs=1e-12)

    def test_half_power_squares(self):
        half = pauli_half_power(W)
        psi = MatrixProductState.new_product_state(1)
        psi.apply_1q(0, half)
        psi.apply_1q(0, half)
        ref = MatrixProductState.new_product_state(1)
        ref.apply_1q(0, W)
        np.testing.assert_allclose(psi.to_dense(), ref.to_dense(), atol=1e-12)

    def test_gate_then_inverse(self):
        g = unitary_group.rvs(2, random_state=np.random.default_rng(1))
        psi = random_state(4, 7)
        before = psi.to_dense()
        psi.apply_1q(2, g)
        psi.apply_1q(2, g.conj().T)
        np.testing.assert_allclose(psi.to_dense(), before, atol=1e-12)

    def test_fsim_action(self):
        g = fsim(np.pi / 2, np.pi / 6)
        psi = MatrixProductState.new_product_state(2, "01")
        psi.apply_2q(0, 1, g, BIG)
        assert psi.amplitude("10") == pytest.approx(-1j, abs=1e-12)
        psi = MatrixProductState.new_product_state(2, "11")
        psi.apply_2q(0, 1, g, BIG)
        assert psi.amplitude("11") == pytest.approx(np.exp(-1j * np.pi / 6), abs=1e-12)

    def test_cz_on_plus_plus_matches_dense(self):
        psi = MatrixProductState.new_product_state(2)
        dv = DenseVector(2)
        for s in (0, 1):
            psi.apply_1q(s, H)
            dv.apply_1q(s, H)
        psi.apply_2q(0, 1, CZ, BIG)
        dv.apply_2q(0, 1, CZ)
        assert psi.entropy(1)[0] == pytest.approx(dv.renyi_entropy(1), abs=1e-10)

    def test_long_range_matches_dense(self):
        g = unitary_group.rvs(4, random_state=np.random.default_rng(3))
        psi = random_state(6, 11)
        dv = DenseVector(6)
        dv.psi = psi.to_dense().copy()
        psi.apply_2q(1, 4, g, BIG)
        dv.apply_2q(1, 4, g)
        np.testing.assert_allclose(psi.to_dense(), dv.psi, atol=1e-10)

    def test_reversed_pair_matches_dense(self):
        g = unitary_group.rvs(4, random_state=np.random.default_rng(8))
        psi = random_state(5, 13)
        dv = DenseVector(5)
        dv.psi = psi.to_dense().copy()
        psi.apply_2q(3, 0, g, BIG)
        dv.apply_2q(3, 0, g)
        np.testing.assert_allclose(psi.to_dense(), dv.psi, atol=1e-10)


class TestKraus:
    def test_identity_only(self):
        psi = MatrixProductState.new_product_state(3)
        out = psi.apply_kraus(1, KrausSet((np.eye(2, dtype=complex),)), OneLane(FakeRng([0.3])))
        assert out[0] == 0
        assert psi.amplitude("000") == pytest.approx(1.0)

    def test_projective_on_zero_probs(self):
        # Born weights on |0> are (0.8, 0.2, 0); the walk picks by cumulative sum
        k = make_dephasing(0.1, "projective")
        psi = MatrixProductState.new_product_state(1)
        assert psi.apply_kraus(0, k, OneLane(FakeRng([0.79])))[0] == 0
        psi = MatrixProductState.new_product_state(1)
        assert psi.apply_kraus(0, k, OneLane(FakeRng([0.81])))[0] == 1
        psi = MatrixProductState.new_product_state(1)
        assert psi.apply_kraus(0, k, OneLane(FakeRng([0.999999])))[0] == 1

    def test_weak_on_plus_tilts_bloch(self):
        eps = 0.1
        k = make_dephasing(eps, "weak-optimal")
        for draw, sign in ((0.2, +1), (0.8, -1)):
            psi = MatrixProductState.new_product_state(1)
            psi.apply_1q(0, H)
            psi.apply_kraus(0, k, OneLane(FakeRng([draw])))
            vec = psi.to_dense()
            z = abs(vec[0]) ** 2 - abs(vec[1]) ** 2
            assert z == pytest.approx(sign * 2 * np.sqrt(eps * (1 - eps)), abs=1e-12)

    def test_born_consistency_bulk(self):
        # empirical outcome rate of the weak pair on |+> vs its exact 1/2
        k = make_dephasing(0.23, "weak-optimal")
        base = MatrixProductState.new_product_state(1)
        base.apply_1q(0, H)
        rng = OneLane(np.random.default_rng(42))
        n_draws = 100_000
        hits = 0
        for _ in range(n_draws):
            psi = clone(base)
            hits += psi.apply_kraus(0, k, rng)[0]
        sigma = np.sqrt(n_draws * 0.25)
        assert abs(hits - n_draws / 2) < 4 * sigma


class TestMeasureProject:
    def test_measure_one(self):
        psi = MatrixProductState.new_product_state(2, "01")
        assert psi.measure_reset(1, OneLane(FakeRng([0.5])))[0] == 1
        assert psi.amplitude("00") == pytest.approx(1.0)

    def test_measure_plus_statistics(self):
        rng = OneLane(np.random.default_rng(11))
        counts = 0
        for _ in range(10_000):
            psi = MatrixProductState.new_product_state(1)
            psi.apply_1q(0, H)
            counts += psi.measure_reset(0, rng)[0]
        # chi-square against the fair coin at the 4-sigma level
        assert abs(counts - 5000) < 4 * np.sqrt(10_000 * 0.25)

    def test_bell_collapse(self):
        psi = ghz(2)
        bit = psi.measure_reset(0, OneLane(FakeRng([0.9])))[0]
        assert bit == 1
        assert abs(psi.amplitude("01")) == pytest.approx(1.0, abs=1e-12)

    def test_project_trivials(self):
        psi = MatrixProductState.new_product_state(1)
        assert psi.project_onto(0, 0)[0] == pytest.approx(1.0)
        psi = MatrixProductState.new_product_state(1)
        psi.apply_1q(0, H)
        assert psi.project_onto(0, 1)[0] == pytest.approx(0.5)

    def test_bell_sequential_projections(self):
        psi = ghz(2)
        p = psi.project_onto(0, 0)[0]
        q = psi.project_onto(1, 0)[0]
        assert p * q == pytest.approx(0.5, abs=1e-12)

    def test_impossible_projection_raises(self):
        psi = MatrixProductState.new_product_state(1)
        with pytest.raises(MpsError):
            psi.project_onto(0, 1)

    def test_projection_shrinks_adjacent_bond(self):
        psi = ghz(4)
        assert psi.max_bond() == 2
        psi.project_onto(1, 0)
        # the bond fed by the projected site drops to the used rank; bonds
        # elsewhere may keep transient slack until the next truncated update
        assert psi.bond_dims()[2] == 1


class TestEntropy:
    def test_bell_all_orders(self):
        psi = ghz(2)
        assert psi.entropy(1)[0] == pytest.approx(LN2, abs=1e-12)
        dv = DenseVector(2)
        dv.psi = psi.to_dense().copy()
        for n in (0.5, 1.0, 2.0, 3.0):
            assert dv.renyi_entropy(1, n) == pytest.approx(LN2, abs=1e-12)

    def test_random_mid_cut_matches_dense(self):
        psi = random_state(8, 23)
        dv = DenseVector(8)
        dv.psi = psi.to_dense().copy()
        assert psi.entropy(4)[0] == pytest.approx(dv.renyi_entropy(4, 1.0), abs=1e-8)

    def test_entropy_bounded_by_bond(self):
        policy = TruncationPolicy(chi_max=4, svd_cutoff=0.0)
        rng = np.random.default_rng(2)
        psi = MatrixProductState.new_product_state(8)
        for _ in range(30):
            i = int(rng.integers(7))
            psi.apply_2q(i, i + 1, unitary_group.rvs(4, random_state=rng), policy)
        for cut in range(1, 8):
            chi = psi.bond_dims()[cut]
            assert psi.entropy(cut)[0] <= np.log(chi) + 1e-9

    def test_subsystem_full_is_zero(self):
        psi = random_state(6, 3)
        dv = DenseVector(6)
        dv.psi = psi.to_dense().copy()
        assert dv.subsystem_renyi(range(6)) == pytest.approx(0.0, abs=1e-10)
        product = MatrixProductState.new_product_state(6, bits=[1, 0, 1, 1, 0, 0])
        for cut in range(1, 6):
            assert product.entropy(cut)[0] == pytest.approx(0.0, abs=1e-12)

    def test_complement_symmetry(self):
        psi = random_state(7, 19)
        dv = DenseVector(7)
        dv.psi = psi.to_dense().copy()
        a = dv.subsystem_renyi([0, 1, 2])
        b = dv.subsystem_renyi([3, 4, 5, 6])
        assert a == pytest.approx(b, abs=1e-8)
        assert psi.entropy(3)[0] == pytest.approx(b, abs=1e-8)

    def test_ghz_two_blocks(self):
        psi = ghz(8)
        for cut in range(1, 8):
            assert psi.entropy(cut)[0] == pytest.approx(LN2, abs=1e-10)
        dv = DenseVector(8)
        dv.psi = psi.to_dense().copy()
        assert dv.subsystem_renyi([1, 2, 5, 6]) == pytest.approx(LN2, abs=1e-10)

    def test_two_blocks_match_dense(self):
        psi = random_state(8, 31)
        dv = DenseVector(8)
        dv.psi = psi.to_dense().copy()
        for cut in range(1, 8):
            left, right = list(range(cut)), list(range(cut, 8))
            s = psi.entropy(cut)[0]
            assert s == pytest.approx(dv.subsystem_renyi(left, 1.0), abs=1e-6)
            assert s == pytest.approx(dv.subsystem_renyi(right, 1.0), abs=1e-6)


class TestReference:
    def test_attach_gives_ln2(self):
        psi = MatrixProductState.new_product_state(4)
        psi.attach_reference(1)
        assert psi.reference_entropy()[0] == pytest.approx(LN2, abs=1e-12)

    def test_partner_measure_kills_it(self):
        psi = MatrixProductState.new_product_state(4)
        psi.attach_reference(0)
        psi.measure_reset(0, OneLane(FakeRng([0.4])))
        assert psi.reference_entropy()[0] == pytest.approx(0.0, abs=1e-12)

    def test_remote_unitaries_preserve_it(self):
        psi = MatrixProductState.new_product_state(5)
        psi.attach_reference(2)
        g = unitary_group.rvs(4, random_state=np.random.default_rng(6))
        psi.apply_2q(0, 4, g, BIG)
        psi.apply_1q(3, H)
        assert psi.reference_entropy()[0] == pytest.approx(LN2, abs=1e-10)

    def test_double_attach_rejected(self):
        psi = MatrixProductState.new_product_state(3)
        psi.attach_reference(0)
        with pytest.raises(MpsError):
            psi.attach_reference(2)

    def test_entangled_partner_rejected(self):
        psi = ghz(3)
        with pytest.raises(MpsError):
            psi.attach_reference(1)

    def test_sites_exclude_reference(self):
        psi = MatrixProductState.new_product_state(4)
        psi.attach_reference(1)
        assert psi.n_sites == 4
        psi.apply_1q(3, X)  # still addresses the original site 3
        dv = DenseVector(4)
        dv.attach_reference(1)
        dv.apply_1q(3, X)
        # the MPS keeps the reference at the chain's left end, axis 0; the
        # dense oracle keeps it right after its partner
        np.testing.assert_allclose(np.moveaxis(psi.to_dense(), 0, 2), dv.to_dense(), atol=1e-12)


class TestTruncation:
    def test_monotone_and_exact_zero(self):
        psi = random_state(8, 41)
        assert psi.trunc_log == 0.0
        prev = 0.0
        rng = np.random.default_rng(8)
        tight = TruncationPolicy(chi_max=2, svd_cutoff=0.0)
        for _ in range(10):
            i = int(rng.integers(7))
            psi.apply_2q(i, i + 1, unitary_group.rvs(4, random_state=rng), tight)
            assert psi.trunc_log >= prev
            prev = psi.trunc_log
        assert psi.trunc_log > 0.0

    def test_hard_fail(self):
        g = unitary_group.rvs(4, random_state=np.random.default_rng(12))
        policy = TruncationPolicy(chi_max=64, svd_cutoff=0.0, hard_fail_chi=2)
        psi = MatrixProductState.new_product_state(6)
        psi.apply_2q(2, 3, g, policy)  # product input, rank at most 2
        psi = ghz(6)
        with pytest.raises(TruncationOverflow):
            psi.apply_2q(2, 3, g, policy)

    def test_norm_preserved_under_truncation(self):
        psi = random_state(8, 17)
        tight = TruncationPolicy(chi_max=3, svd_cutoff=0.0)
        rng = np.random.default_rng(3)
        for _ in range(12):
            i = int(rng.integers(7))
            psi.apply_2q(i, i + 1, unitary_group.rvs(4, random_state=rng), tight)
        assert psi.norm() == pytest.approx(1.0, abs=1e-10)


class TestUnitarityBulk:
    def test_thousand_gates_keep_norm(self):
        exact = TruncationPolicy(chi_max=2**30, svd_cutoff=0.0)
        rng = np.random.default_rng(99)
        psi = MatrixProductState.new_product_state(8)
        for _ in range(1000):
            if rng.random() < 0.5:
                psi.apply_1q(int(rng.integers(8)), unitary_group.rvs(2, random_state=rng))
            else:
                i = int(rng.integers(7))
                psi.apply_2q(i, i + 1, unitary_group.rvs(4, random_state=rng), exact)
        assert psi.norm() == pytest.approx(1.0, abs=1e-9)


class TestOracleLockstep:
    @pytest.mark.parametrize("seed", (5, 36, 67))
    def test_shared_seed_trajectories(self, seed):
        n = 12
        rng_ops = np.random.default_rng(seed)
        r1 = OneLane(np.random.default_rng(seed + 1000))
        r2 = np.random.default_rng(seed + 1000)
        psi = MatrixProductState.new_product_state(n)
        dv = DenseVector(n)
        chans = [
            make_dephasing(0.1, "weak-optimal"),
            make_depolarizing(0.2, "weak-tetrahedron"),
            make_amplitude_damping(0.15, "optimized"),
        ]
        for _ in range(50):
            kind = rng_ops.integers(4)
            if kind == 0:
                s = int(rng_ops.integers(n))
                g = unitary_group.rvs(2, random_state=rng_ops)
                psi.apply_1q(s, g)
                dv.apply_1q(s, g)
            elif kind == 1:
                i, j = (int(v) for v in rng_ops.choice(n, size=2, replace=False))
                g = unitary_group.rvs(4, random_state=rng_ops)
                psi.apply_2q(i, j, g, BIG)
                dv.apply_2q(i, j, g)
            elif kind == 2:
                s = int(rng_ops.integers(n))
                k = chans[rng_ops.integers(len(chans))]
                assert psi.apply_kraus(s, k, r1)[0] == dv.apply_kraus(s, k, r2)
            else:
                s = int(rng_ops.integers(n))
                assert psi.measure_reset(s, r1)[0] == dv.measure_reset(s, r2)
        np.testing.assert_allclose(psi.to_dense(), dv.to_dense(), atol=1e-8)


@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_product_state_amplitude_property(bits):
    psi = MatrixProductState.new_product_state(len(bits), bits)
    assert psi.amplitude(bits) == pytest.approx(1.0)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def assert_canonical(psi):
    """Tensors of a one-lane state left of the centre are left isometries,
    right of it right isometries."""
    c = psi.center
    for k, (t,) in enumerate(psi.tensors):
        l, s, r = t.shape
        if k < c:
            m = t.reshape(l * s, r)
            np.testing.assert_allclose(m.conj().T @ m, np.eye(r), atol=1e-10)
        elif k > c:
            m = t.reshape(l, s * r)
            np.testing.assert_allclose(m @ m.conj().T, np.eye(l), atol=1e-10)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_canonical_isometries_after_random_ops(seed, n):
    assert_canonical(random_state(n, seed, depth=4))


def _pair_and_centred_state(seed, n, where, data):
    """A random pair, and a random state with its centre left of, inside or right of it."""
    i, j = data.draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="pair"
    )
    lo, hi = min(i, j), max(i, j)
    span = {"left": (0, lo - 1), "inside": (lo, hi), "right": (hi + 1, n - 1)}[where]
    if span[0] > span[1]:
        span = (lo, hi)  # the pair touches that end of the chain
    psi = random_state(n, seed, depth=6)
    # the centre sits on a chain slot in the span, or on any chain slot if the span holds none
    chain = [s for s in range(n) if psi._int(s) is not None]
    chain = [s for s in chain if span[0] <= s <= span[1]] or chain
    psi._move_center(psi._int(data.draw(st.sampled_from(chain), label="centre")))
    dv = DenseVector(n)
    dv.psi = psi.to_dense().copy()
    return i, j, psi, dv


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 7),
    where=st.sampled_from(("left", "inside", "right")),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_apply_2q_any_pair_any_centre_matches_dense(seed, n, where, data):
    i, j, psi, dv = _pair_and_centred_state(seed, n, where, data)
    g = unitary_group.rvs(4, random_state=np.random.default_rng(seed))
    psi.apply_2q(i, j, g, BIG)
    dv.apply_2q(i, j, g)
    np.testing.assert_allclose(psi.to_dense(), dv.psi, atol=1e-10)
    assert_canonical(psi)


GATE_NOISE = (
    make_dephasing(0.1, "weak-optimal"),
    make_depolarizing(0.2, "weak-tetrahedron"),
    # complex gauge: the effects have complex off-diagonal entries
    gauge_transform(
        make_amplitude_damping(0.3, "canonical"), np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    ),
)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 7),
    where=st.sampled_from(("left", "inside", "right")),
    kraus=st.sampled_from(GATE_NOISE),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_apply_2q_noise_on_block_matches_dense(seed, n, where, kraus, data):
    # gate noise sampled on the two-site block draws the same branches, in
    # the same order (site i, then j), as the dense gate plus two apply_kraus
    i, j, psi, dv = _pair_and_centred_state(seed, n, where, data)
    g = unitary_group.rvs(4, random_state=np.random.default_rng(seed))
    picks = psi.apply_2q(i, j, g, BIG, kraus, OneLane(np.random.default_rng(seed + 1)))
    assert (picks[0][0], picks[1][0]) == dv.apply_2q(i, j, g, kraus, np.random.default_rng(seed + 1))
    assert abs(np.vdot(psi.to_dense(), dv.psi)) == pytest.approx(1.0, abs=1e-9)
    assert_canonical(psi)


def test_kraus_weights_are_branch_norms():
    # amplitude damping on a site entangled with the rest, in a complex
    # gauge so the effects M_k^dag M_k have complex off-diagonal entries;
    # the weights are read back through where one draw splits the outcomes
    u = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    k = gauge_transform(make_amplitude_damping(0.3, "canonical"), u)
    base = random_state(5, 21, depth=10)
    base._move_center(0)
    before = base.to_dense()
    branches = [np.moveaxis(np.tensordot(m, before, axes=(1, 2)), 0, 2) for m in k.ops]
    weights = [float(np.vdot(b, b).real) for b in branches]
    assert 0.05 < weights[1] < 0.95
    for draw, want in ((weights[0] - 1e-9, 0), (weights[0] + 1e-9, 1)):
        psi = clone(base)
        draws = FakeRng([draw])
        assert psi.apply_kraus(2, k, OneLane(draws))[0] == want
        assert draws.vals == []
        np.testing.assert_allclose(
            psi.to_dense(), branches[want] / np.sqrt(weights[want]), atol=1e-12
        )
        assert_canonical(psi)


def _count_linalg(monkeypatch):
    """Counts numpy's QR and SVD calls, and the routing swaps that call neither:
    the identity splits."""
    calls = {"qr": 0, "svd": 0, "identity": 0}
    for name in ("qr", "svd"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    swap = MatrixProductState._swap

    def counted_swap(self, *args, **kw):
        before = calls["qr"] + calls["svd"]
        swap(self, *args, **kw)
        calls["identity"] += calls["qr"] + calls["svd"] == before

    monkeypatch.setattr(MatrixProductState, "_swap", counted_swap)
    return calls


WORKLOAD_POLICY = TruncationPolicy(chi_max=256, svd_cutoff=1e-12)


@pytest.mark.parametrize("lattice, policy, qr, svd, identity", (
    pytest.param(("square", 4, 8), DEFAULT_POLICY, 74, 59, 30, id="square-4x8"),
    pytest.param(("heavy-hex", 7, None), DEFAULT_POLICY, 42, 35, 3, id="heavy-hex-7"),
    # the benchmark's sample workloads
    pytest.param(("heavy-hex", 11, None), WORKLOAD_POLICY, 143, 115, 10, id="heavy-hex-11"),
    pytest.param(("square", 6, 18), WORKLOAD_POLICY, 339, 243, 137, id="square-6x18"),
))
def test_qr_calls_per_trajectory(monkeypatch, lattice, policy, qr, svd, identity):
    # centre moves are structural: one QR per step the centre travels to
    # reach a site or a two-site block, and none for the noise that follows
    # a gate, which is sampled on its block. A routing swap is the identity
    # or one QR/LQ for the lanes whose exact bound is within their peak chi,
    # and an SVD for the rest (at first, before any peak is raised), so
    # most SVDs are the gates' and the readouts'. A slot stays off the
    # chain until its first two-qubit gate and leaves it at its readout, so
    # product slots cost no QR, swap or SVD
    noise = NoiseModel(kind="depolarizing", epsilon=0.05)
    c = random_instance(build_lattice(*lattice), "ABCD", "fsim", noise, seed=3)
    cfg = RunConfig(circuit=compile_sebd(c, "weak-tetrahedron"), master_seed=1, policy=policy)
    calls = _count_linalg(monkeypatch)
    assert run_trajectory(cfg, 0).ok
    assert calls == {"qr": qr, "svd": svd, "identity": identity}


def _controlled(u):
    """|0><0| kron I + |1><1| kron u: it leaves a product state whose control is |0> alone."""
    g = np.eye(4, dtype=complex)
    g[2:, 2:] = u
    return g


def _lanes_of_own_ranks(rng, n=6, lanes=3):
    """A state of three lanes in different product states, with each lane's
    dense oracle: lane 0 fills every slot, and lanes 1 and 2 about half and
    a third of them, the rest left |0>, so controlled gates leave each lane
    its own ranks and its own peak."""
    psi = MatrixProductState.new_product_state(n, lanes=lanes)
    fill = [np.ones(n, dtype=bool)] + [rng.random(n) < p for p in (0.5, 0.3)]
    for b in range(lanes):
        for s in np.flatnonzero(fill[b]):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi.loose[s, b] = v / np.linalg.norm(v)
    dense = []
    for b in range(lanes):  # every slot is loose: the lane's state is its vectors' product
        dense.append(DenseVector(n))
        dense[-1].psi = one_lane_view(psi, b).to_dense().copy()
    return psi, dense


@pytest.mark.parametrize("seed", (13, 14, 26))  # seeds that run every branch
def test_routing_swaps_split_exactly_per_lane(monkeypatch, seed):
    # gates routed both ways run both centre sides of a swap, each as the
    # identity split and as a QR, with lanes padded, and each also with
    # other lanes of the block past their peak and so split by SVD. After
    # every gate each lane cut to its own ranks must read as its dense
    # oracle, and as the same lane run alone: its ranks, peak and discarded
    # weight too; every tensor stays complex
    n = 6
    rng = np.random.default_rng(seed)
    psi, dense = _lanes_of_own_ranks(rng, n)
    alone = [MatrixProductState(psi.loose[:, b : b + 1].copy()) for b in range(len(dense))]
    qr, split = np.linalg.qr, mps._exact_split
    calls, branches = [0], set()

    def counted_qr(*args, **kw):
        calls[0] += 1
        return qr(*args, **kw)

    def counted_split(theta, rl, rr, center_left):
        before = calls[0]
        out = split(theta, rl, rr, center_left)
        if len(rl) > 1 and ((rl != rl[0]).any() or (rr != rr[0]).any()):  # lanes padded
            branches.add((center_left, calls[0] > before, len(rl) < len(psi.lanes)))
        return out

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(mps, "_exact_split", counted_split)
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [tuple(int(k) for k in rng.choice(n, 2, replace=False)) for _ in range(12)]
    for i, j in pairs:
        g = _controlled(unitary_group.rvs(2, random_state=rng))
        psi.apply_2q(i, j, g, BIG)
        for b, (dv, one) in enumerate(zip(dense, alone)):
            dv.apply_2q(i, j, g)
            one.apply_2q(i, j, g, BIG)
            view = one_lane_view(psi, b)
            np.testing.assert_allclose(view.to_dense(), dv.to_dense(), atol=1e-10)
            np.testing.assert_allclose(one.to_dense(), dv.to_dense(), atol=1e-10)
            assert_canonical(view)
            assert all(t.dtype == complex for t in psi.tensors)
            np.testing.assert_array_equal(psi.ranks[b], one.ranks[0])
            assert psi.peak[b] == one.peak[0]
            assert psi.discarded[b] == pytest.approx(one.discarded[0], abs=1e-14)
    # (centre on the left, a QR ran, other lanes took the SVD): each side
    # as the identity and as a QR, alone and beside lanes split by SVD
    assert branches == set(itertools.product((False, True), repeat=3))


def _schmidt_ranks(psi, cut=1e-12):
    """Each cut's Schmidt rank of a dense state (2,)*n in slot order, at a relative cutoff."""
    n = psi.ndim
    ranks = []
    for k in range(1, n):
        s = np.linalg.svd(psi.reshape(2**k, -1), compute_uv=False)
        ranks.append(int((s >= cut * s[0]).sum()))
    return ranks


def test_routing_swaps_leave_a_product_state_at_rank_one():
    # CNOTs on |00000> act as the identity: however far the last one is
    # routed, every bond keeps rank 1 and the peak chi stays 1
    psi = MatrixProductState.new_product_state(5)
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
        psi.apply_2q(i, j, CNOT, WORKLOAD_POLICY)
    assert psi.ranks.tolist() == [[1] * 6]
    assert psi.peak.tolist() == [1]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_peak_is_the_largest_schmidt_rank_so_far(seed):
    # a lane's peak chi is the largest Schmidt rank its state has had on
    # return from a gate, whether the routing swaps split exactly or by SVD:
    # an exact split that could leave null directions never raises the peak
    n = 6
    rng = np.random.default_rng(seed)
    psi, dense = _lanes_of_own_ranks(rng, n)
    want = np.ones(len(dense), dtype=int)
    for _ in range(14):
        i, j = (int(k) for k in rng.choice(n, 2, replace=False))
        g = _controlled(unitary_group.rvs(2, random_state=rng))
        psi.apply_2q(i, j, g, WORKLOAD_POLICY)
        for b, dv in enumerate(dense):
            dv.apply_2q(i, j, g)
            want[b] = max(want[b], *_schmidt_ranks(dv.to_dense()))
        np.testing.assert_array_equal(psi.peak, want)
        assert (psi.ranks <= want[:, None]).all()


@pytest.mark.parametrize("center_left", (False, True))
def test_routing_swap_ignores_what_the_padding_holds(center_left):
    # a lane's entries past its own ranks lie outside its state, so the
    # split of a swap must read its own part alone: with roundoff written
    # into the padding of the block's outer bonds, each lane must still
    # read as its dense oracle with the two slots swapped, in canonical form
    rng = np.random.default_rng(4)
    psi, dense = _lanes_of_own_ranks(rng)
    for i, j in [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (0, 3), (2, 5)]:
        g = _controlled(unitary_group.rvs(2, random_state=rng))
        psi.apply_2q(i, j, g, BIG)
        for dv in dense:
            dv.apply_2q(i, j, g)
    # a block with a lane padded on the bond the centre's side splits off,
    # and a lane whose own bound lies on the centre's side, so a QR runs
    rl, rr = psi.ranks[:, :-2], psi.ranks[:, 2:]
    dims = np.array([t.shape[-3] for t in psi.tensors] + [1])
    padded = (rr < dims[2:]) if center_left else (rl < dims[:-2])
    qr = (rr > rl) if center_left else (rl > rr)
    pos = int(np.flatnonzero(padded.any(axis=0) & qr.any(axis=0))[0])
    psi._move_center(pos)  # before the roundoff: a centre move zeroes the padding it passes
    a, b, rl, rr = psi.tensors[pos], psi.tensors[pos + 1], rl[:, pos], rr[:, pos]
    for lane in range(len(psi.lanes)):
        a[lane, rl[lane] :] = 1e-3 * rng.normal(size=a[lane, rl[lane] :].shape)
        b[lane, ..., rr[lane] :] = 1e-3 * rng.normal(size=b[lane, ..., rr[lane] :].shape)
    psi.peak[:] = 2 * psi.ranks.max()  # every lane splits exactly
    split, qrs = mps._exact_split, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "qr", lambda *args, _qr=np.linalg.qr: qrs.append(1) or _qr(*args))
        patch.setattr(mps, "_exact_split", lambda *args: qrs.append(0) or split(*args))
        psi._apply_adjacent(pos, None, BIG, center_left=center_left)
    assert qrs == [0, 1]  # one exact split, by one QR
    slots = [k // 2 for k in psi._keys[pos : pos + 2]]
    for lane, dv in enumerate(dense):
        dv.apply_2q(*slots, SWAP)
        view = one_lane_view(psi, lane)
        np.testing.assert_allclose(view.to_dense(), dv.to_dense(), atol=1e-10)
        assert_canonical(view)


# -- loose slots: a slot joins the chain at its first two-qubit gate and
# leaves it at its readout; the slot-order views must not see the difference

LOOSE_NOISE = (make_depolarizing(0.2, "weak-tetrahedron"), make_amplitude_damping(0.3, "canonical"))


def one_lane_view(psi, row):
    """Lane `row` of a lane state as a state of one lane, each tensor cut to the lane's own ranks."""
    view = copy.copy(psi)
    r = psi.ranks[row]
    view.tensors = [t[row : row + 1, : r[k], :, : r[k + 1]] for k, t in enumerate(psi.tensors)]
    view.loose = psi.loose[:, row : row + 1]
    view._keys = list(psi._keys)
    view.lanes, view.ranks = psi.lanes[row : row + 1], psi.ranks[row : row + 1].copy()
    return view


def assert_reads_like_dense(psi, dv, n):
    """The slot-order views of a state of one lane against the dense oracle's.

    With a reference attached, the dense oracle keeps it right after its
    partner and the MPS at the chain's left end, left of every cut. So its
    axis is moved first, each cut's entropy is that of the reference and
    the slots left of the cut, and amplitudes are undefined.
    """
    ref = dv._ref is not None
    want = dv.to_dense()
    if ref:
        want = np.moveaxis(want, dv._ref, 0)
    np.testing.assert_allclose(psi.to_dense(), want, atol=1e-9)
    assert abs(np.vdot(psi.to_dense(), want)) == pytest.approx(1.0, abs=1e-9)
    if ref:
        assert psi.reference_entropy()[0] == pytest.approx(dv.reference_entropy(), abs=1e-9)
    else:
        top = np.unravel_index(np.argmax(abs(want)), want.shape)
        for bits in (top, [(s * 5 + 1) % 2 for s in range(n)]):
            assert abs(psi.amplitude(bits) - dv.amplitude(bits)) <= 1e-9
    assert_canonical(psi)
    dims = psi.bond_dims()
    assert len(dims) == n + 1 + ref and dims[0] == dims[-1] == 1
    dims = dims[ref:]  # the bond left of each slot, then the right end
    for s in range(n):
        # a loose slot is a product factor and reads the bond it would join at
        if psi._int(s) is None:
            assert dims[s] == dims[s + 1]
            assert dv.subsystem_renyi([s]) == pytest.approx(0.0, abs=1e-9)
    for cut in range(1, n):
        sv = np.linalg.svd(want.reshape(1 << (cut + ref), -1), compute_uv=False)
        assert dims[cut] >= int(np.sum(sv > 1e-9 * sv[0]))
        if ref:
            p = sv**2
            p = p[p > 0.0]  # a value whose square underflows to 0 adds nothing
            want_s = float(-np.sum(p * np.log(p)))
        else:
            want_s = dv.renyi_entropy(cut, 1.0)
        assert psi.entropy(cut)[0] == pytest.approx(want_s, abs=1e-6)


@st.composite
def loose_streams(draw):
    """A slot count, an event stream whose first events find every slot
    loose, and the partner of a reference attached before them, or None."""
    n = draw(st.integers(5, 7))
    # a one-qubit gate on some slots first, so loose vectors carry phases
    ops = [("1q", s, draw(st.integers(0, 10_000)), 0) for s in range(n) if draw(st.booleans())]
    for _ in range(draw(st.integers(8, 24))):
        kind = draw(st.sampled_from(
            ("1q", "noise", "2q", "2q", "2q", "measure", "project", "centre")
        ))
        s = draw(st.integers(0, n - 1))
        if kind == "2q":
            d = draw(st.sampled_from([d for d in (1, 2, 3, -1, -2, -3) if 0 <= s + d < n]))
            ops.append((kind, s, s + d, draw(st.integers(0, 10_000)), draw(st.integers(-1, 1))))
        else:
            ops.append((kind, s, draw(st.integers(0, 10_000)), draw(st.integers(0, 1))))
    return n, ops, draw(st.one_of(st.none(), st.integers(0, n - 1)))


@given(stream=loose_streams(), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
# amplitude damping leaves lane 0's slots 0 and 1 product states, so the last
# gate's block has a singular value of 1e-17 in that lane: kept at cutoff 0,
# its vector lay in the padding past the lane's rank
@example(stream=(5, [("1q", 0, 0, 0)] * 14 + [("2q", 0, 1, 0, 0)] + [("1q", 0, 0, 0)] * 3 + [
    ("2q", 0, 2, 0, 0), ("noise", 0, 0, 1), ("project", 1, 0, 0), ("2q", 1, 3, 0, 1),
], None), seed=0)
# a singular value of the reference's cut squares to 0: the expected entropy
# must skip it after squaring, or 0 * log 0 makes it NaN
@example(stream=(7, [("1q", 3, 0, 0)] + [("1q", 0, 0, 0)] * 7 + [("measure", 0, 0, 0)], 0), seed=0)
def test_loose_slots_match_dense(stream, seed):
    # one event stream through a state of one lane, a 3-lane state and one
    # dense vector per lane; lane 0 and the one-lane state draw the same
    # uniforms. A reference, if any, attaches to every state first
    n, ops, ref = stream
    table = np.random.default_rng(seed).random((3, 2 * len(ops)))
    psi = MatrixProductState.new_product_state(n)
    lanes = MatrixProductState.new_product_state(n, lanes=3)
    dense = [DenseVector(n) for _ in range(3)]
    if ref is not None:
        for state in (psi, lanes, *dense):
            state.attach_reference(ref)
    rngs = [FakeRng(row) for row in table]
    one_rng, lane_rng = OneLane(FakeRng(table[0])), _LaneUniforms(table)
    for kind, s, *rest in ops:
        if kind == "1q":
            g = unitary_group.rvs(2, random_state=np.random.default_rng(rest[0]))
            for state in (psi, lanes, *dense):
                state.apply_1q(s, g)
        elif kind == "noise":
            k = LOOSE_NOISE[rest[1]]
            want = [dv.apply_kraus(s, k, r) for dv, r in zip(dense, rngs)]
            assert psi.apply_kraus(s, k, one_rng)[0] == want[0]
            assert lanes.apply_kraus(s, k, lane_rng).tolist() == want
        elif kind == "2q":
            j, g_seed, noise = rest
            g = unitary_group.rvs(4, random_state=np.random.default_rng(g_seed))
            k = None if noise < 0 else LOOSE_NOISE[noise]
            want = [dv.apply_2q(s, j, g, k, r) for dv, r in zip(dense, rngs)]
            one = psi.apply_2q(s, j, g, BIG, k, one_rng)
            got = lanes.apply_2q(s, j, g, BIG, k, lane_rng)
            if k is None:
                assert one is None and got is None and want == [None] * 3
            else:
                assert (one[0][0], one[1][0]) == want[0]
                assert list(zip(*(p.tolist() for p in got))) == want
        elif kind == "measure":
            want = [dv.measure_reset(s, r) for dv, r in zip(dense, rngs)]
            assert psi.measure_reset(s, one_rng)[0] == want[0]
            assert lanes.measure_reset(s, lane_rng).tolist() == want
        elif kind == "project":
            # onto a bit every lane reaches with weight, so no lane leaves
            bit = rest[1]
            weights = [np.linalg.norm(np.take(dv.psi, bit, axis=dv._int(s))) ** 2 for dv in dense]
            if min(weights) < 1e-6:
                bit = 1 - bit
                weights = [1.0 - w for w in weights]
            if min(weights) < 1e-6:
                continue
            want = [dv.project_onto(s, bit) for dv in dense]
            assert psi.project_onto(s, bit)[0] == pytest.approx(want[0], abs=1e-9)
            np.testing.assert_allclose(lanes.project_onto(s, bit), want, atol=1e-9)
        elif psi._int(s) is not None:  # "centre": put it on a chain slot of either state
            psi._move_center(psi._int(s))
            lanes._move_center(lanes._int(s))
    assert lanes.lanes.tolist() == [0, 1, 2] and not lanes.failed
    assert_reads_like_dense(psi, dense[0], n)
    assert lanes._keys == psi._keys
    assert lanes.ranks.shape == (3, len(lanes.tensors) + 1)
    assert (lanes.ranks[:, 0] == 1).all() and (lanes.ranks[:, -1] == 1).all()
    for row, dv in enumerate(dense):
        assert_reads_like_dense(one_lane_view(lanes, row), dv, n)
    if ref is not None:  # and read off the lane state itself
        want = [dv.reference_entropy() for dv in dense]
        np.testing.assert_allclose(lanes.reference_entropy(), want, rtol=0.0, atol=1e-9)
