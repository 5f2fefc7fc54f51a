"""MPS backend tests, cross-checked against the dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
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
from sebd.gates import CNOT, CZ, H, W, X, fsim, pauli_half_power
from sebd.lightcone import build_lattice, random_instance
from sebd.mps import (
    EXACT_POLICY,
    MatrixProductState,
    MpsError,
    TruncationOverflow,
    TruncationPolicy,
)
from sebd.oracles.dense import DenseVector
from sebd.sampler import RunConfig, run_trajectory

LN2 = np.log(2.0)
BIG = TruncationPolicy(chi_max=4096, svd_cutoff=0.0)


class FakeRng:
    """Deterministic stand-in for rng.random(), fed from a list."""

    def __init__(self, vals):
        self.vals = list(vals)

    def random(self):
        return self.vals.pop(0)


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
        rho = np.einsum("lsr,ltr->st", psi.tensors[0], psi.tensors[0].conj())
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-15)

    def test_all_cuts_unentangled(self):
        psi = MatrixProductState.new_product_state(6, "010011")
        for cut in range(1, 6):
            assert psi.renyi_entropy(cut) == pytest.approx(0.0, abs=1e-12)

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

    def test_non_unitary_rejected(self):
        psi = MatrixProductState.new_product_state(2)
        with pytest.raises(MpsError):
            psi.apply_1q(0, np.array([[1.0, 0.0], [0.0, 0.5]]))
        with pytest.raises(MpsError):
            psi.apply_2q(0, 1, np.eye(4) * 0.9)

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
        assert psi.renyi_entropy(1) == pytest.approx(dv.renyi_entropy(1), abs=1e-10)

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
        out = psi.apply_kraus(1, KrausSet((np.eye(2, dtype=complex),)), FakeRng([0.3]))
        assert out == 0
        assert psi.amplitude("000") == pytest.approx(1.0)

    def test_projective_on_zero_probs(self):
        # Born weights on |0> are (0.8, 0.2, 0); the walk picks by cumulative sum
        k = make_dephasing(0.1, "projective")
        psi = MatrixProductState.new_product_state(1)
        assert psi.apply_kraus(0, k, FakeRng([0.79])) == 0
        psi = MatrixProductState.new_product_state(1)
        assert psi.apply_kraus(0, k, FakeRng([0.81])) == 1
        psi = MatrixProductState.new_product_state(1)
        assert psi.apply_kraus(0, k, FakeRng([0.999999])) == 1

    def test_weak_on_plus_tilts_bloch(self):
        eps = 0.1
        k = make_dephasing(eps, "weak-optimal")
        for draw, sign in ((0.2, +1), (0.8, -1)):
            psi = MatrixProductState.new_product_state(1)
            psi.apply_1q(0, H)
            psi.apply_kraus(0, k, FakeRng([draw]))
            vec = psi.to_dense()
            z = abs(vec[0]) ** 2 - abs(vec[1]) ** 2
            assert z == pytest.approx(sign * 2 * np.sqrt(eps * (1 - eps)), abs=1e-12)

    def test_born_consistency_bulk(self):
        # empirical outcome rate of the weak pair on |+> vs its exact 1/2
        k = make_dephasing(0.23, "weak-optimal")
        base = MatrixProductState.new_product_state(1)
        base.apply_1q(0, H)
        rng = np.random.default_rng(42)
        n_draws = 100_000
        hits = 0
        for _ in range(n_draws):
            psi = base.copy()
            hits += psi.apply_kraus(0, k, rng)
        sigma = np.sqrt(n_draws * 0.25)
        assert abs(hits - n_draws / 2) < 4 * sigma


class TestMeasureProject:
    def test_measure_one(self):
        psi = MatrixProductState.new_product_state(2, "01")
        assert psi.measure_reset(1, FakeRng([0.5])) == 1
        assert psi.amplitude("00") == pytest.approx(1.0)

    def test_measure_plus_statistics(self):
        rng = np.random.default_rng(11)
        counts = 0
        for _ in range(10_000):
            psi = MatrixProductState.new_product_state(1)
            psi.apply_1q(0, H)
            counts += psi.measure_reset(0, rng)
        # chi-square against the fair coin at the 4-sigma level
        assert abs(counts - 5000) < 4 * np.sqrt(10_000 * 0.25)

    def test_bell_collapse(self):
        psi = ghz(2)
        bit = psi.measure_reset(0, FakeRng([0.9]))
        assert bit == 1
        assert abs(psi.amplitude("01")) == pytest.approx(1.0, abs=1e-12)

    def test_project_trivials(self):
        psi = MatrixProductState.new_product_state(1)
        assert psi.project_onto(0, 0) == pytest.approx(1.0)
        psi = MatrixProductState.new_product_state(1)
        psi.apply_1q(0, H)
        assert psi.project_onto(0, 1) == pytest.approx(0.5)

    def test_bell_sequential_projections(self):
        psi = ghz(2)
        p = psi.project_onto(0, 0)
        q = psi.project_onto(1, 0)
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
        for n in (0.5, 1.0, 2.0, 3.0):
            assert psi.renyi_entropy(1, n) == pytest.approx(LN2, abs=1e-12)

    def test_random_mid_cut_matches_dense(self):
        psi = random_state(8, 23)
        dv = DenseVector(8)
        dv.psi = psi.to_dense().copy()
        for n in (1.0, 2.0):
            assert psi.renyi_entropy(4, n) == pytest.approx(
                dv.renyi_entropy(4, n), abs=1e-8
            )

    def test_entropy_bounded_by_bond(self):
        policy = TruncationPolicy(chi_max=4, svd_cutoff=0.0)
        rng = np.random.default_rng(2)
        psi = MatrixProductState.new_product_state(8)
        for _ in range(30):
            i = int(rng.integers(7))
            psi.apply_2q(i, i + 1, unitary_group.rvs(4, random_state=rng), policy)
        for cut in range(1, 8):
            chi = psi.bond_dims()[psi._int_cut(cut)]
            assert psi.renyi_entropy(cut) <= np.log(chi) + 1e-9

    def test_subsystem_full_is_zero(self):
        psi = random_state(6, 3)
        assert psi.subsystem_renyi(range(6)) == pytest.approx(0.0, abs=1e-10)

    def test_complement_symmetry(self):
        psi = random_state(7, 19)
        a = psi.subsystem_renyi([0, 1, 2])
        b = psi.subsystem_renyi([3, 4, 5, 6])
        assert a == pytest.approx(b, abs=1e-8)

    def test_ghz_two_blocks(self):
        psi = ghz(8)
        assert psi.subsystem_renyi([1, 2, 5, 6]) == pytest.approx(LN2, abs=1e-10)

    def test_two_blocks_match_dense(self):
        psi = random_state(8, 31)
        dv = DenseVector(8)
        dv.psi = psi.to_dense().copy()
        for sites in ([0, 1, 4, 5], [2, 3, 6, 7], [0, 5, 6], [1, 2, 3, 7]):
            assert psi.subsystem_renyi(sites, 1.0) == pytest.approx(
                dv.subsystem_renyi(sites, 1.0), abs=1e-6
            )
            assert psi.subsystem_renyi(sites, 2.0) == pytest.approx(
                dv.subsystem_renyi(sites, 2.0), abs=1e-6
            )

    def test_three_blocks_without_small_complement_rejected(self):
        psi = random_state(9, 5)
        with pytest.raises(MpsError):
            psi.subsystem_renyi([0, 2, 4, 6, 8])


class TestReference:
    def test_attach_gives_ln2(self):
        psi = MatrixProductState.new_product_state(4)
        h = psi.attach_reference(1)
        assert psi.reference_entropy(h) == pytest.approx(LN2, abs=1e-12)

    def test_partner_measure_kills_it(self):
        psi = MatrixProductState.new_product_state(4)
        h = psi.attach_reference(0)
        psi.measure_reset(0, FakeRng([0.4]))
        assert psi.reference_entropy(h) == pytest.approx(0.0, abs=1e-12)

    def test_remote_unitaries_preserve_it(self):
        psi = MatrixProductState.new_product_state(5)
        h = psi.attach_reference(2)
        g = unitary_group.rvs(4, random_state=np.random.default_rng(6))
        psi.apply_2q(0, 4, g, BIG)
        psi.apply_1q(3, H)
        assert psi.reference_entropy(h) == pytest.approx(LN2, abs=1e-10)

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
        np.testing.assert_allclose(psi.to_dense(), dv.to_dense(), atol=1e-12)


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
        rng = np.random.default_rng(99)
        psi = MatrixProductState.new_product_state(8)
        for _ in range(1000):
            if rng.random() < 0.5:
                psi.apply_1q(int(rng.integers(8)), unitary_group.rvs(2, random_state=rng))
            else:
                i = int(rng.integers(7))
                psi.apply_2q(i, i + 1, unitary_group.rvs(4, random_state=rng), EXACT_POLICY)
        assert psi.norm() == pytest.approx(1.0, abs=1e-9)


class TestOracleLockstep:
    @pytest.mark.parametrize("seed", (5, 36, 67))
    def test_shared_seed_trajectories(self, seed):
        n = 12
        rng_ops = np.random.default_rng(seed)
        r1 = np.random.default_rng(seed + 1000)
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
                assert psi.apply_kraus(s, k, r1) == dv.apply_kraus(s, k, r2)
            else:
                s = int(rng_ops.integers(n))
                assert psi.measure_reset(s, r1) == dv.measure_reset(s, r2)
        np.testing.assert_allclose(psi.to_dense(), dv.to_dense(), atol=1e-8)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        psi = random_state(6, 77)
        psi.apply_kraus(2, make_dephasing(0.1, "projective"), FakeRng([0.9]))
        path = tmp_path / "state.npz"
        psi.save(path)
        back = MatrixProductState.load(path)
        np.testing.assert_allclose(back.to_dense(), psi.to_dense(), atol=1e-14)
        assert back.trunc_log == psi.trunc_log
        assert back.center == psi.center

    def test_round_trip_with_reference(self, tmp_path):
        psi = MatrixProductState.new_product_state(3)
        h = psi.attach_reference(1)
        path = tmp_path / "ref.npz"
        psi.save(path)
        back = MatrixProductState.load(path)
        assert back.n_sites == 3
        assert back.reference_entropy(h) == pytest.approx(LN2, abs=1e-12)


@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_product_state_amplitude_property(bits):
    psi = MatrixProductState.new_product_state(len(bits), bits)
    assert psi.amplitude(bits) == pytest.approx(1.0)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def assert_canonical(psi):
    """Tensors left of the centre are left isometries, right of it right isometries."""
    c = psi.center
    for k, t in enumerate(psi.tensors):
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


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 7),
    where=st.sampled_from(("left", "inside", "right")),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_apply_2q_any_pair_any_centre_matches_dense(seed, n, where, data):
    i, j = data.draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="pair"
    )
    lo, hi = min(i, j), max(i, j)
    span = {"left": (0, lo - 1), "inside": (lo, hi), "right": (hi + 1, n - 1)}[where]
    if span[0] > span[1]:
        span = (lo, hi)  # the pair touches that end of the chain
    psi = random_state(n, seed, depth=6)
    psi._move_center(data.draw(st.integers(*span), label="centre"))
    dv = DenseVector(n)
    dv.psi = psi.to_dense().copy()
    g = unitary_group.rvs(4, random_state=np.random.default_rng(seed))
    psi.apply_2q(i, j, g, BIG)
    dv.apply_2q(i, j, g)
    np.testing.assert_allclose(psi.to_dense(), dv.psi, atol=1e-10)
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
        psi = base.copy()
        rng = FakeRng([draw])
        assert psi.apply_kraus(2, k, rng) == want
        assert rng.vals == []
        np.testing.assert_allclose(
            psi.to_dense(), branches[want] / np.sqrt(weights[want]), atol=1e-12
        )
        assert_canonical(psi)


def _count_linalg(monkeypatch):
    calls = {"qr": 0, "svd": 0}
    for name in calls:
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "lattice, qr, svd", ((("square", 4, 8), 165, 143), (("heavy-hex", 7, None), 99, 62))
)
def test_qr_calls_per_trajectory(monkeypatch, lattice, qr, svd):
    # centre moves are structural: one QR per step the centre travels to
    # reach a site or a two-site block, none between routing swaps
    noise = NoiseModel(kind="depolarizing", epsilon=0.05)
    c = random_instance(build_lattice(*lattice), "ABCD", "fsim", noise, seed=3)
    cfg = RunConfig(circuit=c, unravel_form="weak-tetrahedron", master_seed=1)
    cfg.effective()
    calls = _count_linalg(monkeypatch)
    assert run_trajectory(cfg, 0).ok
    assert calls == {"qr": qr, "svd": svd}
