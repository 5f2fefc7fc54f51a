"""Unit tests for channel constructions, the cost function x, and the optimizer.

Expected x values were derived by hand from x = (1/d) sum_i tr((M^dag M)^2)/tr(M^dag M):
projective dephasing 1/2 + eps, weak dephasing 1/2 + 2 eps (1-eps), Pauli mixes 1/2,
unital optimum 1 - (2 p0 - 1)^2 / 2, damping canonical 1/(2-eps) and optimized
(1+eps)/2. The derivations are spelled out where non-obvious.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sebd.channels import (
    ChannelError,
    KrausSet,
    NoiseModel,
    UnitalParams,
    choi_matrix,
    gauge_transform,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
    make_unital,
    optimize_unraveling,
    unraveling_cost_x,
)
from sebd.gates import I2, X, Y, Z
from sebd.serialize import kraus_from_dict, kraus_to_dict

EPS_GRID = (0.02, 0.05, 0.1)


def pauli_mix_set(p0, px, py, pz):
    ops = []
    for p, sigma in zip((p0, px, py, pz), (I2, X, Y, Z)):
        if p > 0:
            ops.append(np.sqrt(p) * sigma)
    return KrausSet(tuple(ops))


class TestCostClosedForms:
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_projective_dephasing(self, eps):
        x = unraveling_cost_x(make_dephasing(eps, "projective"))
        assert x == pytest.approx(0.5 + eps, abs=1e-12)

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_weak_dephasing(self, eps):
        x = unraveling_cost_x(make_dephasing(eps, "weak-optimal"))
        assert x == pytest.approx(0.5 + 2 * eps * (1 - eps), abs=1e-12)

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_unitary_mix_dephasing(self, eps):
        # both operators are proportional to unitaries, so no purification
        x = unraveling_cost_x(make_dephasing(eps, "unitary-mix"))
        assert x == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("eps", (0.01, 0.1, 0.3, 0.49))
    def test_weak_beats_projective(self, eps):
        xw = unraveling_cost_x(make_dephasing(eps, "weak-optimal"))
        xp = unraveling_cost_x(make_dephasing(eps, "projective"))
        assert xw > xp

    def test_single_unitary(self):
        assert unraveling_cost_x(KrausSet((I2,))) == pytest.approx(0.5, abs=1e-15)

    def test_projector_pair(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert unraveling_cost_x(KrausSet((p0, p1))) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("eps", (0.06, 0.1, 0.3))
    def test_depolarizing_forms(self, eps):
        x_mix = unraveling_cost_x(make_depolarizing(eps, "pauli-mix"))
        x_tet = unraveling_cost_x(make_depolarizing(eps, "weak-tetrahedron"))
        assert x_mix == pytest.approx(0.5, abs=1e-12)
        p0 = 1 - eps
        assert x_tet == pytest.approx(1 - (2 * p0 - 1) ** 2 / 2, abs=1e-12)

    @pytest.mark.parametrize("eps", (0.1, 0.2, 0.5))
    def test_damping_forms(self, eps):
        # canonical: M0^dag M0 = diag(1, 1-eps) and M1^dag M1 = diag(0, eps)
        # give (1+(1-eps)^2)/(2-eps) + eps, which simplifies to 2/(2-eps);
        # the 1/d prefactor halves it
        x_can = unraveling_cost_x(make_amplitude_damping(eps, "canonical"))
        assert x_can == pytest.approx(1 / (2 - eps), abs=1e-12)
        # optimized: both M^dag M equal [[1, sqrt(eps)],[sqrt(eps), 1]]/2
        # with eigenvalues (1 +/- sqrt(eps))/2
        x_opt = unraveling_cost_x(make_amplitude_damping(eps, "optimized"))
        assert x_opt == pytest.approx((1 + eps) / 2, abs=1e-12)
        assert x_opt > x_can


class TestConstructions:
    def test_weak_dephasing_entries(self):
        k = make_dephasing(0.1, "weak-optimal")
        a, b = np.sqrt(0.45), np.sqrt(0.05)
        np.testing.assert_allclose(k.ops[0], a * I2 + b * Z, atol=1e-14)
        np.testing.assert_allclose(k.ops[1], a * I2 - b * Z, atol=1e-14)

    def test_projective_dephasing_entries(self):
        k = make_dephasing(0.1, "projective")
        np.testing.assert_allclose(k.ops[0], np.sqrt(0.8) * I2, atol=1e-14)
        np.testing.assert_allclose(
            k.ops[1], np.sqrt(0.2) * np.diag([1.0, 0.0]), atol=1e-14
        )
        np.testing.assert_allclose(
            k.ops[2], np.sqrt(0.2) * np.diag([0.0, 1.0]), atol=1e-14
        )

    def test_tetrahedron_entries(self):
        k = make_depolarizing(0.06, "weak-tetrahedron")
        a, b = np.sqrt(0.235), np.sqrt(0.005)
        np.testing.assert_allclose(k.ops[0], a * I2 + b * (X + Y + Z), atol=1e-14)
        np.testing.assert_allclose(k.ops[1], a * I2 + b * (X - Y - Z), atol=1e-14)
        assert len(k) == 4

    def test_pauli_mix_entries(self):
        k = make_depolarizing(0.3, "pauli-mix")
        for got, want in zip(k.ops, (np.sqrt(0.7) * I2, np.sqrt(0.1) * X,
                                     np.sqrt(0.1) * Y, np.sqrt(0.1) * Z)):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_damping_entries(self):
        k = make_amplitude_damping(0.2, "canonical")
        np.testing.assert_allclose(k.ops[0], np.diag([1, np.sqrt(0.8)]), atol=1e-14)
        np.testing.assert_allclose(
            k.ops[1], np.array([[0, np.sqrt(0.2)], [0, 0]]), atol=1e-14
        )
        ko = make_amplitude_damping(0.2, "optimized")
        np.testing.assert_allclose(
            ko.ops[0], np.array([[1, np.sqrt(0.2)], [0, np.sqrt(0.8)]]) / np.sqrt(2),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            ko.ops[1], np.array([[-1, np.sqrt(0.2)], [0, -np.sqrt(0.8)]]) / np.sqrt(2),
            atol=1e-14,
        )

    @pytest.mark.parametrize("k", [
        make_depolarizing(0.2, "weak-tetrahedron"),
        make_amplitude_damping(0.3, "optimized"),
        make_dephasing(0.1, "projective"),
    ], ids=lambda k: k.label)
    def test_pair_tables_are_kron_products(self, k):
        n = len(k)
        rng = np.random.default_rng(4)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        table = k.pair_effects @ rho.view(float).reshape(-1)
        for a in range(n):
            for b in range(n):
                np.testing.assert_allclose(
                    k.pair_stacked[a * n + b], np.kron(k.ops[a], k.ops[b]), rtol=0, atol=1e-15
                )
                want = np.trace(np.kron(k.effects[a], k.effects[b]) @ rho).real
                assert abs(table[a * n + b] - want) <= 1e-12 * np.trace(rho).real
        assert not k.pair_effects.flags.writeable and not k.pair_stacked.flags.writeable

    def test_optimized_damping_is_quarter_turn_gauge(self):
        kc = make_amplitude_damping(0.3, "canonical")
        c = s = 1 / np.sqrt(2)
        rot = np.array([[c, s], [-s, c]])
        kr = gauge_transform(kc, rot)
        ko = make_amplitude_damping(0.3, "optimized")
        for a, b in zip(kr.ops, ko.ops):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_unital_n4_matches_tetrahedron(self):
        eps = 0.12
        p = UnitalParams(1 - eps, eps / 3, eps / 3, eps / 3)
        k4 = make_unital(p, 4)
        kt = make_depolarizing(eps, "weak-tetrahedron")
        for a, b in zip(k4.ops, kt.ops):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unital_n6_isotropic_is_octahedron(self):
        eps = 0.12
        p = UnitalParams(1 - eps, eps / 3, eps / 3, eps / 3)
        k6 = make_unital(p, 6)
        a, b = np.sqrt((1 - eps) / 6), np.sqrt(eps / 6)
        want = [a * I2 + s * b * sigma for sigma in (X, Y, Z) for s in (+1, -1)]
        for got, w in zip(k6.ops, want):
            np.testing.assert_allclose(got, w, atol=1e-12)

    @pytest.mark.parametrize("n", (4, 6))
    def test_unital_vector_conditions(self, n):
        p = UnitalParams(0.62, 0.2, 0.05, 0.13)
        k = make_unital(p, n)
        b = np.sqrt((1 - 0.62) / n)
        us = np.array(
            [[np.trace(sigma @ m).real / (2 * b) for sigma in (X, Y, Z)]
             for m in k.ops]
        )
        np.testing.assert_allclose(np.linalg.norm(us, axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(us.sum(axis=0), 0.0, atol=1e-10)
        second = us.T @ us
        want = np.diag(n * np.array([0.2, 0.05, 0.13]) / 0.38)
        np.testing.assert_allclose(second, want, atol=1e-10)

    @pytest.mark.parametrize("n", (4, 6))
    @pytest.mark.parametrize("p0", (0.5, 0.62, 0.8, 0.97, 1.0))
    def test_unital_bound_saturation(self, n, p0):
        rng = np.random.default_rng(int(p0 * 1000) + n)
        rest = rng.dirichlet([1.0, 1.0, 1.0]) * (1 - p0)
        p = UnitalParams(p0, *rest)
        x = unraveling_cost_x(make_unital(p, n))
        assert x == pytest.approx(1 - (2 * p0 - 1) ** 2 / 2, abs=1e-10)

    def test_unital_choi_matches_pauli_mix(self):
        p = UnitalParams(0.7, 0.12, 0.08, 0.1)
        ref = choi_matrix(pauli_mix_set(0.7, 0.12, 0.08, 0.1))
        for n in (4, 6):
            np.testing.assert_allclose(
                choi_matrix(make_unital(p, n)), ref, atol=1e-12
            )

    def test_out_of_range_raises(self):
        with pytest.raises(ChannelError):
            make_dephasing(0.6)
        with pytest.raises(ChannelError):
            make_depolarizing(0.8)
        with pytest.raises(ChannelError):
            make_amplitude_damping(-0.1)
        with pytest.raises(ChannelError):
            make_unital(UnitalParams(0.7, 0.1, 0.1, 0.1), n=5)
        with pytest.raises(ChannelError):
            UnitalParams(0.5, 0.5, 0.5, -0.5)

    def test_incomplete_set_rejected(self):
        with pytest.raises(ChannelError):
            KrausSet((0.9 * I2,))
        with pytest.raises(ChannelError):
            KrausSet(())

    def test_noise_model_dispatch(self):
        nm = NoiseModel("dephasing", 0.1)
        assert len(nm.kraus()) == 2
        assert len(nm.kraus("projective")) == 3
        with pytest.raises(ChannelError):
            nm.kraus("weak-tetrahedron")
        with pytest.raises(ChannelError):
            NoiseModel("unital", 0.1)
        nm2 = NoiseModel("unital", unital=UnitalParams(0.8, 0.1, 0.05, 0.05))
        assert len(nm2.kraus()) == 4
        assert len(nm2.kraus("octahedron")) == 6


class TestGaugeAndChoi:
    def test_identity_gauge(self):
        k = make_dephasing(0.1, "weak-optimal")
        k2 = gauge_transform(k, np.eye(2))
        for a, b in zip(k.ops, k2.ops):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_rotation_of_unitary_mix_gives_weak_pair(self):
        # mixing {sqrt(1-e) I, sqrt(e) Z} with the rotation whose angle has
        # cos = sqrt((1-e)/2)/a, chosen so both rows get equal I weight,
        # lands on the weak pair
        e = 0.1
        k = make_dephasing(e, "unitary-mix")
        a = np.sqrt((1 - e) / 2)
        b = np.sqrt(e / 2)
        u = np.array(
            [[a / np.sqrt(1 - e), b / np.sqrt(e)],
             [a / np.sqrt(1 - e), -b / np.sqrt(e)]]
        ) * 1.0
        kw = gauge_transform(k, u)
        want = make_dephasing(e, "weak-optimal")
        for got, w in zip(kw.ops, want.ops):
            np.testing.assert_allclose(got, w, atol=1e-14)

    def test_choi_pairs_across_forms(self):
        np.testing.assert_allclose(
            choi_matrix(make_dephasing(0.1, "unitary-mix")),
            choi_matrix(make_dephasing(0.1, "weak-optimal")),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            choi_matrix(make_depolarizing(0.3, "weak-tetrahedron")),
            choi_matrix(make_depolarizing(0.3, "pauli-mix")),
            atol=1e-12,
        )

    def test_choi_gauge_invariance_bulk(self):
        k = make_depolarizing(0.2, "pauli-mix")
        ref = choi_matrix(k)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = rng.integers(4, 7)
            g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            q, _ = np.linalg.qr(g)
            u = q[:, :4]
            np.testing.assert_allclose(choi_matrix(gauge_transform(k, u)), ref,
                                       atol=1e-10)

    def test_bad_gauge_rejected(self):
        k = make_dephasing(0.1, "weak-optimal")
        with pytest.raises(ChannelError):
            gauge_transform(k, np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ChannelError):
            gauge_transform(k, np.eye(3))
        with pytest.raises(ChannelError):
            gauge_transform(k, np.eye(2)[:1])


class TestReparametrize:
    """Rewriting a channel's Kraus set without changing the channel."""

    def test_trivial_split_cost_invariant(self):
        split = KrausSet((Z / np.sqrt(2), Z / np.sqrt(2)))
        whole = KrausSet((Z,))
        assert unraveling_cost_x(split) == pytest.approx(
            unraveling_cost_x(whole), abs=1e-12
        )


class TestOptimizer:
    def test_damping_reaches_quarter_turn_value(self):
        k, x = optimize_unraveling(
            make_amplitude_damping(0.1, "canonical"), n_out=2, budget=2, seed=3
        )
        assert x == pytest.approx(0.55, abs=1e-6)
        # the quarter-turn class is pinned by balanced weights tr(M^dag M) = 1
        # and M^dag M eigenvalues (1 +/- sqrt(eps))/2; the optimizer is free
        # to return any phase-dressed member of that class
        for m in k.ops:
            a = m.conj().T @ m
            assert np.trace(a).real == pytest.approx(1.0, abs=1e-5)
            ev = np.sort(np.linalg.eigvalsh(a))
            np.testing.assert_allclose(
                ev, [(1 - np.sqrt(0.1)) / 2, (1 + np.sqrt(0.1)) / 2], atol=1e-5
            )

    def test_monotone_and_deterministic(self):
        k0 = make_dephasing(0.07, "unitary-mix")
        x_in = unraveling_cost_x(k0)
        k1, x1 = optimize_unraveling(k0, budget=2, seed=11)
        k2, x2 = optimize_unraveling(k0, budget=2, seed=11)
        assert x1 >= x_in
        assert x1 == x2
        for a, b in zip(k1.ops, k2.ops):
            np.testing.assert_allclose(a, b, atol=0)

    def test_already_optimal_fixed_point(self):
        k0 = make_depolarizing(0.1, "weak-tetrahedron")
        x_in = unraveling_cost_x(k0)
        _, x = optimize_unraveling(k0, n_out=4, budget=2, seed=5)
        assert x == pytest.approx(x_in, abs=1e-9)

    def test_n_out_below_rank_rejected(self):
        with pytest.raises(ChannelError):
            optimize_unraveling(make_depolarizing(0.1, "pauli-mix"), n_out=2)


class TestSerialization:
    def test_round_trip(self):
        k = make_amplitude_damping(0.3, "optimized")
        rec = kraus_to_dict(k)
        k2 = kraus_from_dict(rec)
        assert k2.label == k.label
        for a, b in zip(k.ops, k2.ops):
            np.testing.assert_allclose(a, b, atol=1e-15)


small_eps = st.floats(min_value=1e-4, max_value=0.49)


@given(eps=small_eps, form=st.sampled_from(["unitary-mix", "projective", "weak-optimal"]))
@settings(max_examples=60, deadline=None)
def test_dephasing_always_complete(eps, form):
    k = make_dephasing(eps, form)
    acc = sum(m.conj().T @ m for m in k.ops)
    np.testing.assert_allclose(acc, np.eye(2), atol=1e-12)


@given(
    p0=st.floats(min_value=0.0, max_value=1.0),
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    n=st.sampled_from([4, 6]),
)
@settings(max_examples=60, deadline=None)
def test_unital_always_complete(p0, a, b, n):
    rest = 1 - p0
    px = rest * a
    py = (rest - px) * b
    pz = rest - px - py
    k = make_unital(UnitalParams(p0, px, py, pz), n)
    acc = sum(m.conj().T @ m for m in k.ops)
    np.testing.assert_allclose(acc, np.eye(2), atol=1e-12)


@given(eps=small_eps, seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_choi_invariant_under_random_gauge(eps, seed, m):
    k = make_dephasing(eps, "weak-optimal")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, _ = np.linalg.qr(g)
    u = q[:, :2]
    np.testing.assert_allclose(
        choi_matrix(gauge_transform(k, u)), choi_matrix(k), atol=1e-10
    )


@given(eps=st.floats(min_value=0.01, max_value=0.74))
@settings(max_examples=40, deadline=None)
def test_duplication_leaves_cost_unchanged(eps):
    k = make_depolarizing(eps, "weak-tetrahedron")
    dup = KrausSet(
        (k.ops[0] / np.sqrt(2), k.ops[0] / np.sqrt(2)) + k.ops[1:]
    )
    assert unraveling_cost_x(dup) == pytest.approx(
        unraveling_cost_x(k), abs=1e-12
    )
