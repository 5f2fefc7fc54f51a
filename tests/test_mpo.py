"""MPO density-matrix oracle: exact agreement with dense evolution on small
circuits, streamed fixed-bitstring probabilities, and policy handling."""

from itertools import product

import numpy as np
import pytest

from sebd.channels import NoiseModel, UnitalParams
from sebd.gates import CZ, H, iswap
from sebd.lightcone import LayerGates, Circuit2D, build_lattice, compile_sebd, random_instance
from sebd.mps import TruncationOverflow, TruncationPolicy
from sebd.oracles.dense import DenseDensity, dense_evolve
from sebd.oracles.mpo import MPODensity, MpoError, mpo_evolve
from sebd.oracles.tableau import tableau_evolve


class TestMpoBasics:
    def test_maximally_mixed_product(self):
        rho = MPODensity.maximally_mixed(6)
        assert rho.max_bond() == 1
        assert abs(rho.trace() - 1.0) < 1e-14
        for bits in ((0,) * 6, (1, 0) * 3, (1,) * 6):
            assert abs(rho.probability(bits) - 2.0**-6) < 1e-14

    def test_pure_product(self):
        rho = MPODensity.product_pure(4, bits=[1, 0, 1, 1])
        assert rho.probability((1, 0, 1, 1)) == 1.0
        assert rho.probability((0, 0, 1, 1)) == 0.0
        assert rho.hermiticity_defect() == 0.0

    def test_bit_count_validation(self):
        with pytest.raises(MpoError):
            MPODensity.maximally_mixed(3).probability((0, 1))

    def test_negative_probability_guard(self):
        t = np.zeros((1, 2, 2, 1), dtype=complex)
        t[0, 0, 0, 0] = -1.0
        with pytest.raises(MpoError):
            MPODensity([t]).probability((0,))

    def test_dense_reconstruction_cap(self):
        with pytest.raises(MpoError):
            MPODensity.maximally_mixed(11).to_dense()

    def test_nonadjacent_gate_routing(self):
        rho = MPODensity.product_pure(4)
        ref = DenseDensity(4)
        for site, g in ((0, H), (3, H)):
            rho.apply_1q(site, g)
            ref.apply_1q(site, g)
        rho.apply_2q(0, 3, CZ)
        ref.apply_2q(0, 3, CZ)
        rho.apply_2q(2, 1, iswap())
        ref.apply_2q(2, 1, iswap())
        np.testing.assert_allclose(rho.to_dense(), ref.rho, atol=1e-12)


def noise_cases():
    yield None, "noiseless"
    yield NoiseModel(kind="dephasing", epsilon=0.05), "dephasing"
    yield NoiseModel(kind="depolarizing", epsilon=0.2), "depolarizing"
    yield NoiseModel(kind="amplitude-damping", epsilon=0.1), "damping"
    yield NoiseModel(kind="unital", unital=UnitalParams(0.7, 0.1, 0.1, 0.1)), "unital"


@pytest.mark.parametrize(
    "noise", [c[0] for c in noise_cases()], ids=[c[1] for c in noise_cases()]
)
class TestAgainstDense:
    def test_final_state_and_stream(self, noise):
        lat = build_lattice("square", 2, 3)
        c = random_instance(lat, "ABC", "fsim", noise, seed=13)
        ref = dense_evolve(c)

        rho = mpo_evolve(c)
        assert abs(rho.trace() - 1.0) < 1e-10
        assert rho.hermiticity_defect() < 1e-8
        worst = max(
            abs(rho.probability(bits) - ref.probability(bits))
            for bits in product((0, 1), repeat=6)
        )
        assert worst < 1e-8

        eff = compile_sebd(c)
        total = 0.0
        for bits in product((0, 1), repeat=6):
            p = mpo_evolve(eff, z=bits).trace()
            assert abs(p - ref.probability(bits)) < 1e-8
            total += p
        assert abs(total - 1.0) < 1e-8


class TestEightQubits:
    def test_2x4_dephasing(self):
        lat = build_lattice("square", 2, 4)
        noise = NoiseModel(kind="dephasing", epsilon=0.05)
        c = random_instance(lat, "ABCD", "fsim", noise, seed=3)
        ref = dense_evolve(c)
        rho = mpo_evolve(c)
        rng = np.random.default_rng(0)
        eff = compile_sebd(c)
        for _ in range(12):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=8))
            p_ref = ref.probability(bits)
            assert abs(rho.probability(bits) - p_ref) < 1e-8
            assert abs(mpo_evolve(eff, z=bits).trace() - p_ref) < 1e-8


class TestStreaming:
    def identity_circuit(self, l_x=2, l_y=2):
        lat = build_lattice("square", l_x, l_y)
        eye = np.eye(2, dtype=complex)
        layers = tuple(
            LayerGates(rotations=(eye,) * lat.n_sites, gates=())
            for _ in "AB"
        )
        return Circuit2D(lattice=lat, schedule="AB", layers=layers, noise=None)

    def test_impossible_bitstring_gives_zero(self):
        eff = compile_sebd(self.identity_circuit())
        assert mpo_evolve(eff, z=(0, 0, 0, 0)).trace() == 1.0
        assert mpo_evolve(eff, z=(0, 1, 0, 0)).trace() == 0.0

    def test_bits_by_coordinate(self):
        lat = build_lattice("square", 2, 3)
        c = random_instance(lat, "ABC", "fsim", None, seed=21)
        eff = compile_sebd(c)
        bits = (1, 0, 0, 1, 1, 0)
        zmap = {coord: b for coord, b in zip(eff.coords(), bits)}
        p_flat = mpo_evolve(eff, z=bits).trace()
        p_map = mpo_evolve(eff, z=zmap).trace()
        assert p_flat == p_map
        with pytest.raises(MpoError):
            mpo_evolve(eff, z={(0, 0): 1})
        with pytest.raises(MpoError):
            mpo_evolve(eff, z=bits[:-1])
        with pytest.raises(MpoError):
            mpo_evolve(eff)

    def test_mode_validation(self):
        lat = build_lattice("square", 2, 2)
        c = random_instance(lat, "AB", "fsim", None, seed=0)
        with pytest.raises(MpoError):
            mpo_evolve(c, z=(0, 0, 0, 0))
        with pytest.raises(MpoError):
            mpo_evolve("not a circuit")

    def test_policy_overflow(self):
        lat = build_lattice("square", 2, 3)
        c = random_instance(lat, "ABC", "fsim", None, seed=13)
        eff = compile_sebd(c)
        strict = TruncationPolicy(chi_max=64, svd_cutoff=0.0, hard_fail_chi=1)
        with pytest.raises(TruncationOverflow):
            mpo_evolve(eff, policy=strict, z=(0,) * 6)


class TestLargeStripReference:
    def test_5x5_clifford_fixed_bitstring(self):
        # 25-qubit instance streamed over the 10-site effective chain; the
        # truncation budget must stay below 1e-10 and the probability must
        # be insensitive to the bond cap
        lat = build_lattice("square", 5, 5)
        noise = NoiseModel(kind="depolarizing", epsilon=0.02)
        c = random_instance(lat, "ABCD", "clifford-iswap-swap", noise, seed=7)
        bits = tuple(int(b) for b in tableau_evolve(c, "erasure", seed=0).sample())

        eff = compile_sebd(c)
        rho = mpo_evolve(eff, z=bits)
        p = rho.trace()
        assert 0.0 < p < 1.0
        assert rho.trunc_log < 1e-10

        p_small = mpo_evolve(eff, policy=TruncationPolicy(chi_max=256, svd_cutoff=1e-12), z=bits).trace()
        assert abs(p - p_small) < 1e-8 * max(p, p_small)
