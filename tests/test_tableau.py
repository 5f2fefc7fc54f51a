"""Stabilizer tableau oracle: decomposition tables, measurement statistics,
entropies, and noise unravelings, cross-checked against the dense oracles."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sebd
from sebd.channels import NoiseModel, choi_matrix, make_dephasing, make_depolarizing
from sebd.gates import CLIFFORD_1Q, CNOT, CZ, H as H_GATE, I2, S as S_GATE, SWAP, X, Y, Z, clifford_table, fsim, iswap
from sebd.lightcone import build_lattice, random_instance
from sebd.oracles.dense import DenseVector, dense_evolve
from sebd.oracles.tableau import (
    Tableau,
    TableauError,
    clifford_sequence,
    tableau_evolve,
)

LN2 = np.log(2.0)


def rebuild_from_sequence(seq, dim):
    n = 1 if dim == 2 else 2
    m = np.eye(dim, dtype=complex)
    cnot_ba = CNOT.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    for step in seq:
        if step[0] == "H":
            op = H_GATE if n == 1 else (np.kron(H_GATE, I2) if step[1] == 0 else np.kron(I2, H_GATE))
        elif step[0] == "S":
            op = S_GATE if n == 1 else (np.kron(S_GATE, I2) if step[1] == 0 else np.kron(I2, S_GATE))
        else:
            op = CNOT if step[1:] == (0, 1) else cnot_ba
        m = op @ m
    return m


def i3_from_entropies(t, a, b, c):
    """Tripartite information of three disjoint site blocks from Tableau.entropy."""
    s = t.entropy
    return (
        s(a) + s(b) + s(c)
        - s(a + b) - s(a + c) - s(b + c)
        + s(a + b + c)
    )


def assert_equal_up_to_phase(a, b):
    idx = np.argmax(np.abs(b) > 1e-9)
    ph = a.flat[idx] / b.flat[idx]
    assert abs(abs(ph) - 1.0) < 1e-9
    np.testing.assert_allclose(a, ph * b, atol=1e-9)


class TestCliffordSequences:
    @pytest.mark.parametrize("gate", [iswap(), SWAP, CZ, CNOT], ids=["iswap", "swap", "cz", "cnot"])
    def test_two_qubit_decompositions(self, gate):
        seq = clifford_sequence(gate)
        assert_equal_up_to_phase(rebuild_from_sequence(seq, 4), gate)

    def test_all_single_qubit_cliffords(self):
        for g in CLIFFORD_1Q:
            seq = clifford_sequence(g)
            assert_equal_up_to_phase(rebuild_from_sequence(seq, 2), g)

    def test_non_clifford_rejected(self):
        with pytest.raises(TableauError):
            clifford_sequence(fsim(np.pi / 2, np.pi / 6))
        with pytest.raises(TableauError):
            clifford_sequence(np.eye(8))

    def test_tables_are_pinned(self):
        # recorded before the one- and two-qubit searches became one: the
        # matrices of CLIFFORD_1Q in order, and each table's keys and step
        # sequences in insertion order. The matrices are rounded to 12
        # digits, as a few entries hold roundoff (2.2e-17 where a pure-Python
        # product gives 0) whose last bits depend on the BLAS kernel.
        def digest(chunks):
            h = hashlib.sha256()
            for chunk in chunks:
                h.update(chunk)
            return h.hexdigest()[:16]

        got = {"CLIFFORD_1Q": digest((np.round(m, 12) + 0.0).tobytes() for m in CLIFFORD_1Q)}
        for n in (1, 2):
            got[f"{n}q"] = digest(key + repr(seq).encode() for key, (_, seq) in clifford_table(n).items())
        assert got == {"CLIFFORD_1Q": "b9bab7e9d0399020", "1q": "fb798c72b58584d3", "2q": "ea4c24f4b7e3d9d3"}

    def test_clifford_1q_entries_are_exact(self):
        # every real and imaginary part is 0, +-1/2, +-1/sqrt(2) (as H holds
        # it) or +-1 bitwise, with no -0.0, whatever the BLAS kernel
        exact = np.array([0.0, 0.5, H_GATE[0, 0].real, 1.0])
        allowed = {v.tobytes() for v in np.concatenate((exact, -exact[1:]))}
        parts = np.array(CLIFFORD_1Q).view(float).ravel()
        assert {v.tobytes() for v in parts} <= allowed

    def test_two_qubit_table_is_built_on_first_use(self):
        probe = (
            "import numpy as np; from sebd.gates import clifford_table; "
            "from sebd.oracles.tableau import clifford_sequence; "
            "clifford_sequence(np.eye(2)); print(clifford_table.cache_info().currsize); "
            "clifford_sequence(np.eye(4)); print(clifford_table.cache_info().currsize)"
        )
        src = str(Path(sebd.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.split() == ["1", "2"]


class TestTableauStates:
    def bell(self):
        t = Tableau(2)
        t.h(0)
        t.cnot(0, 1)
        return t

    def ghz(self, n):
        t = Tableau(n)
        t.h(0)
        for a in range(n - 1):
            t.cnot(a, a + 1)
        return t

    def test_product_state_entropy_zero(self):
        t = Tableau(8)
        for sub in ([0], [1, 4], [0, 2, 3], list(range(5))):
            assert t.entropy(sub) == 0.0

    def test_bell_pair(self):
        t = self.bell()
        assert abs(t.entropy([0]) - LN2) < 1e-12
        assert abs(t.entropy([1]) - LN2) < 1e-12
        assert t.check_symplectic()

    def test_ghz_half_cut(self):
        t = self.ghz(8)
        assert abs(t.entropy(range(4)) - LN2) < 1e-12

    def test_ghz_tripartite_information(self):
        # quarters A, B, C of an 8-site GHZ state: every nonempty proper
        # union has entropy ln 2, so I3 = 3 ln2 - 3 ln2 + ln2
        assert abs(i3_from_entropies(self.ghz(8), [0, 1], [2, 3], [4, 5]) - LN2) < 1e-12

    def test_explicit_quarters(self):
        t = self.ghz(8)
        val = i3_from_entropies(t, [0, 1, 2], [3], [5, 6])
        assert abs(val - LN2) < 1e-12
        with pytest.raises(TableauError):
            t.entropy([0, 8])

    def test_ghz_sampling(self):
        t = self.ghz(6)
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(200):
            bits, w = t.copy().measure_all(rng)
            assert w == -1.0
            seen.add(bits)
        assert seen == {(0,) * 6, (1,) * 6}

    def test_forced_outcomes(self):
        t = self.ghz(6)
        rng = np.random.default_rng(4)
        _, w = t.copy().measure_all(rng, force=(0,) * 6)
        assert w == -1.0
        _, w = t.copy().measure_all(rng, force=(1, 0, 0, 0, 0, 0))
        assert w == -np.inf

    def test_pauli_x_flips_deterministic_outcome(self):
        t = Tableau(3)
        t.pauli_x(1)
        rng = np.random.default_rng(0)
        bits, w = t.measure_all(rng)
        assert bits == (0, 1, 0) and w == 0.0

    def test_subsystem_validation(self):
        t = Tableau(3)
        with pytest.raises(TableauError):
            t.entropy([3])


def evolve_dense_vector(circuit):
    psi = DenseVector(circuit.lattice.n_sites)
    for lg in circuit.layers:
        for s, g in enumerate(lg.rotations):
            psi.apply_1q(s, g)
        for a, b, m in lg.gates:
            psi.apply_2q(a, b, m)
    return psi


class TestAgainstDense:
    def test_forced_likelihoods_match_amplitudes(self):
        # exact check (all values are powers of two): joint outcome
        # probability from forced measurement == |amplitude|^2
        lat = build_lattice("square", 3, 4)
        for seed in (0, 1):
            c = random_instance(lat, "ABCD", "clifford-iswap-swap", None, seed=seed)
            run = tableau_evolve(c, "erasure", seed=99)
            psi = evolve_dense_vector(c)
            probs = psi.probabilities()
            rng = np.random.default_rng(7)
            picks = list(rng.integers(0, len(probs), size=24)) + [0]
            for idx in picks:
                bits = tuple((idx >> (11 - k)) & 1 for k in range(12))
                w = run.probability_log2(bits)
                p = 0.0 if w == -np.inf else 2.0**w
                assert abs(p - probs[idx]) < 1e-9

    def test_sampling_matches_dense_distribution(self):
        c = random_instance(build_lattice("square", 2, 3), "ABC", "clifford-iswap-swap", None, seed=2)
        run = tableau_evolve(c, "erasure", seed=11)
        probs = evolve_dense_vector(c).probabilities()
        n_samples = 10**5
        samples = run.sample_many(n_samples)
        idx = samples @ (1 << np.arange(5, -1, -1))
        counts = np.bincount(idx, minlength=64)
        tv = 0.5 * np.sum(np.abs(counts / n_samples - probs))
        assert tv < 0.02

    def test_bulk_sampling_agrees_with_sequential(self):
        c = random_instance(build_lattice("square", 2, 2), "AB", "clifford-iswap-swap", None, seed=9)
        probs = evolve_dense_vector(c).probabilities()
        run = tableau_evolve(c, "erasure", seed=1)
        seq_counts = np.zeros(16)
        for _ in range(3000):
            seq_counts[int("".join(map(str, run.sample())), 2)] += 1
        bulk = tableau_evolve(c, "erasure", seed=2).sample_many(3000)
        bulk_counts = np.bincount(bulk @ (1 << np.arange(3, -1, -1)), minlength=16)
        for counts in (seq_counts, bulk_counts):
            assert 0.5 * np.sum(np.abs(counts / 3000 - probs)) < 0.07

    def test_entropies_match_dense(self):
        lat = build_lattice("square", 3, 4)
        c = random_instance(lat, "ABCD", "clifford-iswap-swap", None, seed=6)
        run = tableau_evolve(c, "erasure", seed=0)
        psi = evolve_dense_vector(c)
        rng = np.random.default_rng(20)
        for _ in range(8):
            size = int(rng.integers(1, 9))
            sub = sorted(rng.choice(12, size=size, replace=False).tolist())
            s_tab = run.tableau.entropy(sub)
            s_dense = psi.subsystem_renyi(sub, n=1.0)
            assert abs(s_tab - s_dense) < 1e-8
            assert abs(s_tab / LN2 - round(s_tab / LN2)) < 1e-12


class TestErasureUnraveling:
    def test_average_channel_equals_depolarizing(self):
        # adopted factor: erasure probability 4*eps/3; the averaged map is
        # (1-q) rho + q tr(rho) I/2, whose Kraus set {sqrt(1-q) I, sqrt(q) P/2}
        # must give the depolarizing Choi matrix exactly
        for eps in (0.02, 0.1, 0.3, 0.75):
            q = 4.0 * eps / 3.0
            ops = [np.sqrt(1 - q) * I2] + [np.sqrt(q) / 2.0 * P for P in (I2, X, Y, Z)]
            erased = sum(np.kron(m, m.conj()) for m in ops)
            dep = choi_matrix(make_depolarizing(eps, form="pauli-mix"))
            assert np.max(np.abs(erased - dep)) < 1e-12

    def test_projective_z_average_equals_dephasing(self):
        for eps in (0.05, 0.2):
            q = 2.0 * eps
            proj0 = np.diag([1.0, 0.0]).astype(complex)
            proj1 = np.diag([0.0, 1.0]).astype(complex)
            ops = [np.sqrt(1 - q) * I2, np.sqrt(q) * proj0, np.sqrt(q) * proj1]
            avg = sum(np.kron(m, m.conj()) for m in ops)
            deph = choi_matrix(make_dephasing(eps, form="unitary-mix"))
            assert np.max(np.abs(avg - deph)) < 1e-12

    def test_erasure_event_marginal_is_maximally_mixed(self):
        rng = np.random.default_rng(123)
        base = Tableau(1)
        ones = 0
        trials = 10**5
        for _ in range(trials):
            t = base.copy()
            t.measure(0, rng)
            if rng.random() < 0.5:
                t.pauli_x(0)
            out, _ = t.measure(0, rng)
            ones += out
        assert abs(ones / trials - 0.5) < 4 * 0.5 / np.sqrt(trials)

    @pytest.mark.parametrize(
        "kind,unraveling",
        [("depolarizing", "erasure"), ("dephasing", "projective-z")],
    )
    def test_trajectory_average_matches_dense(self, kind, unraveling):
        lat = build_lattice("square", 2, 2)
        noise = NoiseModel(kind=kind, epsilon=0.15)
        c = random_instance(lat, "AB", "clifford-iswap-swap", noise, seed=8)
        diag = dense_evolve(c).diagonal()
        n_traj = 3000
        counts = np.zeros(16)
        for k in range(n_traj):
            bits = tableau_evolve(c, unraveling, seed=k).sample()
            counts[int("".join(map(str, bits)), 2)] += 1
        tv = 0.5 * np.sum(np.abs(counts / n_traj - diag))
        # expected sampling TV ~ 0.5*sqrt(2B/(pi K)) ~ 0.029 here
        assert tv < 0.055

    def test_determinism_per_seed(self):
        lat = build_lattice("square", 2, 3)
        noise = NoiseModel(kind="depolarizing", epsilon=0.2)
        c = random_instance(lat, "ABC", "clifford-iswap-swap", noise, seed=1)
        a = tableau_evolve(c, "erasure", seed=42)
        b = tableau_evolve(c, "erasure", seed=42)
        assert np.array_equal(a.tableau.X, b.tableau.X)
        assert np.array_equal(a.tableau.Z, b.tableau.Z)
        assert np.array_equal(a.tableau.phase, b.tableau.phase)
        assert a.sample() == b.sample()

    def test_unraveling_validation(self):
        lat = build_lattice("square", 2, 2)
        noise = NoiseModel(kind="depolarizing", epsilon=0.1)
        c = random_instance(lat, "AB", "clifford-iswap-swap", noise, seed=0)
        with pytest.raises(TableauError):
            tableau_evolve(c, "projective-z", seed=0)
        with pytest.raises(TableauError):
            tableau_evolve(c, "weak", seed=0)

    def test_non_clifford_circuit_rejected(self):
        c = random_instance(build_lattice("square", 2, 2), "AB", "fsim", None, seed=0)
        with pytest.raises(TableauError):
            tableau_evolve(c, "erasure", seed=0)


class TestSymplecticInvariant:
    def run_random_ops(self, n_ops, seed):
        rng = np.random.default_rng(seed)
        t = Tableau(16)
        for _ in range(n_ops):
            op = rng.integers(3)
            if op == 0:
                t.h(int(rng.integers(16)))
            elif op == 1:
                t.s(int(rng.integers(16)))
            else:
                a, b = rng.choice(16, size=2, replace=False)
                t.cnot(int(a), int(b))
        return t

    def test_symplectic_structure_survives(self):
        assert self.run_random_ops(10**4, seed=5).check_symplectic()

    @pytest.mark.slow
    def test_symplectic_structure_survives_bulk(self):
        assert self.run_random_ops(10**6, seed=6).check_symplectic()
