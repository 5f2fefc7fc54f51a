"""Trajectory sampler: determinism, record invariants, oracle agreement,
probability estimation, purification telemetry, unraveling invariance."""

import importlib
import json
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import sebd
from sebd.channels import NoiseModel
from sebd.experiments import config_from_mapping
from sebd.gates import X, Y, Z, fsim
from sebd.lightcone import (
    Circuit2D,
    Gate,
    Lattice2D,
    LayerGates,
    Noise,
    build_lattice,
    compile_sebd,
    random_instance,
)
from sebd.mps import MatrixProductState, TruncationPolicy
from sebd.oracles.dense import DenseVector, dense_evolve
from sebd.oracles.mpo import mpo_evolve
from sebd.oracles.tableau import Tableau, tableau_evolve
from sebd.sampler import (
    RunConfig,
    SamplerError,
    _measure_reset,
    _run_block,
    _trajectory_rng,
    estimate_probability,
    purification_run,
    run_trajectory,
    sample,
)

from one_lane import scan_bits


def small_noisy_circuit(seed=4, epsilon=0.1):
    lat = build_lattice("square", 2, 3)
    noise = NoiseModel(kind="dephasing", epsilon=epsilon)
    return random_instance(lat, "ABC", "fsim", noise, seed=seed)


def records_to_counts(records, n_bits):
    counts = np.zeros(1 << n_bits)
    for rec in records:
        counts[int("".join(map(str, scan_bits(rec))), 2)] += 1
    return counts


class TestRunConfig:
    def test_validation(self):
        eff = compile_sebd(small_noisy_circuit())
        with pytest.raises(SamplerError):
            RunConfig(circuit=eff, n_trajectories=0)
        with pytest.raises(SamplerError):
            RunConfig(circuit="nope")

    def test_precompiled_circuit_passthrough(self):
        eff = compile_sebd(small_noisy_circuit())
        assert RunConfig(circuit=eff).circuit is eff

    def test_uncompiled_circuit_rejected(self):
        with pytest.raises(SamplerError, match="compile_sebd"):
            RunConfig(circuit=small_noisy_circuit())

    @pytest.mark.parametrize("seed", (-1, 2**63, 2**64 - 1))
    def test_master_seed_outside_philox_key_range_rejected(self, seed):
        # Philox keys are int64: 2**63 and 2**63 + 5 would share one stream
        with pytest.raises(SamplerError, match="master_seed"):
            RunConfig(circuit=compile_sebd(small_noisy_circuit()), master_seed=seed)

    def test_master_seed_range_ends_accepted(self):
        for seed in (0, 2**63 - 1):
            cfg = RunConfig(compile_sebd(small_noisy_circuit()), master_seed=seed)
            assert run_trajectory(cfg, 0).ok


class TestRunTrajectory:
    def test_determinism_and_stream_independence(self):
        c = small_noisy_circuit()
        cfg = RunConfig(circuit=compile_sebd(c), master_seed=9)
        a = run_trajectory(cfg, 3)
        b = run_trajectory(cfg, 3)
        assert a == b
        assert run_trajectory(cfg, 4).z != a.z or run_trajectory(cfg, 4).m != a.m

    def test_record_invariants(self):
        c = small_noisy_circuit()
        cfg = RunConfig(circuit=compile_sebd(c), master_seed=0)
        (rec,) = sample(cfg, mid_entropy=True)
        assert rec.ok
        assert set(rec.z) == set(c.lattice.sites)
        assert len(rec.z) == c.lattice.n_sites
        assert len(rec.m) == cfg.circuit.counts()["noise"]
        assert rec.trunc_total >= 0.0
        assert len(rec.entropies) == len(cfg.circuit.rows)
        assert all(isinstance(s, float) for s in rec.entropies)
        assert rec.chi_max_seen >= 1

    def test_dimer_distribution_exact(self):
        # independent oracle: T=1 vertical dimers evolve as two separate
        # 2-qubit states, so P(z) is a product of 4x4 matrix elements
        lat = build_lattice("square", 2, 2)
        c = random_instance(lat, "A", "fsim", None, seed=3)
        rot = c.layers[0].rotations
        pair_probs = []
        for a, b, g in c.layers[0].gates:
            psi = np.zeros(4, dtype=complex)
            psi[0] = 1.0
            psi = g @ np.kron(rot[a], rot[b]) @ psi
            pair_probs.append(np.abs(psi) ** 2)
        # gates pair site 0 with 2 and 1 with 3 (scan order)
        pairs = [(a, b) for a, b, _ in c.layers[0].gates]
        assert pairs == [(0, 2), (1, 3)]

        def exact(z):
            return pair_probs[0][2 * z[0] + z[2]] * pair_probs[1][2 * z[1] + z[3]]

        eff = compile_sebd(c)
        cfg = RunConfig(circuit=eff, n_trajectories=1)
        zs = [(i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(16)]
        tv = 0.5 * sum(abs(estimate_probability(cfg, z)[0] - exact(z)) for z in zs)
        assert tv < 1e-6

        emp = records_to_counts(sample(RunConfig(circuit=eff, n_trajectories=8000)), 4)
        tv_emp = 0.5 * sum(abs(emp[i] / 8000 - exact(z)) for i, z in enumerate(zs))
        assert tv_emp < 0.04

    def test_fully_mixing_noise_gives_uniform_bits(self):
        lat = build_lattice("square", 2, 3)
        noise = NoiseModel(kind="depolarizing", epsilon=0.75)
        c = random_instance(lat, "A", "fsim", noise, seed=1)
        k = 2500
        recs = sample(RunConfig(circuit=compile_sebd(c), n_trajectories=k, master_seed=5))
        bits = np.array([scan_bits(rec) for rec in recs])
        freqs = bits.mean(axis=0)
        band = 4 * 0.5 / np.sqrt(k)
        assert np.all(np.abs(freqs - 0.5) < band)

    def test_clifford_frequencies_match_stabilizer_oracle(self):
        # the tableau side must average over many noise realizations: a
        # single trajectory's bit marginals are 0, 1/2, or 1, so drawing
        # many z samples from few realizations does not converge
        lat = build_lattice("square", 2, 3)
        noise = NoiseModel(kind="depolarizing", epsilon=0.02)
        c = random_instance(lat, "ABC", "clifford-iswap-swap", noise, seed=12)
        k_mps = 1500
        recs = sample(RunConfig(circuit=compile_sebd(c), n_trajectories=k_mps, master_seed=2))
        f_mps = np.array([scan_bits(rec) for rec in recs]).mean(axis=0)
        n_real = 1500
        per_seed = np.array(
            [
                tableau_evolve(c, "erasure", seed=s).sample_many(8).mean(axis=0)
                for s in range(n_real)
            ]
        )
        f_tab = per_seed.mean(axis=0)
        sig_tab = per_seed.std(axis=0, ddof=1) / np.sqrt(n_real)
        sig_mps = np.sqrt(np.clip(f_mps * (1 - f_mps), 1e-4, None) / k_mps)
        sigma = np.sqrt(sig_tab**2 + sig_mps**2)
        assert np.all(np.abs(f_mps - f_tab) < 4 * sigma)


class TestSample:
    def test_singleton_and_repeatability(self):
        eff = compile_sebd(small_noisy_circuit())
        cfg = RunConfig(circuit=eff, n_trajectories=1, master_seed=7)
        assert sample(cfg) == [run_trajectory(cfg, 0)]
        cfg5 = RunConfig(circuit=eff, n_trajectories=5, master_seed=7)
        assert sample(cfg5) == sample(cfg5)

    def test_worker_invariance(self):
        # K = 300 runs as two lane blocks, one per worker with workers=2
        eff = compile_sebd(small_noisy_circuit())
        cfg = RunConfig(eff, n_trajectories=300, master_seed=1)
        for mid_entropy in (False, True):
            one = sample(cfg, mid_entropy=mid_entropy)
            assert [r.seed for r in one] == list(range(300))
            assert len(one[0].entropies) == (len(eff.rows) if mid_entropy else 0)
            assert one == sample(cfg, workers=2, mid_entropy=mid_entropy)

    def test_failures_marked_not_dropped(self):
        c = small_noisy_circuit()
        strict = TruncationPolicy(chi_max=64, svd_cutoff=0.0, hard_fail_chi=1)
        recs = sample(RunConfig(circuit=compile_sebd(c), n_trajectories=4, policy=strict))
        assert len(recs) == 4
        assert all(not r.ok and "TruncationOverflow" in r.failed for r in recs)

    def test_marginals_match_mpo_oracle_3x3(self):
        lat = build_lattice("square", 3, 3)
        noise = NoiseModel(kind="dephasing", epsilon=0.05)
        c = random_instance(lat, "ABC", "fsim", noise, seed=6)
        rho = mpo_evolve(c)
        ref = marginal_ones(rho)
        k = 1200
        recs = sample(RunConfig(circuit=compile_sebd(c), n_trajectories=k, master_seed=3))
        freqs = np.array([scan_bits(rec) for rec in recs]).mean(axis=0)
        sigma = np.sqrt(np.clip(ref * (1 - ref), 1e-6, None) / k)
        assert np.all(np.abs(freqs - ref) < 4 * sigma)

    def test_marginals_match_mpo_oracle_3x3_bulk(self):
        lat = build_lattice("square", 3, 3)
        noise = NoiseModel(kind="dephasing", epsilon=0.05)
        c = random_instance(lat, "ABC", "fsim", noise, seed=6)
        ref = marginal_ones(mpo_evolve(c))
        k = 10**4
        recs = sample(RunConfig(circuit=compile_sebd(c), n_trajectories=k, master_seed=3))
        freqs = np.array([scan_bits(rec) for rec in recs]).mean(axis=0)
        sigma = np.sqrt(np.clip(ref * (1 - ref), 1e-6, None) / k)
        assert np.all(np.abs(freqs - ref) < 4 * sigma)


class TestGoldenSeed:
    """Same seed, same samples: bits and Kraus indices pinned to a fixture.

    golden_seed.json was recorded after the noise that follows a gate moved
    onto the gate's two-site block, which changed the order in which random
    numbers are drawn; it checks that gauge and kernel rewrites change
    results by roundoff only. Each case is a 2D circuit drawn with seed 11
    (ABCD schedule, fSim gates, depolarizing 0.05, weak-tetrahedron
    unraveling) and run for 6 trajectories with master seed 2306. The
    purification series and estimates were recorded while purification_run
    still had an event loop of its own, before it went through _run_block.
    """

    CASES = {"square_4x8": ("square", 4, 8), "heavyhex_7": ("heavy-hex", 7, None)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_and_kraus_indices_match_fixture(self, case):
        golden = json.loads((Path(__file__).parent / "golden_seed.json").read_text())[case]
        kind, lx, ly = self.CASES[case]
        noise = NoiseModel(kind="depolarizing", epsilon=0.05)
        c = random_instance(build_lattice(kind, lx, ly), "ABCD", "fsim", noise, seed=11)
        cfg = RunConfig(
            circuit=compile_sebd(c, "weak-tetrahedron"),
            policy=TruncationPolicy(chi_max=256, svd_cutoff=1e-12),
            n_trajectories=len(golden),
            master_seed=2306,
        )
        for rec, want in zip(sample(cfg), golden):
            assert rec.ok
            assert "".join(map(str, scan_bits(rec))) == want["bits"]
            assert "".join(map(str, rec.m)) == want["m"]
            assert abs(rec.trunc_total - want["trunc_total"]) <= 1e-20

    # the perfbench workloads' circuit and truncation settings
    WORKLOAD = {
        "schedule": "ABCD", "gate_family": "fsim", "noise_kind": "depolarizing",
        "unravel_form": "weak-tetrahedron", "epsilons": [0.05], "chi_max": 256,
        "svd_cutoff": 1e-12,
    }

    @staticmethod
    def fixture(name):
        return json.loads((Path(__file__).parent / "golden_seed.json").read_text())[name]

    def test_purification_series_match_fixture(self):
        # phase_sweep_square_6: a 6 x 18 strip, 8 trajectories, the reference on
        # the middle slot, as purification_point builds it for command seeds
        # 3001 and 3002; the fit window reads entropies down to 1e-11
        cfg = config_from_mapping(
            {**self.WORKLOAD, "lattice": "square", "lx_list": [6], "n_trajectories": 8}
        )
        for seed, want in self.fixture("purification_square_6").items():
            eff = compile_sebd(cfg.instance(0.05, 6, 18, int(seed)), cfg.form(0.05))
            run = RunConfig(eff, policy=cfg.policy(), n_trajectories=8, master_seed=int(seed))
            np.testing.assert_allclose(purification_run(run), want, rtol=1e-9, atol=1e-13)

    def test_estimates_match_fixture(self):
        # benchmark_square_3x3: K = 250 trajectories on the square 3 x 3 of seed 3
        cfg = config_from_mapping({**self.WORKLOAD, "lattice": "square", "lx_list": [3]})
        eff = compile_sebd(cfg.instance(0.05, 3, 3, 3), cfg.form(0.05))
        run = RunConfig(eff, policy=cfg.policy(), n_trajectories=250, master_seed=3)
        for z, want in self.fixture("estimate_square_3x3").items():
            got = estimate_probability(run, [int(b) for b in z])
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def marginal_ones(rho) -> np.ndarray:
    """P(bit=1) per site from an MPO by tracing out the rest."""
    n = rho.n_sites
    traced = [np.einsum("lssr->lr", t) for t in rho.tensors]
    kept1 = [t[:, 1, 1, :] for t in rho.tensors]
    out = np.zeros(n)
    for s in range(n):
        env = np.ones((1,), dtype=complex)
        for i in range(n):
            env = env @ (kept1[i] if i == s else traced[i])
        out[s] = (env[0] * np.exp(rho.log_weight)).real
    return out


class TestEstimateProbability:
    def test_trivial_product_circuit(self):
        lat = build_lattice("square", 2, 2)
        eye = np.eye(2, dtype=complex)
        layers = (LayerGates(rotations=(eye,) * 4, gates=()),)
        c = Circuit2D(lattice=lat, schedule="A", layers=layers, noise=None)
        cfg = RunConfig(circuit=compile_sebd(c), n_trajectories=3)
        p, se = estimate_probability(cfg, (0, 0, 0, 0))
        assert p == 1.0 and se == 0.0
        p, se = estimate_probability(cfg, (1, 0, 0, 0))
        assert p == 0.0

    def test_two_qubit_fsim_layer_vs_dense(self):
        sites = ((0, 0), (1, 0))
        lat = Lattice2D(kind="square", L_x=2, L_y=1, sites=sites, bonds=(((0, 1, "A")),))
        rng = np.random.default_rng(17)
        from sebd.gates import ROTATION_SET

        rot = tuple(ROTATION_SET[i] for i in rng.integers(0, 8, size=2))
        layers = (LayerGates(rotations=rot, gates=((0, 1, fsim(np.pi / 2, np.pi / 6)),)),)
        noise = NoiseModel(kind="dephasing", epsilon=0.1)
        c = Circuit2D(lattice=lat, schedule="A", layers=layers, noise=noise)

        ref = dense_evolve(c)
        cfg = RunConfig(circuit=compile_sebd(c), n_trajectories=10**4, master_seed=11)
        for bits in ((0, 0), (0, 1), (1, 1)):
            p, se = estimate_probability(cfg, bits)
            assert abs(p - ref.probability(bits)) < 3 * max(se, 1e-12)

    def test_bits_by_coordinate_and_validation(self):
        c = small_noisy_circuit()
        cfg = RunConfig(circuit=compile_sebd(c), n_trajectories=50, master_seed=1)
        flat = (0, 1, 1, 0, 0, 1)
        zmap = {coord: b for coord, b in zip(cfg.circuit.coords(), flat)}
        assert estimate_probability(cfg, flat) == estimate_probability(cfg, zmap)
        with pytest.raises(SamplerError):
            estimate_probability(cfg, flat[:-1])
        with pytest.raises(SamplerError):
            estimate_probability(cfg, {(0, 0): 1})
        # a bit outside {0, 1} is named by its coordinate before any trajectory runs
        first = cfg.circuit.coords()[0]
        with pytest.raises(SamplerError, match=re.escape(f"bit 2 at coordinate {first}")):
            estimate_probability(cfg, (2,) + flat[1:])
        with pytest.raises(SamplerError, match=re.escape(f"bit -1 at coordinate {first}")):
            estimate_probability(cfg, {**zmap, first: -1})

    def test_all_failed_raises(self):
        c = small_noisy_circuit()
        strict = TruncationPolicy(chi_max=64, svd_cutoff=0.0, hard_fail_chi=1)
        cfg = RunConfig(circuit=compile_sebd(c), n_trajectories=3, policy=strict)
        with pytest.raises(SamplerError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                estimate_probability(cfg, (0,) * 6)


class TestTableauAtWorkloadScale:
    """Noiseless Clifford circuits of the sample workloads' sizes against the tableau.

    Such a circuit ends in a stabilizer state, whose p(z) the tableau gives
    exactly at any size, and without noise every lane of
    estimate_probability weighs p(z) itself. So the whole compiled path
    (slot map, routing swaps, lanes, closed-form SVDs, projections) must
    reproduce log2 p(z) to roundoff, and a zero-probability z exactly.
    """

    POLICY = TruncationPolicy(chi_max=256, svd_cutoff=1e-12)

    def run(self, lattice):
        lat = build_lattice(*lattice)
        c = random_instance(lat, "ABCD", "clifford-iswap-swap", None, seed=5)
        cfg = RunConfig(compile_sebd(c), policy=self.POLICY, n_trajectories=4, master_seed=5)
        return lat, cfg, tableau_evolve(c, "erasure", seed=5)

    @pytest.mark.parametrize(
        "lattice", [("square", 6, 18), ("heavy-hex", 11, None)], ids=["square-6x18", "heavy-hex-11"]
    )
    def test_estimates_are_tableau_probabilities(self, lattice):
        lat, cfg, tab = self.run(lattice)
        rng = np.random.default_rng(5)
        sampled = [tuple(z) for z in tab.sample_many(2)]
        zero = []  # sampled targets with three bits flipped, until two have p = 0
        while len(zero) < 2:
            z = np.array(sampled[len(zero)])
            z[rng.choice(len(z), 3, replace=False)] ^= 1
            if tab.probability_log2(z) == -np.inf:
                zero.append(tuple(z))
        for z in sampled + zero:
            want = tab.probability_log2(z)
            p, _ = estimate_probability(cfg, dict(zip(lat.sites, z)))
            if want == -np.inf:
                assert p == 0.0
            else:
                assert abs(np.log2(p) - want) <= 1e-12

    def test_samples_have_positive_tableau_probability(self):
        lat, cfg, tab = self.run(("square", 6, 18))
        for rec in sample(cfg):
            assert rec.ok
            assert np.isfinite(tab.probability_log2([rec.z[site] for site in lat.sites]))


# the pauli-mix form's Kraus operators are scaled I, X, Y, Z, in this order
PAULIS = (None, X, Y, Z)


def tableau_replay_log2(eff, target: dict, picks) -> tuple:
    """One trajectory's weight, replayed on a tableau: log2 w and its readouts.

    The compiled events act on the slots: each gate, then the Pauli of each
    Kraus pick (a noisy gate's on its slot i, then on j), and each readout
    as a Z measurement forced onto the target bit, then reset to |0>. Under
    pauli-mix noise the Kraus weights do not depend on the state, so a
    lane's weight given its picks is the product of the readouts'
    likelihoods. Returns (log2 w, readouts), and (-inf, k) at the first
    readout k that the tableau gives probability 0.
    """
    tab = Tableau(eff.n_sites)
    picks = iter(picks)

    def pauli(site):
        p = PAULIS[next(picks)]
        if p is not None:
            tab.apply_unitary(p, (site,))

    log2w, col = 0.0, 0
    for ev in eff.events():
        if isinstance(ev, Gate):
            tab.apply_unitary(ev.matrix, (ev.i,) if ev.j is None else (ev.i, ev.j))
            if ev.kraus is not None:
                pauli(ev.i)
                pauli(ev.j)
        elif isinstance(ev, Noise):
            pauli(ev.i)
        else:
            bit, likelihood = tab.measure(ev.i, None, force=target[ev.coord])
            if likelihood == 0.0:
                return -np.inf, col
            log2w += np.log2(likelihood)
            if bit:
                tab.pauli_x(ev.i)
            col += 1
    return log2w, col


def tableau_reference_entropies(eff, picks, bits) -> np.ndarray:
    """One purification lane replayed on a tableau: the reference's entropy
    after each row-step.

    The slots are qubits 0..n-1 and the reference is qubit n, Bell-paired
    with slot n // 2 before the first row. Gates and Kraus picks act as in
    tableau_replay_log2; each readout is forced onto the lane's recorded bit,
    then reset to |0>.
    """
    n = eff.n_sites
    tab = Tableau(n + 1)
    tab.h(n)
    tab.cnot(n, n // 2)
    picks, bits = iter(picks), iter(bits)

    def pauli(site):
        p = PAULIS[next(picks)]
        if p is not None:
            tab.apply_unitary(p, (site,))

    out = []
    for row in eff.rows:
        for ev in row:
            if isinstance(ev, Gate):
                tab.apply_unitary(ev.matrix, (ev.i,) if ev.j is None else (ev.i, ev.j))
                if ev.kraus is not None:
                    pauli(ev.i)
                    pauli(ev.j)
            elif isinstance(ev, Noise):
                pauli(ev.i)
            else:
                bit, likelihood = tab.measure(ev.i, None, force=int(next(bits)))
                assert likelihood > 0, "the lane read a bit of probability 0"
                if bit:
                    tab.pauli_x(ev.i)
        out.append(tab.entropy([n]))
    return np.array(out)


class TestNoisyTableauAtWorkloadScale:
    """Noisy Clifford circuits of the sample workloads' sizes against a tableau replay.

    Under pauli-mix depolarizing noise every Kraus operator is a scaled
    Pauli, so each trajectory of a clifford-iswap-swap circuit stays a
    stabilizer state and its Born weights do not depend on the state. A
    test-side tableau then replays each lane's compiled events and Kraus
    picks and gives its exact weight. That checks the lanes, loose slots,
    noise on the gate's block (_sample_pair), routing and projection
    together, at 108 and 65 qubits, with the tableau code independent of
    the MPS code.
    """

    POLICY = TruncationPolicy(chi_max=256, svd_cutoff=1e-12)

    @pytest.mark.parametrize(
        "lattice", [("square", 6, 18), ("heavy-hex", 11, None)], ids=["square-6x18", "heavy-hex-11"]
    )
    def test_lane_weights_are_tableau_weights(self, lattice):
        c = random_instance(
            build_lattice(*lattice), "ABCD", "clifford-iswap-swap",
            NoiseModel("depolarizing", 0.005), seed=5,
        )
        eff = compile_sebd(c, "pauli-mix")
        cfg = RunConfig(eff, policy=self.POLICY, n_trajectories=3, master_seed=5)
        # sampled z has positive probability given the record's own picks
        records = sample(cfg)
        for rec in records:
            assert rec.ok and np.isfinite(tableau_replay_log2(eff, rec.z, rec.m)[0])
        finite = zero = 0
        for rec in records:  # each sample's z as a target of 16 lanes with other picks
            block = _run_block(
                cfg, range(16), lambda psi, ev, rng: psi.project_onto(ev.i, rec.z[ev.coord])
            )
            assert not block.psi.failed
            for lane in range(16):
                picks = block.picks[lane]
                want, col = tableau_replay_log2(eff, rec.z, picks[picks >= 0])
                reads = block.reads[lane]
                if np.isfinite(want):
                    assert lane in block.psi.lanes
                    assert abs(np.log2(reads).sum() - want) <= 1e-12
                    finite += 1
                else:  # the lane left silently at the readout the tableau zeroes
                    assert lane not in block.psi.lanes
                    assert np.isfinite(reads[:col]).all() and np.isnan(reads[col:]).all()
                    zero += 1
        assert finite and zero

    @pytest.mark.parametrize("epsilon", [0.005, 0.05])
    @pytest.mark.parametrize(
        "lattice, schedule",
        [
            (("square", 6, 18), "ABCD"),
            (("heavy-hex", 11, None), "ABCD"),
            # under ABCD every lane's reference purifies within rows 0-2; the
            # deeper circuit keeps it entangled through row 7 of 9, so 128 of
            # the 144 lane-rows read ln 2 (32 under ABCD)
            (("heavy-hex", 11, None), "ABCDABCD"),
        ],
        ids=["square-6x18", "heavy-hex-11", "heavy-hex-11-ABCDABCD"],
    )
    def test_reference_entropy_is_tableau_entropy(self, lattice, schedule, epsilon):
        # a purification block of 16 lanes: with the reference attached every
        # lane stays a stabilizer state, so its reference entropy after each
        # row-step is 0 or ln 2, exactly as the tableau replay reads it
        c = random_instance(
            build_lattice(*lattice), schedule, "clifford-iswap-swap",
            NoiseModel("depolarizing", epsilon), seed=5,
        )
        eff = compile_sebd(c, "pauli-mix")
        cfg = RunConfig(eff, policy=self.POLICY, n_trajectories=16, master_seed=5)
        block = _run_block(
            cfg, range(16), _measure_reset, MatrixProductState.reference_entropy, reference=True
        )
        assert not block.psi.failed
        entangled = 0
        for lane in range(16):
            want = tableau_reference_entropies(eff, block.picks[lane], block.reads[lane])
            assert np.abs(block.probes[lane] - want).max() <= 1e-12
            entangled += int((want > 0).sum())
        assert entangled  # some probes read ln 2, so the check is not all zeros


class TestPurification:
    def test_reference_purifies_after_partner_measured(self):
        # T=1: the probe's entanglement lives inside one dimer, so it must
        # vanish once that dimer's sites are measured out
        lat = build_lattice("square", 2, 2)
        c = random_instance(lat, "A", "fsim", None, seed=2)
        cfg = RunConfig(circuit=compile_sebd(c), n_trajectories=4, master_seed=0)
        series = purification_run(cfg)
        assert series[0] > 0.0 or series[-1] == 0.0
        assert series[-1] < 1e-10

    def test_noise_speeds_up_purification(self):
        lat = build_lattice("square", 3, 6)
        noisy = random_instance(
            lat, "ABCD", "fsim", NoiseModel(kind="dephasing", epsilon=0.15), seed=5
        )
        clean = random_instance(lat, "ABCD", "fsim", None, seed=5)
        k = 12
        s_noisy = purification_run(
            RunConfig(circuit=compile_sebd(noisy), n_trajectories=k, master_seed=1)
        )
        s_clean = purification_run(
            RunConfig(circuit=compile_sebd(clean), n_trajectories=k, master_seed=1)
        )
        # after the last row every system qubit is measured, so both
        # entropies vanish; the row before it is where noise must show
        assert s_noisy[-2] < s_clean[-2]
        assert s_noisy[-2] < 0.2
        assert s_noisy[-1] < 1e-10 and s_clean[-1] < 1e-10

    def test_series_matches_dense_replay(self):
        # 6 slots and the reference: 7 qubits, which the dense oracle holds. It
        # replays each trajectory from its own stream with the reference on the
        # middle slot; the mean per row-step must be purification_run's series
        lat = build_lattice("square", 3, 9)
        noise = NoiseModel(kind="depolarizing", epsilon=0.02)
        eff = compile_sebd(random_instance(lat, "ABCD", "fsim", noise, seed=8), "weak-tetrahedron")
        assert eff.n_sites == 6
        cfg = RunConfig(eff, n_trajectories=6, master_seed=3)
        acc = np.zeros(len(eff.rows))
        for i in range(cfg.n_trajectories):
            rng = _trajectory_rng(cfg.master_seed, i)
            dv = DenseVector(eff.n_sites)
            dv.attach_reference(eff.n_sites // 2)
            for r, row in enumerate(eff.rows):
                for ev in row:
                    if isinstance(ev, Noise):
                        dv.apply_kraus(ev.i, ev.kraus, rng)
                    elif not isinstance(ev, Gate):
                        dv.measure_reset(ev.i, rng)
                    elif ev.j is None:
                        dv.apply_1q(ev.i, ev.matrix)
                    else:
                        dv.apply_2q(ev.i, ev.j, ev.matrix, ev.kraus, rng)
                acc[r] += dv.reference_entropy()
        want = acc / cfg.n_trajectories
        assert (want[:4] > 1e-3).all()  # the reference stays entangled for rows
        np.testing.assert_allclose(purification_run(cfg), want, rtol=0.0, atol=1e-9)

    def partly_failing(self, hard_fail_chi):
        # projective dephasing on 3x4 needs bond 4 in some trajectories only
        lat = build_lattice("square", 3, 4)
        c = random_instance(lat, "ABCD", "fsim", NoiseModel(kind="dephasing", epsilon=0.15), seed=4)
        policy = TruncationPolicy(chi_max=64, svd_cutoff=1e-12, hard_fail_chi=hard_fail_chi)
        return RunConfig(compile_sebd(c, "projective"), policy=policy, n_trajectories=8, master_seed=1)

    def test_failed_trajectories_excluded_and_counted(self):
        cfg = self.partly_failing(hard_fail_chi=2)
        blocks = [  # each trajectory alone, with the reference and its entropy probed
            _run_block(cfg, [i], _measure_reset, MatrixProductState.reference_entropy, reference=True)
            for i in range(cfg.n_trajectories)
        ]
        ok = [b.probes[0] for b in blocks if not b.psi.failed]
        n_failed = cfg.n_trajectories - len(ok)
        assert 0 < n_failed < cfg.n_trajectories
        with pytest.warns(UserWarning) as caught:
            series = purification_run(cfg)
        assert [str(w.message) for w in caught] == [
            f"{n_failed} trajectories failed and were excluded"
        ]
        acc = np.zeros(len(ok[0]))
        for probes in ok:  # index order
            acc += probes
        np.testing.assert_array_equal(series, acc / len(ok))

    def test_all_failed_raises(self):
        with pytest.raises(SamplerError, match="all 8 trajectories failed"):
            purification_run(self.partly_failing(hard_fail_chi=1))


class TestUnravelingInvariance:
    def two_sample_chi2(self, counts_a, counts_b):
        pooled = counts_a + counts_b
        keep = pooled >= 10
        a = np.append(counts_a[keep], counts_a[~keep].sum())
        b = np.append(counts_b[keep], counts_b[~keep].sum())
        n_a, n_b = a.sum(), b.sum()
        stat = 0.0
        dof = 0
        for cell in range(len(a)):
            tot = a[cell] + b[cell]
            if tot == 0:
                continue
            ea = tot * n_a / (n_a + n_b)
            eb = tot * n_b / (n_a + n_b)
            stat += (a[cell] - ea) ** 2 / ea + (b[cell] - eb) ** 2 / eb
            dof += 1
        return scipy.stats.chi2.sf(stat, dof - 1)

    def test_z_distribution_is_gauge_invariant(self):
        c = small_noisy_circuit(seed=8, epsilon=0.15)
        k = 1500
        counts = {}
        for form in ("weak-optimal", "projective"):
            recs = sample(
                RunConfig(circuit=compile_sebd(c, form), n_trajectories=k, master_seed=4)
            )
            counts[form] = records_to_counts(recs, 6)
        p = self.two_sample_chi2(counts["weak-optimal"], counts["projective"])
        assert p > 0.01

    def test_entropy_ordering_weak_below_projective(self):
        c = small_noisy_circuit(seed=8, epsilon=0.15)
        k = 400
        means = {}
        for form in ("weak-optimal", "projective"):
            recs = sample(
                RunConfig(circuit=compile_sebd(c, form), n_trajectories=k, master_seed=4),
                mid_entropy=True,
            )
            means[form] = np.mean([s for rec in recs for s in rec.entropies])
        assert means["weak-optimal"] <= means["projective"]


def _module_state() -> dict:
    """Every module-level dict, list and set of sebd.*, as its entries."""
    state = {}
    for info in pkgutil.walk_packages(sebd.__path__, "sebd."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if name.startswith("__"):
                continue
            if isinstance(value, dict):
                state[info.name, name] = {k: id(v) for k, v in value.items()}
            elif isinstance(value, list):
                state[info.name, name] = [id(v) for v in value]
            elif isinstance(value, set):
                state[info.name, name] = set(value)
    return state


def test_runs_leave_module_state_unchanged():
    # a Haar-random gate no other test applies: a per-gate cache would grow
    lat = build_lattice("square", 2, 2)
    haar = scipy.stats.unitary_group.rvs(4, random_state=np.random.default_rng(20261018))
    base = random_instance(lat, "AB", "fsim", NoiseModel(kind="dephasing", epsilon=0.1), seed=3)
    layers = tuple(
        LayerGates(lg.rotations, tuple((a, b, haar) for a, b, _ in lg.gates)) for lg in base.layers
    )
    c = Circuit2D(lattice=lat, schedule="AB", layers=layers, noise=base.noise)
    cfg = RunConfig(circuit=compile_sebd(c), n_trajectories=3, master_seed=5)
    before = _module_state()
    assert all(rec.ok for rec in sample(cfg))
    estimate_probability(cfg, (0,) * lat.n_sites)
    purification_run(cfg)
    assert _module_state() == before
