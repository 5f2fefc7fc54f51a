"""Trajectory sampler: determinism, record invariants, oracle agreement,
probability estimation, purification telemetry, unraveling invariance."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from sebd.channels import NoiseModel
from sebd.gates import fsim
from sebd.lightcone import (
    Circuit2D,
    Lattice2D,
    LayerGates,
    build_lattice,
    compile_sebd,
    random_instance,
)
from sebd.mps import TruncationPolicy
from sebd.oracles.dense import DenseDensity, dense_evolve
from sebd.oracles.mpo import mpo_evolve
from sebd.oracles.tableau import tableau_evolve
from sebd.sampler import (
    RunConfig,
    SamplerError,
    estimate_probability,
    failure_counts,
    purification_run,
    run_trajectory,
    sample,
)


def small_noisy_circuit(seed=4, epsilon=0.1):
    lat = build_lattice("square", 2, 3)
    noise = NoiseModel(kind="dephasing", epsilon=epsilon)
    return random_instance(lat, "ABC", "fsim", noise, seed=seed)


def records_to_counts(records, n_bits):
    counts = np.zeros(1 << n_bits)
    for rec in records:
        counts[int("".join(map(str, rec.bits_scan_order())), 2)] += 1
    return counts


class TestRunConfig:
    def test_validation(self):
        c = small_noisy_circuit()
        with pytest.raises(SamplerError):
            RunConfig(circuit=c, n_trajectories=0)
        with pytest.raises(SamplerError):
            RunConfig(circuit=compile_sebd(c), unravel_form="projective")
        with pytest.raises(SamplerError):
            RunConfig(circuit="nope")

    def test_effective_is_cached_and_form_selected(self):
        c = small_noisy_circuit()
        cfg = RunConfig(circuit=c, unravel_form="projective")
        eff = cfg.effective()
        assert cfg.effective() is eff
        noise_ops = [ev for ev in eff.events() if type(ev).__name__ == "Noise"]
        assert len(noise_ops[0].kraus) == 3  # projective dephasing has 3 branches

    def test_precompiled_circuit_passthrough(self):
        eff = compile_sebd(small_noisy_circuit())
        assert RunConfig(circuit=eff).effective() is eff


class TestRunTrajectory:
    def test_determinism_and_stream_independence(self):
        c = small_noisy_circuit()
        cfg = RunConfig(circuit=c, master_seed=9, entropy_cuts=(2,))
        a = run_trajectory(cfg, 3)
        b = run_trajectory(cfg, 3)
        assert a == b
        assert run_trajectory(cfg, 4).z != a.z or run_trajectory(cfg, 4).m != a.m

    def test_record_invariants(self):
        c = small_noisy_circuit()
        cfg = RunConfig(circuit=c, master_seed=0, entropy_cuts=(1, 2, 3))
        rec = run_trajectory(cfg, 0)
        assert rec.ok
        assert set(rec.z) == set(c.lattice.sites)
        assert len(rec.z) == c.lattice.n_sites
        n_noise = sum(1 for ev in cfg.effective().events() if type(ev).__name__ == "Noise")
        assert len(rec.m) == n_noise
        assert rec.trunc_total >= 0.0
        assert len(rec.entropies) == len(cfg.effective().rows)
        assert all(len(row) == 3 for row in rec.entropies)
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

        cfg = RunConfig(circuit=c, n_trajectories=1)
        zs = [(i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(16)]
        tv = 0.5 * sum(abs(estimate_probability(cfg, z)[0] - exact(z)) for z in zs)
        assert tv < 1e-6

        emp = records_to_counts(sample(RunConfig(circuit=c, n_trajectories=8000)), 4)
        tv_emp = 0.5 * sum(abs(emp[i] / 8000 - exact(z)) for i, z in enumerate(zs))
        assert tv_emp < 0.04

    def test_fully_mixing_noise_gives_uniform_bits(self):
        lat = build_lattice("square", 2, 3)
        noise = NoiseModel(kind="depolarizing", epsilon=0.75)
        c = random_instance(lat, "A", "fsim", noise, seed=1)
        k = 2500
        recs = sample(RunConfig(circuit=c, n_trajectories=k, master_seed=5))
        bits = np.array([rec.bits_scan_order() for rec in recs])
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
        recs = sample(RunConfig(circuit=c, n_trajectories=k_mps, master_seed=2))
        f_mps = np.array([rec.bits_scan_order() for rec in recs]).mean(axis=0)
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
        c = small_noisy_circuit()
        cfg = RunConfig(circuit=c, n_trajectories=1, master_seed=7)
        assert sample(cfg) == [run_trajectory(cfg, 0)]
        cfg5 = RunConfig(circuit=c, n_trajectories=5, master_seed=7)
        assert sample(cfg5) == sample(cfg5)

    def test_worker_invariance(self):
        c = small_noisy_circuit()
        serial = sample(RunConfig(circuit=c, n_trajectories=6, master_seed=1))
        parallel = sample(RunConfig(circuit=c, n_trajectories=6, master_seed=1), workers=2)
        assert serial == parallel

    def test_failures_marked_not_dropped(self):
        c = small_noisy_circuit()
        strict = TruncationPolicy(chi_max=64, svd_cutoff=0.0, hard_fail_chi=1)
        recs = sample(RunConfig(circuit=c, n_trajectories=4, policy=strict))
        assert len(recs) == 4
        assert all(not r.ok for r in recs)
        counts = failure_counts(recs)
        assert sum(counts.values()) == 4 and "TruncationOverflow" in str(counts)

    def test_marginals_match_mpo_oracle_3x3(self):
        lat = build_lattice("square", 3, 3)
        noise = NoiseModel(kind="dephasing", epsilon=0.05)
        c = random_instance(lat, "ABC", "fsim", noise, seed=6)
        rho = mpo_evolve(c)
        ref = marginal_ones(rho)
        k = 1200
        recs = sample(RunConfig(circuit=c, n_trajectories=k, master_seed=3))
        freqs = np.array([rec.bits_scan_order() for rec in recs]).mean(axis=0)
        sigma = np.sqrt(np.clip(ref * (1 - ref), 1e-6, None) / k)
        assert np.all(np.abs(freqs - ref) < 4 * sigma)

    @pytest.mark.slow
    def test_marginals_match_mpo_oracle_3x3_bulk(self):
        lat = build_lattice("square", 3, 3)
        noise = NoiseModel(kind="dephasing", epsilon=0.05)
        c = random_instance(lat, "ABC", "fsim", noise, seed=6)
        ref = marginal_ones(mpo_evolve(c))
        k = 10**4
        recs = sample(RunConfig(circuit=c, n_trajectories=k, master_seed=3))
        freqs = np.array([rec.bits_scan_order() for rec in recs]).mean(axis=0)
        sigma = np.sqrt(np.clip(ref * (1 - ref), 1e-6, None) / k)
        assert np.all(np.abs(freqs - ref) < 4 * sigma)


class TestGoldenSeed:
    """Same seed, same samples: bits and Kraus indices pinned to a fixture.

    golden_seed.json was written by the MPS kernels that moved the
    orthogonality centre onto the left site of every two-site block, so
    it checks that gauge and kernel rewrites change results by roundoff
    only. Each case is a 2D circuit drawn with seed 11 (ABCD schedule,
    fSim gates, depolarizing 0.05, weak-tetrahedron unraveling) and run
    for 6 trajectories with master seed 2306.
    """

    CASES = {"square_4x8": ("square", 4, 8), "heavyhex_7": ("heavy-hex", 7, None)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_and_kraus_indices_match_fixture(self, case):
        golden = json.loads((Path(__file__).parent / "golden_seed.json").read_text())[case]
        kind, lx, ly = self.CASES[case]
        noise = NoiseModel(kind="depolarizing", epsilon=0.05)
        c = random_instance(build_lattice(kind, lx, ly), "ABCD", "fsim", noise, seed=11)
        cfg = RunConfig(
            circuit=c,
            unravel_form="weak-tetrahedron",
            policy=TruncationPolicy(chi_max=256, svd_cutoff=1e-12),
            n_trajectories=len(golden),
            master_seed=2306,
        )
        for rec, want in zip(sample(cfg), golden):
            assert rec.ok
            assert "".join(map(str, rec.bits_scan_order())) == want["bits"]
            assert "".join(map(str, rec.m)) == want["m"]
            assert abs(rec.trunc_total - want["trunc_total"]) <= 1e-20


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
        cfg = RunConfig(circuit=c, n_trajectories=3)
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
        cfg = RunConfig(circuit=c, n_trajectories=10**4, master_seed=11)
        for bits in ((0, 0), (0, 1), (1, 1)):
            p, se = estimate_probability(cfg, bits)
            assert abs(p - ref.probability(bits)) < 3 * max(se, 1e-12)

    def test_bits_by_coordinate_and_validation(self):
        c = small_noisy_circuit()
        cfg = RunConfig(circuit=c, n_trajectories=50, master_seed=1)
        flat = (0, 1, 1, 0, 0, 1)
        zmap = {coord: b for coord, b in zip(cfg.effective().coords(), flat)}
        assert estimate_probability(cfg, flat) == estimate_probability(cfg, zmap)
        with pytest.raises(SamplerError):
            estimate_probability(cfg, flat[:-1])
        with pytest.raises(SamplerError):
            estimate_probability(cfg, {(0, 0): 1})

    def test_all_failed_raises(self):
        c = small_noisy_circuit()
        strict = TruncationPolicy(chi_max=64, svd_cutoff=0.0, hard_fail_chi=1)
        cfg = RunConfig(circuit=c, n_trajectories=3, policy=strict)
        with pytest.raises(SamplerError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                estimate_probability(cfg, (0,) * 6)


class TestPurification:
    def test_reference_purifies_after_partner_measured(self):
        # T=1: the probe's entanglement lives inside one dimer, so it must
        # vanish once that dimer's sites are measured out
        lat = build_lattice("square", 2, 2)
        c = random_instance(lat, "A", "fsim", None, seed=2)
        cfg = RunConfig(circuit=c, n_trajectories=4, master_seed=0, reference_site=0)
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
            RunConfig(circuit=noisy, n_trajectories=k, master_seed=1, reference_site=2)
        )
        s_clean = purification_run(
            RunConfig(circuit=clean, n_trajectories=k, master_seed=1, reference_site=2)
        )
        assert s_noisy[-1] < s_clean[-1]
        assert s_noisy[-1] < 0.2

    def test_requires_reference(self):
        cfg = RunConfig(circuit=small_noisy_circuit(), n_trajectories=1)
        with pytest.raises(SamplerError):
            purification_run(cfg)


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
                RunConfig(circuit=c, unravel_form=form, n_trajectories=k, master_seed=4)
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
                RunConfig(
                    circuit=c,
                    unravel_form=form,
                    n_trajectories=k,
                    master_seed=4,
                    entropy_cuts=(2,),
                )
            )
            means[form] = np.mean([s for rec in recs for row in rec.entropies for s in row])
        assert means["weak-optimal"] <= means["projective"]
