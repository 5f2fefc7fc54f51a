"""Sweep drivers: seeding discipline, row schemas, and the coarse phase
behavior of each experiment family at sizes small enough for CI."""

import numpy as np
import pytest

import sebd.experiments
import sebd.sampler
from sebd.channels import NoiseModel
from sebd.experiments import (
    benchmark_ratios,
    brickwork_trajectory_i3,
    clifford_2d_sweep,
    clifford_strip_sweep,
    mipt_1d_sweep,
    purification_point,
    strip_trajectory_i3,
    sweep_rng,
    tau_sweep,
    torus_trajectory_i3,
)
from sebd.lightcone import build_lattice, compile_sebd, random_instance

LN2 = np.log(2.0)


class TestSweepRng:
    def test_same_path_same_stream(self):
        a = sweep_rng(5, 1, 2).integers(1 << 30, size=8)
        b = sweep_rng(5, 1, 2).integers(1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_distinct_paths_decorrelated(self):
        a = sweep_rng(5, 1, 2).integers(1 << 30, size=8)
        b = sweep_rng(5, 2, 1).integers(1 << 30, size=8)
        c = sweep_rng(6, 1, 2).integers(1 << 30, size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_accepts_numpy_path_components(self):
        a = sweep_rng(5, np.int64(3)).integers(1 << 30, size=4)
        b = sweep_rng(5, 3).integers(1 << 30, size=4)
        assert np.array_equal(a, b)


class TestPurification:
    def test_row_fields_and_determinism(self):
        row = purification_point(0.2, 4, seed=9, n_trajectories=3)
        again = purification_point(0.2, 4, seed=9, n_trajectories=3)
        assert row == again
        assert row["L_x"] == 4 and row["n_rows"] == 12
        assert row["status"] == "ok" or np.isinf(row["tau"])

    def test_strong_noise_decays(self):
        row = purification_point(0.2, 4, seed=2, n_trajectories=4)
        assert row["status"] == "ok"
        assert 0 < row["tau"] < 50
        assert row["s_final"] < 0.2

    def test_table_is_rectangular_and_matches_pointwise(self):
        rows = tau_sweep([0.25], [4], [1, 2], n_trajectories=2)
        assert len(rows) == 2
        assert rows[0] == purification_point(0.25, 4, seed=1, n_trajectories=2)
        assert {r["seed"] for r in rows} == {1, 2}


class TestBrickwork:
    def test_rejects_unknown_unraveling(self):
        with pytest.raises(ValueError, match="unraveling"):
            brickwork_trajectory_i3(8, 0.1, "strong", np.random.default_rng(0))

    def test_noiseless_ring_is_entangled(self):
        vals = [
            brickwork_trajectory_i3(8, 0.0, "weak-optimal", sweep_rng(3, k))
            for k in range(4)
        ]
        assert np.mean(vals) < -0.5 * LN2

    def test_weak_disentangles_faster_than_projective(self):
        # between the two thresholds the weak trajectories should look
        # area-law while the projective ones are still volume-law
        eps = 0.06
        weak = [
            brickwork_trajectory_i3(8, eps, "weak-optimal", sweep_rng(4, 0, k))
            for k in range(6)
        ]
        proj = [
            brickwork_trajectory_i3(8, eps, "projective", sweep_rng(4, 1, k))
            for k in range(6)
        ]
        assert np.mean(weak) > np.mean(proj)

    def test_sweep_rows(self):
        rows = mipt_1d_sweep([8], [0.0, 0.3], "projective", n_realizations=2, depth=8)
        assert [r["epsilon"] for r in rows] == [0.0, 0.3]
        assert all(r["n"] == 2 and r["L"] == 8 for r in rows)
        again = mipt_1d_sweep([8], [0.0, 0.3], "projective", n_realizations=2, depth=8)
        assert rows == again


class TestCliffordStrip:
    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            strip_trajectory_i3(6, 8, 0.0, rng)
        with pytest.raises(ValueError):
            strip_trajectory_i3(8, 6, 0.0, rng)

    def test_depth_four_is_area_law(self):
        vals = [strip_trajectory_i3(16, 4, 0.0, sweep_rng(8, k)) for k in range(4)]
        assert abs(np.mean(vals)) < 0.5 * LN2

    def test_depth_eight_noiseless_is_volume_law(self):
        vals = [strip_trajectory_i3(16, 8, 0.0, sweep_rng(9, k)) for k in range(4)]
        assert np.mean(vals) < -1.0 * LN2

    def test_strong_noise_kills_i3(self):
        vals = [strip_trajectory_i3(16, 8, 0.2, sweep_rng(10, k)) for k in range(3)]
        assert abs(np.mean(vals)) < 0.4 * LN2

    def test_sweep_rows_deterministic(self):
        rows = clifford_strip_sweep(4, [8], [0.0, 0.2], n_realizations=2, n_cycles=8)
        assert [(r["epsilon"], r["L"], r["T"]) for r in rows] == [(0.0, 8, 4), (0.2, 8, 4)]
        assert rows == clifford_strip_sweep(4, [8], [0.0, 0.2], n_realizations=2, n_cycles=8)


class TestTorus:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            torus_trajectory_i3(6, 0.1, np.random.default_rng(0))

    def test_phases_at_tiny_size(self):
        low = [torus_trajectory_i3(4, 0.02, sweep_rng(12, 0, k)) for k in range(4)]
        high = [torus_trajectory_i3(4, 0.3, sweep_rng(12, 1, k)) for k in range(4)]
        assert np.mean(low) < -0.5 * LN2
        assert np.mean(high) > np.mean(low)
        assert abs(np.mean(high)) < 0.75 * LN2

    def test_sweep_rows_deterministic(self):
        rows = clifford_2d_sweep([4], [0.1], n_realizations=3, depth_layers=8)
        assert rows == clifford_2d_sweep([4], [0.1], n_realizations=3, depth_layers=8)
        assert rows[0]["n"] == 3


class TestBenchmarkRatios:
    def noiseless_circuit(self):
        return random_instance(build_lattice("square", 2, 3), "ABC", "fsim", None, seed=6)

    def noisy_circuit(self, epsilon=0.1):
        noise = NoiseModel("depolarizing", epsilon)
        return random_instance(build_lattice("square", 2, 3), "ABC", "fsim", noise, seed=6)

    def test_noiseless_ratios_are_exact(self):
        rows = benchmark_ratios(self.noiseless_circuit(), ["000000", "010110"], 2)
        for row in rows:
            assert row["reference"] == "dense"
            assert row["ratio"] == pytest.approx(1.0, abs=1e-9)
            assert row["se_hat"] == pytest.approx(0.0, abs=1e-12)

    def test_noisy_ratio_within_errorbars(self):
        rows = benchmark_ratios(
            self.noisy_circuit(), ["000000"], 200, master_seed=3, form="weak-tetrahedron"
        )
        (row,) = rows
        assert row["se_hat"] > 0
        assert abs(row["ratio"] - 1.0) < 5 * row["ratio_se"]

    def test_mpo_reference_agrees_with_dense(self):
        c = self.noisy_circuit()
        dense_row = benchmark_ratios(c, ["110010"], 4, reference="dense")[0]
        mpo_row = benchmark_ratios(c, ["110010"], 4, reference="mpo")[0]
        assert mpo_row["p_ref"] == pytest.approx(dense_row["p_ref"], rel=1e-8)
        assert mpo_row["p_hat"] == dense_row["p_hat"]

    @pytest.mark.parametrize("reference, compiles", (("dense", 1), ("mpo", 2)))
    def test_one_compile_per_instance(self, monkeypatch, reference, compiles):
        # the sampler's compile serves all targets; the MPO oracle compiles
        # the channel's own Kraus form once more
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("unraveling"))
            return compile_sebd(*args, **kwargs)

        monkeypatch.setattr(sebd.sampler, "compile_sebd", counted)
        monkeypatch.setattr(sebd.experiments, "compile_sebd", counted)
        rows = benchmark_ratios(
            self.noisy_circuit(), ["000000", "010110", "111000"], 3,
            form="weak-tetrahedron", reference=reference,
        )
        assert len(rows) == 3
        assert len(calls) == compiles
        assert calls.count("weak-tetrahedron") == 1

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            benchmark_ratios(self.noiseless_circuit(), ["000000"], 1, reference="guess")
