"""Sweep drivers: seeding discipline, row schemas, and the purification and
benchmark cells at sizes small enough for CI."""

import numpy as np
import pytest

import sebd.experiments
from sebd.channels import NoiseModel
from sebd.experiments import (
    ConfigError,
    ExperimentConfig,
    benchmark_ratios,
    purification_point,
    sweep_rng,
)
from sebd.lightcone import build_lattice, compile_sebd, random_instance

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
        cfg = ExperimentConfig(n_trajectories=3)
        row = purification_point(cfg, 0.2, 4, 9)
        again = purification_point(cfg, 0.2, 4, 9)
        assert row == again
        assert row["L_x"] == 4 and row["n_rows"] == 12
        assert row["status"] == "ok" or np.isinf(row["tau"])

    def test_strong_noise_decays(self):
        row = purification_point(ExperimentConfig(n_trajectories=4), 0.2, 4, 2)
        assert row["status"] == "ok"
        assert 0 < row["tau"] < 50
        assert row["s_final"] < 0.2


class TestBenchmarkRatios:
    def noiseless_circuit(self):
        return random_instance(build_lattice("square", 2, 3), "ABC", "fsim", None, seed=6)

    def noisy_circuit(self, epsilon=0.1):
        noise = NoiseModel("depolarizing", epsilon)
        return random_instance(build_lattice("square", 2, 3), "ABC", "fsim", noise, seed=6)

    def test_noiseless_ratios_are_exact(self):
        cfg = ExperimentConfig(n_trajectories=2)
        rows = benchmark_ratios(cfg, 0.0, self.noiseless_circuit(), ["000000", "010110"])
        for row in rows:
            assert row["reference"] == "dense"
            assert row["ratio"] == pytest.approx(1.0, abs=1e-9)
            assert row["se_hat"] == pytest.approx(0.0, abs=1e-12)

    def test_noisy_ratio_within_errorbars(self):
        cfg = ExperimentConfig(n_trajectories=200, seeds=(3,), unravel_form="weak-tetrahedron")
        rows = benchmark_ratios(cfg, 0.1, self.noisy_circuit(), ["000000"])
        (row,) = rows
        assert row["se_hat"] > 0
        assert abs(row["ratio"] - 1.0) < 5 * row["ratio_se"]

    def test_mpo_reference_agrees_with_dense(self):
        c = self.noisy_circuit()

        def row(reference):
            cfg = ExperimentConfig(n_trajectories=4, reference=reference)
            return benchmark_ratios(cfg, 0.1, c, ["110010"])[0]

        dense_row, mpo_row = row("dense"), row("mpo")
        assert mpo_row["p_ref"] == pytest.approx(dense_row["p_ref"], rel=1e-8)
        assert mpo_row["p_hat"] == dense_row["p_hat"]

    @pytest.mark.parametrize("reference, compiles", (("dense", 1), ("mpo", 2)))
    def test_one_compile_per_instance(self, monkeypatch, reference, compiles):
        # the sampler's compile serves all targets; the MPO oracle compiles
        # the channel's own Kraus form once more
        calls = []

        def counted(circuit, unraveling=None):
            calls.append(unraveling)
            return compile_sebd(circuit, unraveling)

        monkeypatch.setattr(sebd.experiments, "compile_sebd", counted)
        cfg = ExperimentConfig(
            n_trajectories=3, unravel_form="weak-tetrahedron", reference=reference
        )
        rows = benchmark_ratios(cfg, 0.1, self.noisy_circuit(), ["000000", "010110", "111000"])
        assert len(rows) == 3
        assert len(calls) == compiles
        assert calls.count("weak-tetrahedron") == 1

    def test_unknown_reference_rejected(self):
        # the config checks the reference once, where it enters
        with pytest.raises(ConfigError, match="reference"):
            ExperimentConfig(reference="guess")
