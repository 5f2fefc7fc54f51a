"""Command line: import cost and end-to-end `sebd sample` and `sebd phase-sweep` runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sebd
from sebd.cli import ConfigError, ExperimentConfig, load_config, main
from sebd.experiments import purification_point
from sebd.serialize import TAU_SCHEMA, TELEMETRY_SCHEMA, parse_sample_record, read_csv


def test_import_loads_no_scipy():
    # scipy is only needed by fits, the unraveling optimizer and a rare SVD
    # fallback; `sebd sample` should not pay for importing it
    src = str(Path(sebd.__file__).resolve().parents[1])
    probe = "import sys, sebd.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_sample_writes_one_record_per_trajectory(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "lattice: square\n"
        "lx_list: [3]\n"
        "ly: 4\n"
        "schedule: ABC\n"
        "noise_kind: depolarizing\n"
        "epsilons: [0.05]\n"
        "seeds: [7]\n"
        "n_trajectories: 3\n"
    )
    out = tmp_path / "out"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == 0

    schema, header, rows = read_csv(out / "telemetry_eps0.05.csv")
    assert schema == TELEMETRY_SCHEMA
    assert header[:3] == ["trajectory", "seed", "ok"]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert all(row[2] == "1" for row in rows)

    lines = (out / "samples_eps0.05.txt").read_text().splitlines()
    assert len(lines) == 3
    for k, line in enumerate(lines):
        seed, groups, _, _ = parse_sample_record(line)
        assert seed == k
        # one bit per site, grouped by lattice row
        assert [len(g) for g in groups] == [3] * 4


def test_zero_bitstrings_rejected_before_any_output(tmp_path, capsys):
    # n_bitstrings: 0 used to write an empty benchmark table, then crash on it
    with pytest.raises(ConfigError, match="n_bitstrings"):
        ExperimentConfig(n_bitstrings=0)
    config = tmp_path / "config.yaml"
    config.write_text("lx_list: [2]\nly: 2\nepsilons: [0.05]\nn_bitstrings: 0\n")
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 1
    assert "n_bitstrings must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", (-1, 2**63, 2**64 - 1))
def test_seeds_outside_philox_key_range_rejected(tmp_path, capsys, seed):
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig(seeds=(seed,))
    config = tmp_path / "config.yaml"
    config.write_text(f"lx_list: [2]\nly: 2\nseeds: [{seed}]\n")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: seeds must lie in")
    assert not out.exists()


def test_seed_override_outside_philox_key_range_rejected(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("lx_list: [2]\nly: 2\nseeds: [3]\n")
    out = tmp_path / "out"
    argv = ["sample", "--config", str(config), "--out", str(out)]
    assert main([*argv, "--seed-override", "9223372036854775808"]) == 1
    assert capsys.readouterr().err.startswith("error: seeds must lie in")
    assert not out.exists()


def test_phase_sweep_table_matches_pointwise_for_any_worker_count(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("epsilons: [0.25]\nlx_list: [4]\nseeds: [1, 2]\nn_trajectories: 2\n")
    tables = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        argv = ["phase-sweep", "--config", str(config), "--out", str(out), "--workers", str(workers)]
        assert main(argv) == 0
        tables.append((out / "tau.csv").read_bytes())
    assert tables[0] == tables[1]

    schema, header, rows = read_csv(tmp_path / "out1" / "tau.csv")
    assert schema == TAU_SCHEMA
    assert [row[header.index("seed")] for row in rows] == ["1", "2"]
    policy = load_config(config).policy()
    for row in rows:
        seed = int(row[header.index("seed")])
        point = purification_point(0.25, 4, seed, n_trajectories=2, policy=policy)
        assert row[header.index("n_rows")] == str(point["n_rows"])
        for key in ("s_final", "tau", "tau_over_lx", "residual"):
            assert row[header.index(key)] == f"{point[key]:.8e}"
        assert row[header.index("status")] == point["status"]
