"""Command line: import cost and end-to-end runs of every subcommand."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sebd
from sebd.channels import NoiseModel, unraveling_cost_x
from sebd.cli import _TAU_HEADER, ConfigError, ExperimentConfig, load_config, main
from sebd.experiments import purification_point
from sebd.serialize import (
    COLLAPSE_GRID_SCHEMA,
    COLLAPSE_SCHEMA,
    TAU_SCHEMA,
    TELEMETRY_SCHEMA,
    UNRAVEL_SCHEMA,
    kraus_to_dict,
    parse_sample_record,
    read_csv,
    write_csv,
)


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


def test_sample_entropy_telemetry_reads_the_peak(tmp_path):
    # the last row-step reads out every slot, so the final mid-cut entropy
    # is 0 on every trajectory; the peak over the row-steps is not
    config = tmp_path / "config.yaml"
    config.write_text(
        "lx_list: [3]\n"
        "ly: 4\n"
        "epsilons: [0.02]\n"
        "unravel_form: weak-tetrahedron\n"
        "seeds: [5]\n"
        "n_trajectories: 4\n"
        "telemetry: [entropy]\n"
    )
    out = tmp_path / "out"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
    schema, header, rows = read_csv(out / "telemetry_eps0.02.csv")
    assert schema == TELEMETRY_SCHEMA
    assert header[-1] == "s_mid_max"
    assert len(rows) == 4
    chi = header.index("chi_max")
    assert all(0.0 < float(row[-1]) <= math.log(int(row[chi])) + 1e-9 for row in rows)


def test_collapse_of_a_written_tau_table(tmp_path):
    # tau/L_x = tanh((eps - 0.05) * L_x^(1/1.3)) collapses at eps_c = 0.05
    rows = []
    for l_x in (8, 16):
        for k in range(9):
            eps = 0.01 + 0.01 * k
            y = math.tanh((eps - 0.05) * l_x ** (1 / 1.3)) + 2.0
            rows.append([f"{eps:g}", l_x, 1, 8, 3 * l_x, "0", y * l_x, y, "0", "ok"])
    table = tmp_path / "tau.csv"
    write_csv(table, TAU_SCHEMA, _TAU_HEADER, rows)
    out = tmp_path / "out"
    assert main(["collapse", str(table), "--out", str(out), "--grid"]) == 0

    schema, header, fit = read_csv(out / "collapse.csv")
    assert schema == COLLAPSE_SCHEMA
    assert header == ["eps_c", "nu", "r_min", "eps_lo", "eps_hi", "nu_lo", "nu_hi", "identifiable"]
    assert len(fit) == 1
    row = dict(zip(header, fit[0]))
    assert abs(float(row["eps_c"]) - 0.05) < 0.005
    assert float(row["eps_lo"]) <= float(row["eps_c"]) <= float(row["eps_hi"])
    assert row["identifiable"] == "1"
    schema, header, grid = read_csv(out / "collapse_grid.csv")
    assert schema == COLLAPSE_GRID_SCHEMA
    assert header == ["eps_c", "nu", "r"]
    assert len(grid) > 1 and min(float(r[2]) for r in grid) >= 0.0


_UNRAVEL_HEADER = ["channel", "epsilon", "form", "method", "x_cost", "x_crit", "phase_mf"]


def test_unravel_optimize_config_channels(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("noise_kind: dephasing\nepsilons: [0.05, 0.1]\n")
    out = tmp_path / "out"
    assert main(["unravel-optimize", "--config", str(config), "--out", str(out)]) == 0
    schema, header, rows = read_csv(out / "unravel.csv")
    assert schema == UNRAVEL_SCHEMA
    assert header == _UNRAVEL_HEADER
    form = NoiseModel("dephasing", 0.05).forms()[0]
    assert [r[:4] for r in rows] == [
        ["dephasing", "0.05", form, "analytic"],
        ["dephasing", "0.1", form, "analytic"],
    ]
    for r, eps in zip(rows, (0.05, 0.1)):
        want = unraveling_cost_x(NoiseModel("dephasing", eps).kraus(form))
        assert float(r[4]) == pytest.approx(want, abs=1e-12)
        assert r[6] in ("ordered", "disordered")


def test_unravel_optimize_kraus_file(tmp_path):
    kraus = NoiseModel("dephasing", 0.1).kraus("projective")
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(kraus_to_dict(kraus)))
    out = tmp_path / "out"
    assert main(["unravel-optimize", str(path), "--out", str(out)]) == 0
    schema, header, rows = read_csv(out / "unravel.csv")
    assert schema == UNRAVEL_SCHEMA
    assert header == _UNRAVEL_HEADER
    assert len(rows) == 1
    label, eps, form, method, x_cost = rows[0][:5]
    assert (label, eps, form, method) == (kraus.label or path.name, "", "file", "numeric")
    # the gauge search starts from the file's own unraveling and only improves on it
    assert float(x_cost) >= unraveling_cost_x(kraus) - 1e-12


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


@pytest.mark.parametrize(
    "key, value, text",
    [
        ("svd_cutoff", 1.0, "svd_cutoff must lie in [0, 1)"),
        ("epsilons", (0.01, 0.9), "depolarizing strength 0.9 outside [0, 3/4]"),
    ],
    ids=["svd_cutoff", "epsilon"],
)
def test_bad_policy_or_channel_rejected_before_any_output(tmp_path, capsys, key, value, text):
    # the truncation policy and the channels used to refuse these only once a
    # run built them, after the output directory was made (and, for the
    # epsilons, after the files of 0.01 were written)
    with pytest.raises(ConfigError, match=re.escape(text)):
        ExperimentConfig(**{key: value})
    config = tmp_path / "config.yaml"
    config.write_text(f"lx_list: [2]\nly: 2\n{key}: {json.dumps(value)}\n")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == 1
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, keys, text",
    [
        ("sample", "lattice: heavy-hex\nlx_list: [9]\n", "heavy-hex linear size must be 4k+3"),
        ("benchmark", "lx_list: [3]\nly: 1\n", "square lattice needs L_x, L_y >= 2"),
        ("benchmark", "lx_list: [3]\nly: 4\nreference: dense\n", "dense evolution capped at 8 qubits, got 12"),
    ],
    ids=["heavy-hex-size", "ly", "dense-reference"],
)
def test_bad_lattice_or_reference_rejected_before_any_output(tmp_path, capsys, command, keys, text):
    # the lattice used to be built, and the dense reference refused, only
    # once the output directory was made (for dense, after the instance
    # file was written)
    config = tmp_path / "config.yaml"
    config.write_text(keys + "epsilons: [0.05]\nn_trajectories: 2\nn_bitstrings: 1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    (
        ("n_trajectories", 2.5), ("lx_list", [4.7]), ("seeds", [1.9]), ("aspect", 3.99),
        ("chi_max", True), ("ly", 2.5), ("svd_cutoff", True), ("epsilons", [False]),
    ),
)
def test_numbers_a_cast_would_change_rejected_before_any_output(tmp_path, capsys, key, value):
    # int() used to truncate them silently (2.5 ran 2 trajectories, true a chi_max of 1)
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps({"lx_list": [2], "ly": 2, "n_trajectories": 2, key: value}))
    out = tmp_path / "out"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} takes")
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
    for row in rows:
        seed = int(row[header.index("seed")])
        point = purification_point(load_config(config), 0.25, 4, seed)
        assert row[header.index("n_rows")] == str(point["n_rows"])
        for key in ("s_final", "tau", "tau_over_lx", "residual"):
            assert row[header.index(key)] == f"{point[key]:.8e}"
        assert row[header.index("status")] == point["status"]


@pytest.mark.parametrize(
    "strip, why",
    (
        # a heavy-hex strip of width L_x has L_x - 2 rows
        ("lattice: heavy-hex\nlx_list: [7]\n", "phase-sweep needs lattice square"),
        # 2*L_x rows end where the fit window [L_x, 2*L_x] does
        ("lx_list: [3]\naspect: 2\n", "aspect must be at least 3"),
        # the strip is aspect*L_x rows long: it used to run 12 rows for ly 5
        ("lx_list: [4]\nly: 5\n", "phase-sweep reads no ly"),
    ),
)
def test_phase_sweep_refuses_strips_without_the_fit_window(tmp_path, capsys, strip, why):
    config = tmp_path / "config.yaml"
    config.write_text(strip + "epsilons: [0.2]\nn_trajectories: 1\n")
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {why}")
    assert not (out / "tau.csv").exists()


@pytest.mark.parametrize("command", ("sample", "benchmark"))
@pytest.mark.parametrize(
    "axis, key", (("lx_list: [2, 3]\nseeds: [1]\n", "lx_list"), ("lx_list: [2]\nseeds: [1, 2]\n", "seeds"))
)
def test_one_instance_commands_refuse_sweep_axes(tmp_path, capsys, command, axis, key):
    # they used to run lx_list[0] and seeds[0] and drop the other entries
    config = tmp_path / "config.yaml"
    config.write_text(axis + "ly: 2\nepsilons: [0.05]\nn_trajectories: 2\nn_bitstrings: 1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} runs one instance: {key} must hold one entry")
    assert not out.exists()
    if key == "seeds":  # --seed-override replaces the list with one seed
        assert main([command, "--config", str(config), "--out", str(out), "--seed-override", "4"]) == 0
        assert out.exists()


@pytest.mark.parametrize(
    "argv",
    (
        ["collapse", "tau.csv", "--workers", "2"],
        ["collapse", "tau.csv", "--seed-override", "3"],
        ["unravel-optimize", "--config", "c.yaml", "--workers", "2"],
        ["collapse", "tau.csv", "--config", "c.yaml"],
    ),
)
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
