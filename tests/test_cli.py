"""Command line: import cost and end-to-end runs of every subcommand."""

import hashlib
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
from sebd.cli import ConfigError, ExperimentConfig, load_config, main
from sebd.experiments import purification_point
from sebd.oracles.mpo import MpoError
from sebd.serialize import (
    COLLAPSE,
    COLLAPSE_GRID,
    TAU,
    TELEMETRY,
    UNRAVEL,
    kraus_to_dict,
    parse_sample_record,
    read_csv,
    write_csv,
)


def test_import_loads_no_scipy():
    # scipy is only needed by fits, the unraveling optimizer and a rare SVD
    # fallback, and the tableau oracle only by tests; `sebd sample` should
    # not pay for importing either (the two-qubit Clifford table alone took
    # about a second to build)
    src = str(Path(sebd.__file__).resolve().parents[1])
    probe = (
        "import sys, sebd.cli; print(sorted(m for m in sys.modules"
        " if m.startswith('scipy') or m == 'sebd.oracles.tableau'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_phase_sweep_table_is_the_same_bytes_at_any_blas_thread_count(tmp_path):
    # after the last readout the reference is pure and its bond has rank 1:
    # s_final is written as exactly 0, not as roundoff whose digits move
    # with the BLAS thread count
    src = str(Path(sebd.__file__).resolve().parents[1])
    (tmp_path / "sweep.yaml").write_text(
        "unravel_form: weak-tetrahedron\nseeds: [3]\nlx_list: [4]\nschedule: ABCDABCD\n"
        "epsilons: [0.02]\nn_trajectories: 2\n"
    )
    tables = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        subprocess.run(
            [sys.executable, "-m", "sebd.cli", "phase-sweep", "--config", "sweep.yaml",
             "--out", f"out{threads}"],
            cwd=tmp_path, env=env, capture_output=True, check=True, timeout=300,
        )
        tables.append((tmp_path / f"out{threads}" / "tau.csv").read_bytes())
    assert tables[0] == tables[1]
    assert tables[0].decode().splitlines()[2].split(",")[5] == "0.00000000e+00"


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

    rows = read_csv(out / "telemetry_eps0.05.csv", TELEMETRY)
    assert list(rows[0])[:3] == ["trajectory", "seed", "ok"]
    assert [row["trajectory"] for row in rows] == ["0", "1", "2"]
    assert all(row["ok"] == "1" for row in rows)

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
    rows = read_csv(out / "telemetry_eps0.02.csv", TELEMETRY)
    assert list(rows[0])[-1] == "s_mid_max"
    assert len(rows) == 4
    assert all(0.0 < float(row["s_mid_max"]) <= math.log(int(row["chi_max"])) + 1e-9 for row in rows)


def test_collapse_of_a_written_tau_table(tmp_path):
    # tau/L_x = tanh((eps - 0.05) * L_x^(1/1.3)) collapses at eps_c = 0.05
    rows = []
    for l_x in (8, 16):
        for k in range(9):
            eps = 0.01 + 0.01 * k
            y = math.tanh((eps - 0.05) * l_x ** (1 / 1.3)) + 2.0
            rows.append(dict(zip(TAU.columns, [eps, l_x, 1, 8, 3 * l_x, 0.0, y * l_x, y, 0.0, "ok"])))
    table = tmp_path / "tau.csv"
    write_csv(table, TAU, rows)
    out = tmp_path / "out"
    assert main(["collapse", str(table), "--out", str(out), "--grid"]) == 0

    fit = read_csv(out / "collapse.csv", COLLAPSE)
    assert list(fit[0]) == ["eps_c", "nu", "r_min", "eps_lo", "eps_hi", "nu_lo", "nu_hi", "identifiable"]
    assert len(fit) == 1
    row = fit[0]
    assert abs(float(row["eps_c"]) - 0.05) < 0.005
    assert float(row["eps_lo"]) <= float(row["eps_c"]) <= float(row["eps_hi"])
    assert row["identifiable"] == "1"
    grid = read_csv(out / "collapse_grid.csv", COLLAPSE_GRID)
    assert list(grid[0]) == ["eps_c", "nu", "r"]
    assert len(grid) > 1 and min(float(r["r"]) for r in grid) >= 0.0


@pytest.mark.parametrize(
    "table, why",
    (
        ("missing.csv", "No such file"),
        # two points: too few to fit
        ("# schema=sebd.tau.v1\nepsilon,L_x,tau_over_lx\n0.1,4,1.0\n0.2,8,2.0\n", "need at least three points"),
        ("# schema=sebd.tau.v1\nepsilon,L_x\n0.1,4\n", "no column 'tau_over_lx'"),
    ),
    ids=["missing", "too-few-points", "no-column"],
)
def test_collapse_writes_nothing_for_a_table_it_cannot_fit(tmp_path, capsys, table, why):
    # the output directory used to be made before the table was read
    path = tmp_path / "tau.csv"
    if table != "missing.csv":
        path.write_text(table)
    out = tmp_path / "out"
    assert main(["collapse", str(path), "--out", str(out)]) == 1
    assert why in capsys.readouterr().err
    assert not out.exists()


_UNRAVEL_HEADER = ["channel", "epsilon", "form", "method", "x_cost", "x_crit", "phase_mf"]


def test_unravel_optimize_config_channels(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("noise_kind: dephasing\nepsilons: [0.05, 0.1]\n")
    out = tmp_path / "out"
    assert main(["unravel-optimize", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out / "unravel.csv", UNRAVEL)
    assert list(rows[0]) == _UNRAVEL_HEADER
    form = NoiseModel("dephasing", 0.05).forms()[0]
    assert [list(r.values())[:4] for r in rows] == [
        ["dephasing", "0.05", form, "analytic"],
        ["dephasing", "0.1", form, "analytic"],
    ]
    for r, eps in zip(rows, (0.05, 0.1)):
        want = unraveling_cost_x(NoiseModel("dephasing", eps).kraus(form))
        assert float(r["x_cost"]) == pytest.approx(want, abs=1e-12)
        assert r["phase_mf"] in ("ordered", "disordered")


def test_unravel_optimize_kraus_file(tmp_path, capsys):
    kraus = NoiseModel("dephasing", 0.1).kraus("projective")
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(kraus_to_dict(kraus)))
    out = tmp_path / "out"
    assert main(["unravel-optimize", str(path), "--out", str(out)]) == 0
    # the label already names its epsilon; a stray "eps=-" used to follow it
    assert capsys.readouterr().out.startswith(f"{kraus.label} [numeric] x=")
    rows = read_csv(out / "unravel.csv", UNRAVEL)
    assert list(rows[0]) == _UNRAVEL_HEADER
    assert len(rows) == 1
    label, eps, form, method, x_cost = list(rows[0].values())[:5]
    assert (label, eps, form, method) == (kraus.label or path.name, "", "file", "numeric")
    # the gauge search starts from the file's own unraveling and only improves on it
    assert float(x_cost) >= unraveling_cost_x(kraus) - 1e-12


def test_unravel_optimize_refuses_config_and_kraus_file_together(tmp_path, capsys):
    # the Kraus file used to win and --config was silently ignored
    config = tmp_path / "config.yaml"
    config.write_text("noise_kind: dephasing\nepsilons: [0.05]\n")
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(kraus_to_dict(NoiseModel("dephasing", 0.1).kraus("projective"))))
    out = tmp_path / "out"
    assert main(["unravel-optimize", "--config", str(config), str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unravel-optimize reads --config or a Kraus file, not both\n"
    assert not out.exists()


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
        ("output_dir", 5), ("output_dir", None),
    ),
)
def test_numbers_a_cast_would_change_rejected_before_any_output(tmp_path, capsys, key, value):
    # int() used to truncate them silently (2.5 ran 2 trajectories, true a
    # chi_max of 1); a str key took any value, and output_dir 5 or null
    # crashed with a TypeError traceback
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps({"lx_list": [2], "ly": 2, "n_trajectories": 2, key: value}))
    out = tmp_path / "out"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} takes")
    assert not out.exists()


def test_nan_epsilon_rejected_before_any_output(tmp_path, capsys):
    # NaN < 0 is False, so it used to pass, and sample wrote the files of
    # 0.01 before failing on the NaN circuit
    config = tmp_path / "config.yaml"
    config.write_text("lx_list: [2]\nly: 2\nn_trajectories: 2\nepsilons: [0.01, .nan]\n")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: epsilons must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("epsilons", ("[0.0]", "[0.1]"))
def test_bad_unravel_form_rejected_before_any_output(tmp_path, capsys, epsilons):
    # the form is checked by building the channel at every epsilon, 0 included
    config = tmp_path / "config.yaml"
    config.write_text(f"lx_list: [2]\nly: 2\nunravel_form: projective\nepsilons: {epsilons}\n")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == 1
    forms = NoiseModel("depolarizing").forms()
    assert capsys.readouterr().err == (
        f"error: form 'projective' not valid for depolarizing; choose from {forms}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ("sample", "benchmark", "phase-sweep"))
def test_epsilons_with_one_file_tag_rejected_before_any_output(tmp_path, capsys, command):
    # both wrote samples_eps0.05.txt, the second over the first; phase-sweep
    # wrote two rows of epsilon 0.05, which collapse pooled into one cell
    config = tmp_path / "config.yaml"
    config.write_text(
        "lx_list: [4]\nepsilons: [0.02, 0.05, 0.0500000001]\nn_trajectories: 1\nn_bitstrings: 1\n"
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: epsilons [0.05, 0.0500000001] share output tags ['0.05']\n"
    )
    assert not out.exists()


def test_oracle_error_reported_not_raised(tmp_path, capsys, monkeypatch):
    # MpoError derived from Exception, so main let it out as a traceback
    def failing_oracle(*args, **kwargs):
        raise MpoError("trace has imaginary part 0.000369952758")

    monkeypatch.setattr("sebd.experiments.mpo_evolve", failing_oracle)
    config = tmp_path / "config.yaml"
    config.write_text("lx_list: [3]\nepsilons: [0.05]\nn_trajectories: 2\nn_bitstrings: 1\nreference: mpo\n")
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: trace has imaginary part 0.000369952758\n"


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

    rows = read_csv(tmp_path / "out1" / "tau.csv", TAU)
    assert [row["seed"] for row in rows] == ["1", "2"]
    for row in rows:
        seed = int(row["seed"])
        point = purification_point(load_config(config), 0.25, 4, seed)
        assert row["n_rows"] == str(point["n_rows"])
        for key in ("s_final", "tau", "tau_over_lx", "residual"):
            assert row[key] == f"{point[key]:.8e}"
        assert row["status"] == point["status"]


@pytest.mark.parametrize("seeds, pools", (([1], []), ([1, 2, 3], [3])))
def test_phase_sweep_pool_never_exceeds_its_cells(tmp_path, monkeypatch, seeds, pools):
    # the pool used to take --workers as given, and it forks every worker at
    # its first submit; a stand-in pool records its size and maps in-process
    class RecordingPool:
        def __init__(self, max_workers):
            pools_made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    pools_made = []
    monkeypatch.setattr("sebd.sampler.ProcessPoolExecutor", RecordingPool)
    config = tmp_path / "config.yaml"
    config.write_text(f"epsilons: [0.25]\nlx_list: [4]\nseeds: {seeds}\nn_trajectories: 1\n")
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", str(config), "--out", str(out), "--workers", "64"]) == 0
    assert pools_made == pools
    assert [int(row["seed"]) for row in read_csv(out / "tau.csv", TAU)] == seeds


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


_PINNED_TAU_TABLE = """\
# schema=sebd.tau.v1
epsilon,L_x,seed,n_trajectories,n_rows,s_final,tau,tau_over_lx,residual,status
0.02,8,1,8,24,0.00000000e+00,1.48995925e+01,1.86244906e+00,1.00000000e-01,ok
0.035,8,1,8,24,0.00000000e+00,1.53269819e+01,1.91587274e+00,1.00000000e-01,ok
0.05,8,1,8,24,0.00000000e+00,1.60792486e+01,2.00990607e+00,1.00000000e-01,ok
0.065,8,1,8,24,0.00000000e+00,1.65161070e+01,2.06451338e+00,1.00000000e-01,ok
0.08,8,1,8,24,0.00000000e+00,1.72525918e+01,2.15657397e+00,1.00000000e-01,ok
0.02,16,1,8,48,0.00000000e+00,2.79879890e+01,1.74924931e+00,1.00000000e-01,ok
0.035,16,1,8,48,0.00000000e+00,3.00095752e+01,1.87559845e+00,1.00000000e-01,ok
0.05,16,1,8,48,0.00000000e+00,3.19985838e+01,1.99991149e+00,1.00000000e-01,ok
0.065,16,1,8,48,0.00000000e+00,3.39932288e+01,2.12457680e+00,1.00000000e-01,ok
0.08,16,1,8,48,0.00000000e+00,3.60092914e+01,2.25058071e+00,1.00000000e-01,ok
"""


def test_command_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # a change to a table's columns, their order or number formats, to the
    # sample records, the instance JSON or a command's stdout changes a
    # digest. The cases keep their printed digits clear of roundoff:
    # chi_max 2 truncates for real, so trunc_total sums weights of order
    # 0.1, and the purification cells fit entropies above 1e-4.
    monkeypatch.chdir(tmp_path)
    base = "unravel_form: weak-tetrahedron\nseeds: [3]\n"
    sample = base + "lx_list: [3]\nly: 4\nepsilons: [0.0, 0.05]\nn_trajectories: 6\nchi_max: 2\n"
    bench = base + "epsilons: [0.05]\nn_trajectories: 20\nn_bitstrings: 3\n"
    files = {
        "sample.yaml": sample,
        "entropy.yaml": sample + "telemetry: [entropy]\n",
        "sweep.yaml": base + "lx_list: [4]\nschedule: ABCDABCD\nepsilons: [0.02, 0.1]\nn_trajectories: 2\n",
        "dense.yaml": bench + "lx_list: [2]\nly: 4\nreference: dense\n",
        "mpo.yaml": bench + "lx_list: [3]\nreference: mpo\n",
        "unravel.yaml": "noise_kind: dephasing\nepsilons: [0.05, 0.1]\n",
        "tau.csv": _PINNED_TAU_TABLE,
        "kraus.json": json.dumps(kraus_to_dict(NoiseModel("dephasing", 0.1).kraus("projective"))),
    }
    for name, text in files.items():
        Path(name).write_text(text)
    commands = {
        "sample": ["sample", "--config", "sample.yaml", "--out", "sample"],
        "sample-entropy": ["sample", "--config", "entropy.yaml", "--out", "entropy"],
        "phase-sweep": ["phase-sweep", "--config", "sweep.yaml", "--out", "sweep"],
        "benchmark-dense": ["benchmark", "--config", "dense.yaml", "--out", "dense"],
        "benchmark-mpo": ["benchmark", "--config", "mpo.yaml", "--out", "mpo"],
        "collapse-grid": ["collapse", "tau.csv", "--grid", "--out", "collapse"],
        "unravel-config": ["unravel-optimize", "--config", "unravel.yaml", "--out", "unravel"],
        "unravel-kraus": ["unravel-optimize", "kraus.json", "--out", "kraus"],
    }
    got = {}
    for name, argv in commands.items():
        assert main(argv) == 0
        got[f"{name} stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    for path in sorted(tmp_path.glob("*/*")):
        data = path.read_bytes()
        if path.name == "tau.csv":
            # s_final is the entropy after the last row-step, which reads out
            # every slot: roundoff, whose digits move with the BLAS thread
            # count, so only its format is checked
            lines = data.decode().splitlines(keepends=True)
            for k in range(2, len(lines)):
                cells = lines[k].split(",")
                assert re.fullmatch(r"\d\.\d{8}e[+-]\d\d", cells[5]), lines[k]
                lines[k] = ",".join([*cells[:5], "s_final", *cells[6:]])
            data = "".join(lines).encode()
        got[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(data).hexdigest()[:16]
    assert got == {
        "sample stdout": "7bb1261421d0d66f",
        "sample/samples_eps0.txt": "a3f3d9223de6c74b",
        "sample/samples_eps0.05.txt": "102efab5470246a0",
        "sample/telemetry_eps0.csv": "d3c09c80bb784164",
        "sample/telemetry_eps0.05.csv": "b981c5bbc7b7376e",
        "sample-entropy stdout": "12c1888185b2a507",
        "entropy/samples_eps0.txt": "a3f3d9223de6c74b",
        "entropy/samples_eps0.05.txt": "102efab5470246a0",
        "entropy/telemetry_eps0.csv": "64f778d4f867faff",
        "entropy/telemetry_eps0.05.csv": "4c144b1a1a60276c",
        "phase-sweep stdout": "5ca6c90c4d0521cd",
        "sweep/tau.csv": "9ace0204cc4420f8",
        "benchmark-dense stdout": "fdf17d00c1b1b564",
        "dense/instance_eps0.05.json": "3c6ca655839366e7",
        "dense/benchmark_eps0.05.csv": "3e9c2f6e233a9acb",
        "benchmark-mpo stdout": "8e69db21d22ef292",
        "mpo/instance_eps0.05.json": "858606999a73f38e",
        "mpo/benchmark_eps0.05.csv": "cafeadde85a2e02d",
        "collapse-grid stdout": "8fc3ac54b1a0de06",
        "collapse/collapse.csv": "a0a6bc9a19735e0f",
        "collapse/collapse_grid.csv": "52e7251752e2bf4c",
        "unravel-config stdout": "da1aa197740f8cff",
        "unravel/unravel.csv": "44646525ecb53e79",
        "unravel-kraus stdout": "3760fa8044922b2f",
        "kraus/unravel.csv": "fc9162b00ecfee88",
    }
