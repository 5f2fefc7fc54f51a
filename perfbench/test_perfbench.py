"""Tests of the benchmark itself: span accounting and the output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench

The check tests run each workload's command once on real outputs, show
that the check passes, then corrupt a copy and show that it fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, patch_everywhere  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Z_MAX, check_benchmark_rows, check_phase_sweep, check_sample,
    command_seed, pooled_z,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def test_recursive_span_counts_outermost_call_and_splits_self_time():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.tick(2.0)

    leaf_w = tr.wrap_leaf("svd", leaf)

    def gate(swapped):
        clock.tick(1.0)
        if not swapped:
            return gate_w(True)  # re-enters itself, like apply_2q with j < i
        leaf_w()
        clock.tick(0.5)

    gate_w = tr.wrap("mps.apply_2q", gate)

    def run():
        clock.tick(0.25)
        gate_w(False)
        gate_w(True)

    tr.wrap("sampler.run", run)()

    g = tr.stats["mps.apply_2q"]
    assert g.calls == 2
    # first call: 1 + (1 + 2 + 0.5); second: 1 + 2 + 0.5
    assert g.incl_s == pytest.approx(8.0)
    assert g.self_s == pytest.approx(4.0)
    assert tr.stats["mps.apply_2q:svd"].calls == 2
    assert tr.stats["sampler.run"].self_s == pytest.approx(0.25)
    total_self = sum(s.self_s for s in tr.stats.values())
    assert total_self == pytest.approx(tr.stats["sampler.run"].incl_s)


def test_span_closes_on_exception_and_skips_hook():
    tr = Tracer()
    seen = []

    def boom():
        raise ValueError("x")

    w = tr.wrap("layer.boom", boom, after=lambda *a: seen.append(a))
    with pytest.raises(ValueError):
        w()
    assert tr.depth("layer.boom") == 0
    assert tr.stats["layer.boom"].calls == 1
    assert not seen


def test_patch_everywhere_rebinds_imported_copies():
    import types

    mod = types.ModuleType("fakepkg.a")
    other = types.ModuleType("fakepkg.b")

    def f():
        return 1

    mod.f = other.f = f
    sys.modules["fakepkg.a"], sys.modules["fakepkg.b"] = mod, other
    try:
        assert patch_everywhere("fakepkg", f, len) == 2
        assert mod.f is len and other.f is len
    finally:
        del sys.modules["fakepkg.a"], sys.modules["fakepkg.b"]


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


@pytest.mark.parametrize(
    "name, gate2, swaps",
    [("sample_heavyhex_11", 72, 48), ("sample_square_6x18", 171, 308)],
)
def test_traced_run_matches_circuit_and_self_time_fits_in_wall(tmp_path, name, gate2, swaps):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "measure", name, "3", "0", "0.01", "1", str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = {k: v for k, (v, _) in res["layers"].items()}
    assert res["checks"]["problems"] == []
    assert 0 < res["self_s"] <= res["traced_wall_s"]
    assert layers["lightcone.gate2_per_traj"] == gate2
    assert layers["lightcone.swaps_per_traj"] == swaps
    # one outermost apply_2q per gate; every gate and swap is one two-site SVD
    assert layers["mps.apply_2q.calls"] == gate2
    assert layers["mps.useful_svd_ratio"] == pytest.approx(gate2 / (gate2 + swaps))
    assert layers["sampler.traj_samples"] == res["commands"][0]["attempted"]
    assert all(c["scale"] > 0 for c in res["commands"])
    # run.py adds the two metrics that need the set-up probes and the untraced loop
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    reported = {k: u for k, (_, u) in res["layers"].items()}
    reported.update({"cli.import_s": "s", "trace.overhead": "ratio"})
    assert reported == declared


def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_scale_turns_command_seconds_into_reference_seconds():
    import run

    loop = {
        "rss_mb": 100.0,
        "commands": [
            # a command at half reference speed, one at reference speed
            {"rc": 0, "wall_s": 2.0, "sampler_s": 1.8, "scale": 0.5, "attempted": 4, "failed": 0},
            {"rc": 0, "wall_s": 1.0, "sampler_s": 0.9, "scale": 1.0, "attempted": 4, "failed": 0},
        ],
    }
    scaled = run._loop_metrics(loop)
    assert scaled["wall_s"] == pytest.approx(1.0)
    assert scaled["traj_per_s"] == pytest.approx(8 / 1.8)
    raw = run._loop_metrics(loop, scaled=False)
    assert raw["wall_s"] == pytest.approx(1.5)
    assert raw["traj_per_s"] == pytest.approx(8 / 2.7)


def test_calibration_kernel_is_invisible_to_the_tracer(monkeypatch):
    import numpy.linalg

    from calibrate import Calibrator

    tracer = Tracer()
    monkeypatch.setattr(numpy.linalg, "svd", tracer.wrap_leaf("svd", numpy.linalg.svd))
    monkeypatch.setattr(numpy.linalg, "norm", tracer.wrap_leaf("norm", numpy.linalg.norm))
    assert Calibrator().sample(0.01) > 0
    assert tracer.stats == {}


def test_end_to_end_metrics_match_benchmark_json():
    import run

    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert run.E2E_UNITS == declared
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(WORKLOADS)


# -- output checks -----------------------------------------------------------


def _run_cli(name: str, seed: int, out: Path) -> Path:
    import sebd.cli

    wl = WORKLOADS[name]
    config = out.parent / f"{name}.json"
    config.write_text(json.dumps({**wl.full_config(), "seeds": [seed]}))
    argv = [wl.command, "--config", str(config), "--workers", "1", "--out", str(out)]
    assert sebd.cli.main(argv) == 0
    return out


def _row_sizes(name):
    from sebd.lightcone import build_lattice

    lat = build_lattice(*WORKLOADS[name].lattice)
    return [sum(1 for _, y in lat.sites if y == row) for row in range(lat.L_y)]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    return {
        name: _run_cli(name, command_seed(7, 0), base / name)
        for name in ("sample_heavyhex_11", "phase_sweep_square_6", "benchmark_square_3x3")
    }


def _corrupt(src: Path, tmp: Path, filename: str, edit) -> Path:
    dst = tmp / "corrupt"
    dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copytree(src, dst)
    path = dst / filename
    path.write_text(edit(path.read_text()))
    return dst


def test_sample_check_passes_and_can_fail(outputs, tmp_path):
    name = "sample_heavyhex_11"
    wl, rows = WORKLOADS[name], _row_sizes(name)
    good = check_sample(outputs[name], wl, rows)
    assert good.problems == [] and good.attempted == 12 and good.failed == 0
    assert len(good.digest) == 16

    def drop_bit(text):
        lines = text.splitlines()
        parts = lines[3].split()
        parts[2] = parts[2][:-1]
        lines[3] = " ".join(parts)
        return "\n".join(lines) + "\n"

    bad = check_sample(_corrupt(outputs[name], tmp_path, "samples_eps0.05.txt", drop_bit), wl, rows)
    assert any("one bit per site" in p for p in bad.problems)


def test_sample_check_catches_missing_telemetry_row(outputs, tmp_path):
    name = "sample_heavyhex_11"
    out = _corrupt(
        outputs[name], tmp_path, "telemetry_eps0.05.csv",
        lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
    )
    bad = check_sample(out, WORKLOADS[name], _row_sizes(name))
    assert any("telemetry rows" in p for p in bad.problems)


def test_sample_digest_sees_a_changed_bit(outputs, tmp_path):
    name = "sample_heavyhex_11"
    good = check_sample(outputs[name], WORKLOADS[name], _row_sizes(name))

    def flip(text):
        i = text.index(" ") + 1
        return text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1:]

    out = _corrupt(outputs[name], tmp_path, "samples_eps0.05.txt", flip)
    changed = check_sample(out, WORKLOADS[name], _row_sizes(name))
    assert changed.problems == [] and changed.digest != good.digest


def test_phase_sweep_check_passes_and_can_fail(outputs, tmp_path):
    name = "phase_sweep_square_6"
    good = check_phase_sweep(outputs[name], WORKLOADS[name])
    assert good.problems == [] and len(good.rows) == 1

    def set_fit(tau, status):
        def edit(text):
            head, row = text.rstrip("\n").rsplit("\n", 1)
            cols = row.split(",")
            cols[6], cols[-1] = tau, status
            return head + "\n" + ",".join(cols) + "\n"
        return edit

    no_fit = set_fit("inf", "series does not decay on the window")
    bad = check_phase_sweep(_corrupt(outputs[name], tmp_path / "a", "tau.csv", no_fit), WORKLOADS[name])
    assert any("status" in p for p in bad.problems)
    assert any("not finite" in p for p in bad.problems)
    # a flat series can fit a slope a hair below zero and pass the fit
    flat = set_fit("1.0e+17", "ok")
    bad = check_phase_sweep(_corrupt(outputs[name], tmp_path / "b", "tau.csv", flat), WORKLOADS[name])
    assert any("not below" in p for p in bad.problems)


def test_benchmark_check_passes_and_can_fail(outputs, tmp_path):
    name = "benchmark_square_3x3"
    good = check_benchmark_rows(outputs[name], WORKLOADS[name])
    assert good.problems == [] and good.attempted == 250

    def zero_ref(text):
        lines = text.splitlines()
        cols = lines[2].split(",")
        cols[4] = "0.0"
        lines[2] = ",".join(cols)
        return "\n".join(lines) + "\n"

    bad = check_benchmark_rows(
        _corrupt(outputs[name], tmp_path, "benchmark_eps0.05.csv", zero_ref), WORKLOADS[name]
    )
    assert any("p_ref" in p for p in bad.problems)


def test_pooled_z_flags_a_biased_estimator():
    # twelve targets at K = 250 have ratio errors near 0.13 each
    unbiased = [(1.0 + d, 0.13) for d in (-0.1, 0.05, 0.08, -0.02) * 3]
    z, mean = pooled_z(unbiased)
    assert abs(z) < Z_MAX and mean == pytest.approx(1.0025)
    biased = [(r * 0.8, s * 0.8) for r, s in unbiased]
    assert abs(pooled_z(biased)[0]) > Z_MAX
