"""Workload definitions and the checks each workload applies to its outputs.

Every workload is one ``sebd`` subcommand with a fixed config. The seed of
command k in a run with seed s is ``s * 1000 + k``: it picks the random
circuit instance, the trajectory streams and, for ``benchmark``, the
target bitstrings. The checks read only the files the command wrote.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Workload",
    "WORKLOADS",
    "CheckResult",
    "command_seed",
    "check_sample",
    "check_phase_sweep",
    "check_benchmark_rows",
    "pooled_z",
    "Z_MAX",
]

# settings shared by every workload: the ABCD fSim circuit under
# depolarizing noise, unraveled into weak tetrahedron measurements
COMMON = {
    "schedule": "ABCD",
    "gate_family": "fsim",
    "noise_kind": "depolarizing",
    "unravel_form": "weak-tetrahedron",
    "epsilons": [0.05],
    "chi_max": 256,
    "svd_cutoff": 1e-12,
}

# |pooled z| above this fails the benchmark check; per-target z at
# K = 250 reaches -3.4 because the estimator is heavy-tailed, pooling the
# targets of all commands brings it back near a normal variable
Z_MAX = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # sebd subcommand
    config: dict  # YAML config keys besides seeds and output_dir
    lattice: tuple  # (kind, L_x, L_y or None), as the program builds it
    n_sites: int
    why: str

    @property
    def per_command_traj(self) -> int:
        return self.config["n_trajectories"] * self.config.get("n_bitstrings", 1)

    def full_config(self) -> dict:
        return {**COMMON, **self.config}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sample_square_6x18",
            "sample",
            {"lattice": "square", "lx_list": [6], "ly": 18, "n_trajectories": 4},
            ("square", 6, 18),
            108,
            "routing-heavy sampling: 308 swaps against 171 gates per trajectory, chi 16",
        ),
        Workload(
            "sample_heavyhex_11",
            "sample",
            {"lattice": "heavy-hex", "lx_list": [11], "n_trajectories": 12},
            ("heavy-hex", 11, None),
            65,
            "same entry point, short-range gates (48 swaps, 72 gates): Kraus sampling and readout weigh as much as routing",
        ),
        Workload(
            "benchmark_square_3x3",
            "benchmark",
            {
                "lattice": "square", "lx_list": [3], "ly": 3,
                "n_trajectories": 250, "n_bitstrings": 1, "reference": "mpo",
            },
            ("square", 3, 3),
            9,
            "projection readout path: thousands of 7 ms trajectories where per-event Python overhead outweighs LAPACK",
        ),
        Workload(
            "phase_sweep_square_6",
            "phase-sweep",
            {"lattice": "square", "lx_list": [6], "aspect": 3, "n_trajectories": 8},
            ("square", 6, 18),
            108,
            "purification loop with a reference qubit and a tau fit, the third event loop",
        ),
    )
}


def command_seed(run_seed: int, k: int) -> int:
    return run_seed * 1000 + k


@dataclass
class CheckResult:
    """What one command's outputs show: trajectory counts and any problems."""

    attempted: int
    failed: int
    problems: list
    digest: str | None = None
    rows: list = field(default_factory=list)


def _read_table(path: Path, schema: str) -> list:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"# schema={schema}":
        raise ValueError(f"{path.name}: missing schema line {schema}")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:] if line]


def check_sample(out: Path, wl: Workload, row_sizes: list) -> CheckResult:
    """One record per ok trajectory with one bit per site; one telemetry row each.

    row_sizes lists the number of lattice sites in each lattice row, in
    row order.
    """
    n = wl.config["n_trajectories"]
    problems = []
    if sum(row_sizes) != wl.n_sites:
        problems.append(f"lattice has {sum(row_sizes)} sites, expected {wl.n_sites}")
    samples = out / "samples_eps0.05.txt"
    telemetry = _read_table(out / "telemetry_eps0.05.csv", "sebd.telemetry.v1")
    if [int(r["trajectory"]) for r in telemetry] != list(range(n)):
        problems.append(f"telemetry rows {len(telemetry)}, expected trajectories 0..{n - 1}")
    ok_seeds = [int(r["trajectory"]) for r in telemetry if r["ok"] == "1"]
    failed = len(telemetry) - len(ok_seeds)
    lines = samples.read_text().splitlines()
    if len(lines) != len(ok_seeds):
        problems.append(f"{len(lines)} sample records for {len(ok_seeds)} ok trajectories")
    for line, seed in zip(lines, ok_seeds):
        parts = line.split()
        groups = parts[1:-2]
        if parts[0] != str(seed):
            problems.append(f"record {line[:20]!r} out of order, expected seed {seed}")
        elif [len(g) for g in groups] != row_sizes or any(set(g) - {"0", "1"} for g in groups):
            problems.append(f"record {seed} does not hold one bit per site")
        elif int(parts[-1]) > COMMON["chi_max"]:
            problems.append(f"record {seed} reports chi {parts[-1]} above chi_max")
        if len(problems) > 5:
            break
    digest = hashlib.sha256(samples.read_bytes()).hexdigest()[:16]
    return CheckResult(len(telemetry), failed, problems, digest=digest)


def check_phase_sweep(out: Path, wl: Workload) -> CheckResult:
    """One tau row with status ok and a finite positive tau shorter than the series.

    A tau beyond the series length means the fit saw no decay it can
    resolve, even when its slope came out a hair below zero.
    """
    rows = _read_table(out / "tau.csv", "sebd.tau.v1")
    problems = []
    if len(rows) != 1:
        problems.append(f"{len(rows)} tau rows, expected 1")
    n_rows = wl.lattice[2]
    for r in rows:
        tau = float(r["tau"])
        if r["status"] != "ok":
            problems.append(f"status {r['status']!r}")
        if not (math.isfinite(tau) and tau > 0):
            problems.append(f"tau {r['tau']} is not finite and positive")
        elif tau >= n_rows:
            problems.append(f"tau {r['tau']} is not below the {n_rows}-row series")
        if int(r["n_rows"]) != n_rows:
            problems.append(f"{r['n_rows']} rows in the series, expected {n_rows}")
    n = wl.config["n_trajectories"]
    return CheckResult(n, 0, problems, rows=[float(r["tau"]) for r in rows])


def check_benchmark_rows(out: Path, wl: Workload) -> CheckResult:
    """Each target has a positive reference and a finite estimate from K trajectories.

    The comparison with the reference happens over all commands of a run,
    in pooled_z.
    """
    rows = _read_table(out / "benchmark_eps0.05.csv", "sebd.benchmark.v1")
    k = wl.config["n_trajectories"]
    problems = []
    if len(rows) != wl.config["n_bitstrings"]:
        problems.append(f"{len(rows)} targets, expected {wl.config['n_bitstrings']}")
    kept = {}
    for r in rows:
        p_ref, ratio, ratio_se = float(r["p_ref"]), float(r["ratio"]), float(r["ratio_se"])
        if int(r["K"]) != k or r["reference"] != "mpo":
            problems.append(f"target {r['z']}: K {r['K']} against {r['reference']}")
        if len(r["z"]) != wl.n_sites:
            problems.append(f"target {r['z']} has {len(r['z'])} bits")
        if not (p_ref > 0 and math.isfinite(ratio) and ratio >= 0 and ratio_se > 0):
            problems.append(f"target {r['z']}: p_ref {p_ref}, ratio {ratio} +- {ratio_se}")
            continue
        # a repeated target repeats the same trajectories; count it once
        kept[r["z"]] = (ratio, ratio_se)
    return CheckResult(k * len(rows), 0, problems, rows=list(kept.values()))


def pooled_z(pairs) -> tuple:
    """z-score of the mean of p_hat/p_ref over targets against 1.

    Each pair is (ratio, standard error of the ratio) for one target; the
    targets are independent, so the mean's error adds in quadrature.
    Returns (z, mean ratio).
    """
    pairs = list(pairs)
    if not pairs:
        return float("nan"), float("nan")
    mean = sum(r for r, _ in pairs) / len(pairs)
    se = math.sqrt(sum(s * s for _, s in pairs)) / len(pairs)
    return (mean - 1.0) / se, mean
