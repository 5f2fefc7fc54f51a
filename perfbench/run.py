"""Benchmark of the ``sebd`` command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Every step runs in a fresh interpreter with BLAS pinned to one
thread, all on one CPU: the measured command loop, whose untimed import
warms the page cache, then SETUP_REPS set-up probes. The timed metrics
are scaled to reference machine speed (see calibrate.py): wall_s and
traj_per_s by a calibration kernel run between commands, setup_s by a
reference import timed before and after each probe. The manifest also
holds them unscaled. With --trace 1 the seconds are
split between an untraced and a traced loop, which gives the per-layer
metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it is the run
manifest, which is also written with the result under .perfbench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
RUN_LIMIT_S = 170  # every child is killed by then, so a run ends within 180 s
TRACED_FIRST = 500
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "traj_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
from calibrate import IMPORT_REF_S, import_seconds  # noqa: E402
from workloads import WORKLOADS, Z_MAX, command_seed, pooled_z  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(deadline: float) -> float:
    return max(deadline - time.monotonic(), 1.0)


def _child(args: list, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        env=_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _loop_metrics(run: dict, scaled: bool = True) -> dict:
    done = [c for c in run["commands"] if c["rc"] == 0]
    attempted = sum(c["attempted"] for c in run["commands"])
    failed = sum(c["failed"] for c in run["commands"])

    def scale(c: dict) -> float:
        return c["scale"] if scaled else 1.0

    sampler_s = sum(c["sampler_s"] * scale(c) for c in done)
    return {
        # a mean: over ten runs it spread about half as much as a median of
        # the same commands
        "wall_s": statistics.fmean([c["wall_s"] * scale(c) for c in done]) if done else 0.0,
        # completed over seconds inside the sampler: a bursty neighbour
        # moves a total less than a median of per-command rates
        "traj_per_s": (attempted - failed) / sampler_s if sampler_s > 0 else 0.0,
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": run["rss_mb"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    wl = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        loops = []
        for traced in ([False, True] if trace else [False]):
            share = seconds / 2 if trace else seconds
            loop_dir = work / f"trace{int(traced)}"
            loop_dir.mkdir()
            # the traced loop runs other command seeds, so the benchmark
            # check pools twice as many targets
            first = TRACED_FIRST if traced else 0
            loops.append(_child(
                ["measure", workload, seed, first, share, int(traced), loop_dir], deadline
            ))
        # the untimed imports of the loops above have warmed the page cache
        config = work / "setup.json"
        config.write_text(json.dumps({**wl.full_config(), "seeds": [command_seed(seed, 0)]}))
        kind, l_x, l_y = wl.lattice
        before = import_seconds(_remaining(deadline))
        probes = []
        for _ in range(SETUP_REPS):
            probe = _child(["setup", config, kind, l_x, "-" if l_y is None else l_y], deadline)
            after = import_seconds(_remaining(deadline))
            probe["scale"] = IMPORT_REF_S / ((before + after) / 2)
            before = after
            probes.append(probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = loops[0]
    e2e = _loop_metrics(untraced)
    raw = _loop_metrics(untraced, scaled=False)
    e2e["setup_s"] = _median([p["setup_s"] * p["scale"] for p in probes])
    if trace:
        traced = loops[1]
        layers = traced["layers"]
        layers["cli.import_s"] = (_median([p["import_s"] * p["scale"] for p in probes]), "s")
        base = e2e["traj_per_s"]
        overhead = 1.0 - _loop_metrics(traced)["traj_per_s"] / base if base else 0.0
        layers["trace.overhead"] = (overhead, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}

    commands = [c for loop in loops for c in loop["commands"]]
    problems = [p for loop in loops for p in loop["checks"]["problems"]]
    if not any(c["rc"] == 0 for c in commands):
        problems.append("no command completed")
    checks = {
        "sample_digest": untraced["checks"]["sample_digest"],
        "tau": [t for loop in loops for t in loop["checks"]["tau"]],
    }
    if wl.command == "benchmark":
        pairs = [tuple(p) for loop in loops for p in loop["checks"]["ratios"]]
        z, mean_ratio = pooled_z(pairs)
        checks.update(
            pooled_z=z, mean_ratio=mean_ratio, n_targets=len(pairs),
            target_z=[(r - 1.0) / s for r, s in pairs],
        )
        if not abs(z) <= Z_MAX:
            problems.append(f"pooled z {z:.2f} over {len(pairs)} targets beyond {Z_MAX}")
    result = {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in commands),
        "failed": sum(c["failed"] for c in commands),
        "metrics": metrics,
    }
    manifest = {
        "workload": workload,
        "seed": seed,
        "command_seeds": [c["seed"] for c in commands],
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        **untraced["versions"],
        "commands": len(commands),
        # the timed metrics without the machine-speed scale, and the scales
        "unscaled": {
            "wall_s": raw["wall_s"],
            "traj_per_s": raw["traj_per_s"],
            "setup_s": _median([p["setup_s"] for p in probes]),
        },
        "scale_median": {
            "commands": _median([c["scale"] for c in untraced["commands"]]),
            "setup": _median([p["scale"] for p in probes]),
        },
        "checks": checks,
        "problems": problems,
        "errors": [c["error"] for c in commands if c["error"]],
    }
    return manifest, result, loops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "sebd" / "cli.py").is_file():
        print(f"error: no sebd source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for every process of the run, so that the calibration
        # kernel and the timed work share a core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        manifest, result, loops = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    commands = [loop["commands"] for loop in loops]
    path.write_text(json.dumps({"manifest": manifest, "result": result, "commands": commands}, indent=1))
    print(json.dumps(manifest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
