"""One isolated process of a benchmark run.

    python3 perfbench/child.py setup <config> <lattice> <L_x> <L_y or ->
    python3 perfbench/child.py measure <workload> <seed> <first> <seconds> <trace 0|1> <workdir>

``setup`` times a fresh interpreter up to a compiled EffectiveCircuit1D:
import of ``sebd.cli``, config parse, ``random_instance`` and
``compile_sebd``. ``measure`` runs the workload's command back to back
through ``sebd.cli.main`` (closed loop, one client) until ``seconds`` have
passed, numbering the commands from ``first``, checks each command's
outputs, and with trace 1 reports the per-layer metrics. A calibration
chunk runs between commands; each command reports the ``scale`` that
turns its seconds into seconds at reference machine speed (see
``calibrate.py``). Each prints one JSON object as its last line.
"""

import sys
import time

# seconds of calibration kernel after each command: at least CAL_MIN_S,
# and CAL_SHARE of the command's wall time
CAL_MIN_S = 0.06
CAL_SHARE = 0.1


def setup(config: str, kind: str, l_x: str, l_y: str) -> dict:
    clock = time.perf_counter
    t0 = clock()
    import sebd.cli
    from sebd.lightcone import build_lattice, compile_sebd, random_instance

    t1 = clock()
    cfg = sebd.cli.load_config(config)
    t2 = clock()
    eps = cfg.epsilons[0]
    lat = build_lattice(kind, int(l_x), None if l_y == "-" else int(l_y))
    circuit = random_instance(lat, cfg.schedule, cfg.gate_family, cfg.noise(eps), cfg.seeds[0])
    t3 = clock()
    eff = compile_sebd(circuit, cfg.form(eps))
    t4 = clock()
    return {
        "import_s": t1 - t0, "config_s": t2 - t1, "instance_s": t3 - t2,
        "compile_s": t4 - t3, "setup_s": t4 - t0, "slots": eff.n_sites,
    }


def _versions() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(name: str, seed: int, first: int, seconds: float, trace: bool, work: str) -> dict:
    import json
    import re
    import resource
    import shutil
    import traceback
    import warnings
    from pathlib import Path

    # before Layers wraps numpy.linalg
    from calibrate import CAL_REF_S, Calibrator

    import sebd.cli
    from sebd.lightcone import build_lattice

    from layers import Layers
    from tracer import Tracer
    from workloads import (
        WORKLOADS, check_benchmark_rows, check_phase_sweep, check_sample, command_seed,
    )

    wl = WORKLOADS[name]
    work = Path(work)
    config = work / "config.json"
    # JSON is YAML, so the CLI reads it as is
    config.write_text(json.dumps({**wl.full_config(), "seeds": [command_seed(seed, 0)]}))
    lat = build_lattice(*wl.lattice)
    row_sizes = [sum(1 for _, y in lat.sites if y == row) for row in range(lat.L_y)]
    layers = Layers(Tracer(), full=trace)
    failed_re = re.compile(r"(\d+) trajectories failed and were excluded")
    clock = time.perf_counter

    commands, problems, pairs, taus = [], [], [], []
    digest = None
    out_bytes = 0
    cal = Calibrator()
    deadline = clock() + seconds
    before = cal.sample(CAL_MIN_S)
    k = first
    while True:
        cseed = command_seed(seed, k)
        out = work / f"cmd{k}"
        argv = [wl.command, "--config", str(config), "--workers", "1",
                "--out", str(out), "--seed-override", str(cseed)]
        error = None
        s0 = layers.sampler_seconds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = clock()
            try:
                rc = sebd.cli.main(argv)
            except Exception:  # an aborted command is a failure to count, not a crash
                rc, error = None, traceback.format_exc(limit=3)
            wall = clock() - t0
        sampler_s = layers.sampler_seconds() - s0
        after = cal.sample(max(CAL_MIN_S, CAL_SHARE * wall))
        scale = CAL_REF_S / ((before + after) / 2)
        before = after
        attempted = wl.per_command_traj
        failed = attempted if rc != 0 else 0
        if rc == 0:
            try:
                if wl.command == "sample":
                    res = check_sample(out, wl, row_sizes)
                    digest = digest or res.digest
                elif wl.command == "phase-sweep":
                    res = check_phase_sweep(out, wl)
                    taus += res.rows
                else:
                    res = check_benchmark_rows(out, wl)
                    pairs += res.rows
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"seed {cseed}: outputs unreadable: {exc!r}")
            else:
                attempted, failed = res.attempted, res.failed
                problems += [f"seed {cseed}: {p}" for p in res.problems]
            for w in caught:
                m = failed_re.search(str(w.message))
                failed += int(m.group(1)) if m else 0
        out_bytes += sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0
        commands.append({
            "seed": cseed, "rc": rc, "error": error, "wall_s": wall,
            "sampler_s": sampler_s, "scale": scale, "attempted": attempted, "failed": failed,
        })
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        if clock() >= deadline:
            break

    checks = {"problems": problems, "sample_digest": digest, "tau": taus, "ratios": pairs}
    result = {
        "commands": commands,
        "checks": checks,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if trace:
        n_traj = sum(c["attempted"] for c in commands)
        traced_wall = sum(c["wall_s"] for c in commands)
        self_s = layers.self_seconds()
        if self_s > traced_wall:
            problems.append(f"traced self times {self_s:.3f} s exceed wall {traced_wall:.3f} s")
        result["layers"] = layers.metrics(
            n_traj, len(commands), sum(c["failed"] for c in commands), out_bytes
        )
        result["self_s"] = self_s
        result["traced_wall_s"] = traced_wall
    return result


def main(argv) -> int:
    import json

    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = setup(*rest)
    elif mode == "measure":
        name, seed, first, seconds, trace, work = rest
        result = measure(name, int(seed), int(first), float(seconds), trace == "1", work)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
