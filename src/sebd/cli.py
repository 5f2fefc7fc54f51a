"""Configuration-driven command line front end.

Subcommands
    sample            draw trajectories and write bitstring + telemetry files
                      (telemetry: [entropy] adds s_mid_max, the largest
                      mid-strip entanglement entropy over the row-steps)
    phase-sweep       purification-time table over (epsilon, L_x, seed)
    benchmark         sampler estimates against a dense or MPO reference
    collapse          scaling collapse of an existing tau table
    unravel-optimize  unraveling cost report for channels or a Kraus file

sample, phase-sweep and benchmark read one YAML config file (--config),
and unravel-optimize reads one or a Kraus file, and refuses both at once.
A config holds a flat, documented key set and loads into an
ExperimentConfig (sebd.experiments), the one description of a run that the
sweep drivers read too; unknown keys are hard errors so a typo cannot
silently corrupt a sweep, and every value, each lattice of lx_list
included, is checked as the config loads, before any output is written.
sample, phase-sweep and benchmark compile each 2D instance with
compile_sebd before any trajectory runs; the sampler takes only compiled
circuits. All randomness flows from the config seeds, so reruns with the
same config produce byte-identical outputs. --workers parallelizes sample
over its lane blocks of up to 256 trajectories, and phase-sweep over sweep
cells, both through sebd.sampler.map_jobs, whose pool never holds more
processes than there are blocks or cells and which runs one block or cell
in-process. Results are reduced in deterministic order either way. Each
subcommand takes only the flags it reads (benchmark also accepts
--workers, which it ignores). sample and benchmark run one instance, so a
config whose lx_list or seeds holds more than one entry is refused before
any output is written (--seed-override replaces seeds with one seed).
benchmark refuses reference dense on more qubits than the dense oracle
takes, also before any output. phase-sweep runs on the square lattice
only, whose strips of aspect*L_x rows (aspect >= 3) hold tau's fit window
of rows [L_x, 2*L_x]; it sets each strip's length itself, so it refuses a
config that sets ly. Each key takes the type of its ExperimentConfig
field: integer keys (ly, n_trajectories, aspect, chi_max, n_bitstrings,
the entries of lx_list and seeds) refuse a value that int() would change,
such as 2.5, every numeric key refuses a bool, string keys refuse a
non-string, an epsilon must be >= 0 (NaN is refused), and no two epsilons
may share the {:g} text that tags their output files and table rows.

Config keys (defaults in parentheses):
    lattice (square), ly (optional), schedule (ABCD), gate_family (fsim),
    noise_kind (depolarizing), unravel_form (family default),
    epsilons ([0.0]), lx_list ([4]), seeds ([0]), n_trajectories (100),
    aspect (3), chi_max (256), svd_cutoff (1e-12), n_bitstrings (10),
    reference (auto), telemetry ([]), output_dir (out)

The scaling collapse is its own command, run on a written tau table
(sebd collapse TABLE [--grid] [--out DIR], DIR defaulting to out); it
reads no config, and makes DIR only once the fit succeeds. collapse and
collapse_grid are not config keys: a file that sets them fails as unknown
config keys.

Every CSV table a command writes or reads is stated in sebd.serialize (its
schema tag, columns and number formats); the commands hand it rows keyed
by column, as the drivers in sebd.experiments return them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import data_collapse
from .channels import NoiseModel, optimize_unraveling, unraveling_cost_x
from .experiments import (
    ConfigError,
    ExperimentConfig,
    benchmark_ratios,
    load_config,
    purification_point,
    sweep_rng,
)
from .oracles.dense import DENSE_MAX_QUBITS
from .sampler import map_jobs, sample
from .statmech import critical_x, predicted_phase
from .serialize import (
    BENCHMARK,
    COLLAPSE,
    COLLAPSE_GRID,
    TAU,
    TELEMETRY,
    UNRAVEL,
    SerializeError,
    format_sample_record,
    kraus_from_dict,
    read_csv,
    save_circuit,
    write_csv,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]


def _resolved_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("this command requires --config")
    cfg = load_config(args.config)
    if args.seed_override is not None:
        cfg = replace(cfg, seeds=(int(args.seed_override),))
    if args.out is not None:
        cfg = replace(cfg, output_dir=str(args.out))
    return cfg


def _one_instance(cfg: ExperimentConfig, command: str) -> ExperimentConfig:
    """cfg, if it names one L_x and one seed; sample and benchmark run one instance."""
    for key in ("lx_list", "seeds"):
        values = getattr(cfg, key)
        if len(values) != 1:
            raise ConfigError(
                f"{command} runs one instance: {key} must hold one entry, got {list(values)}"
            )
    return cfg


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    cfg = _one_instance(_resolved_config(args), "sample")
    out = _outdir(cfg)
    entropy = "entropy" in cfg.telemetry
    for eps in cfg.epsilons:
        circuit = cfg.instance(eps, cfg.lx_list[0], cfg.ly, cfg.seeds[0])
        run = cfg.run_config(circuit, eps, cfg.seeds[0])
        records = sample(run, workers=args.workers, mid_entropy=entropy)
        tag = f"{eps:g}"
        stream_path = out / f"samples_eps{tag}.txt"
        with stream_path.open("w") as fh:
            for rec in records:
                if rec.ok:
                    fh.write(format_sample_record(rec) + "\n")
        rows = []
        for i, rec in enumerate(records):
            row = {
                "trajectory": i, "seed": rec.seed, "ok": rec.ok,
                "chi_max": rec.chi_max_seen, "trunc_total": rec.trunc_total,
            }
            if entropy:
                # the last row-step reads out every slot, so the state ends a product
                row["s_mid_max"] = max(rec.entropies) if rec.entropies else float("nan")
            rows.append(row)
        write_csv(out / f"telemetry_eps{tag}.csv", TELEMETRY, rows)
        n_fail = sum(not r.ok for r in records)
        print(f"eps={tag}: {len(records)} trajectories ({n_fail} failed) -> {stream_path}")
    return 0


# ---------------------------------------------------------------------------
# phase-sweep


def _sweep_cell(job):
    return purification_point(*job)


def cmd_phase_sweep(args) -> int:
    cfg = _resolved_config(args)
    if cfg.lattice != "square":
        raise ConfigError(
            f"phase-sweep needs lattice square: a {cfg.lattice} strip of width L_x "
            "has L_x - 2 rows, too few for the fit window [L_x, 2*L_x]"
        )
    if cfg.ly is not None:
        raise ConfigError(
            f"phase-sweep reads no ly (got {cfg.ly}): its strips are aspect*L_x rows long"
        )
    out = _outdir(cfg)
    jobs = [
        (cfg, eps, l_x, seed)
        for eps in cfg.epsilons
        for l_x in cfg.lx_list
        for seed in cfg.seeds
    ]
    points = map_jobs(_sweep_cell, jobs, args.workers)
    tau_path = out / "tau.csv"
    write_csv(tau_path, TAU, points)
    print(f"{len(points)} sweep cells -> {tau_path}")
    return 0


# ---------------------------------------------------------------------------
# benchmark


def cmd_benchmark(args) -> int:
    cfg = _one_instance(_resolved_config(args), "benchmark")
    n = cfg.lattice_at(cfg.lx_list[0], cfg.ly).n_sites
    if cfg.reference == "dense" and n > DENSE_MAX_QUBITS:
        raise ConfigError(f"dense evolution capped at {DENSE_MAX_QUBITS} qubits, got {n}")
    out = _outdir(cfg)
    for eps in cfg.epsilons:
        circuit = cfg.instance(eps, cfg.lx_list[0], cfg.ly, cfg.seeds[0])
        tag = f"{eps:g}"
        save_circuit(out / f"instance_eps{tag}.json", circuit)
        rng = sweep_rng(cfg.seeds[0], 1)
        z_list = [
            "".join(str(b) for b in rng.integers(0, 2, circuit.lattice.n_sites))
            for _ in range(cfg.n_bitstrings)
        ]
        rows = benchmark_ratios(cfg, eps, circuit, z_list)
        path = out / f"benchmark_eps{tag}.csv"
        write_csv(path, BENCHMARK, rows)
        print(f"eps={tag}: {len(rows)} bitstrings vs {rows[0]['reference']} -> {path}")
    return 0


# ---------------------------------------------------------------------------
# collapse (standalone, from an existing tau table)


def cmd_collapse(args) -> int:
    by_cell: dict = {}
    try:
        for r in read_csv(args.table, TAU):
            if np.isfinite(y := float(r["tau_over_lx"])):
                by_cell.setdefault((float(r["epsilon"]), int(r["L_x"])), []).append(y)
    except KeyError as exc:
        raise SerializeError(f"{args.table}: no column {exc}") from exc
    pts = [(eps, l_x, float(np.mean(ys))) for (eps, l_x), ys in sorted(by_cell.items())]
    fit, (eps_grid, nu_grid, r) = data_collapse(pts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    box = dict(zip(("eps_lo", "eps_hi", "nu_lo", "nu_hi"), fit.box))
    row = {"eps_c": fit.eps_c, "nu": fit.nu, "r_min": fit.r_min, **box, "identifiable": fit.identifiable}
    write_csv(out / "collapse.csv", COLLAPSE, [row])
    if args.grid:
        rows = [
            {"eps_c": e, "nu": n, "r": r[i, j]}
            for i, e in enumerate(eps_grid)
            for j, n in enumerate(nu_grid)
        ]
        write_csv(out / "collapse_grid.csv", COLLAPSE_GRID, rows)
    print(
        f"eps_c={fit.eps_c:.4f} nu={fit.nu:.3f} r_min={fit.r_min:.3e} "
        f"identifiable={fit.identifiable} -> {out / 'collapse.csv'}"
    )
    return 0


# ---------------------------------------------------------------------------
# unravel-optimize


def cmd_unravel_optimize(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if args.kraus:
        if args.config is not None:
            raise ConfigError("unravel-optimize reads --config or a Kraus file, not both")
        k = kraus_from_dict(json.loads(Path(args.kraus).read_text()))
        seed = int(args.seed_override) if args.seed_override is not None else 0
        best, _ = optimize_unraveling(k, seed=seed)
        cases = [(k.label or Path(args.kraus).name, None, "file", "numeric", best)]
    elif args.config:
        cfg = _resolved_config(args)
        if out_dir is None:
            out_dir = Path(cfg.output_dir)
        cases = []
        for eps in cfg.epsilons:
            model = NoiseModel(cfg.noise_kind, eps)
            form = cfg.unravel_form or model.forms()[0]
            cases.append((cfg.noise_kind, eps, form, "analytic", model.kraus(form)))
    else:
        raise ConfigError("unravel-optimize needs --config or a Kraus JSON file")
    rows = [
        {
            "channel": channel, "epsilon": eps, "form": form, "method": method,
            "x_cost": unraveling_cost_x(k), "x_crit": critical_x(k.d), "phase_mf": predicted_phase(k),
        }
        for channel, eps, form, method, k in cases
    ]
    for row in rows:
        c = UNRAVEL.cells(row)
        eps = f" eps={c['epsilon']}" if c["epsilon"] else ""
        print(f"{c['channel']}{eps} [{c['method']}] x={c['x_cost']} x_c={c['x_crit']} phase={c['phase_mf']}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "unravel.csv"
        write_csv(path, UNRAVEL, rows)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sebd",
        description="Trajectory sampling and phase diagnostics for noisy shallow circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_and_out(p):
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--out", default=None, help="override the config output_dir")

    def seed_override(p):
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config seed list with this single seed")

    def workers(p):
        p.add_argument("--workers", type=int, default=1, help="worker process count")

    # benchmark reads no --workers; it accepts the flag because perfbench
    # passes --workers 1 to every command it times
    for name, func, help_text in (
        ("sample", cmd_sample, "draw trajectories, write bitstreams + telemetry"),
        ("phase-sweep", cmd_phase_sweep, "purification tau table over (epsilon, L_x, seed)"),
        ("benchmark", cmd_benchmark, "sampler vs reference probability ratios"),
    ):
        p = sub.add_parser(name, help=help_text)
        config_and_out(p)
        seed_override(p)
        workers(p)
        p.set_defaults(func=func)

    p = sub.add_parser("collapse", help="scaling collapse of an existing tau CSV")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("table", help="tau CSV from phase-sweep")
    p.add_argument("--grid", action="store_true", help="also dump the R grid")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("unravel-optimize", help="unraveling cost and phase prediction")
    config_and_out(p)
    seed_override(p)
    p.add_argument("kraus", nargs="?", default=None,
                   help="serialized Kraus JSON; numeric gauge search instead of config channels")
    p.set_defaults(func=cmd_unravel_optimize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
