"""Configuration-driven command line front end.

Subcommands
    sample            draw trajectories and write bitstring + telemetry files
                      (telemetry: [entropy] adds s_mid_max, the largest
                      mid-strip entanglement entropy over the row-steps)
    phase-sweep       purification-time table over (epsilon, L_x, seed)
    benchmark         sampler estimates against a dense or MPO reference
    collapse          scaling collapse of an existing tau table
    unravel-optimize  unraveling cost report for channels or a Kraus file

sample, phase-sweep and benchmark compile each 2D instance with
compile_sebd before any trajectory runs; the sampler takes only compiled
circuits. Every command reads one YAML config file (--config) holding a
flat, documented key set; unknown keys are hard errors so a typo cannot
silently corrupt a sweep. All randomness flows from the config seeds, so reruns with
the same config produce byte-identical outputs. --workers parallelizes over
trajectories (sample) or sweep cells (phase-sweep); results are reduced in
deterministic order either way.

Config keys (defaults in parentheses):
    lattice (square), ly (optional), schedule (ABCD), gate_family (fsim),
    noise_kind (depolarizing), unravel_form (family default),
    epsilons ([0.0]), lx_list ([4]), seeds ([0]), n_trajectories (100),
    aspect (3), chi_max (256), svd_cutoff (1e-12), n_bitstrings (10),
    reference (auto), collapse (false), collapse_grid (false),
    telemetry ([]), output_dir (out)
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .analysis import data_collapse
from .channels import NoiseModel, optimize_unraveling, unraveling_cost_x
from .experiments import benchmark_ratios, purification_point, sweep_rng
from .lightcone import (
    GATE_FAMILIES,
    LAYER_LABELS,
    build_lattice,
    compile_sebd,
    random_instance,
)
from .mps import TruncationPolicy
from .sampler import SEED_LIMIT, RunConfig, sample
from .statmech import critical_x, predicted_phase
from .serialize import (
    BENCHMARK_SCHEMA,
    COLLAPSE_GRID_SCHEMA,
    COLLAPSE_SCHEMA,
    TAU_SCHEMA,
    TELEMETRY_SCHEMA,
    UNRAVEL_SCHEMA,
    format_sample_record,
    kraus_from_dict,
    read_csv,
    save_circuit,
    write_csv,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]

LATTICE_KINDS = ("square", "heavy-hex")
NOISE_KINDS = ("dephasing", "depolarizing", "amplitude-damping")
REFERENCES = ("auto", "dense", "mpo")
TELEMETRY_FIELDS = ("entropy",)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    lattice: str = "square"
    ly: int | None = None
    schedule: str = "ABCD"
    gate_family: str = "fsim"
    noise_kind: str = "depolarizing"
    unravel_form: str | None = None
    epsilons: tuple = (0.0,)
    lx_list: tuple = (4,)
    seeds: tuple = (0,)
    n_trajectories: int = 100
    aspect: int = 3
    chi_max: int = 256
    svd_cutoff: float = 1e-12
    n_bitstrings: int = 10
    reference: str = "auto"
    collapse: bool = False
    collapse_grid: bool = False
    telemetry: tuple = ()
    output_dir: str = "out"

    def __post_init__(self):
        if self.lattice not in LATTICE_KINDS:
            raise ConfigError(f"lattice must be one of {LATTICE_KINDS}")
        if self.gate_family not in GATE_FAMILIES:
            raise ConfigError(f"gate_family must be one of {GATE_FAMILIES}")
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"noise_kind must be one of {NOISE_KINDS}")
        model = NoiseModel(self.noise_kind, 0.0)
        if self.unravel_form is not None and self.unravel_form not in model.forms():
            raise ConfigError(
                f"unravel_form {self.unravel_form!r} not valid for "
                f"{self.noise_kind}; choose from {model.forms()}"
            )
        if not self.schedule or set(self.schedule) - set(LAYER_LABELS):
            raise ConfigError(f"schedule must be a non-empty string over {LAYER_LABELS!r}")
        for name in ("epsilons", "lx_list", "seeds"):
            if not getattr(self, name):
                raise ConfigError(f"sweep axis {name} must be non-empty")
        if any(not 0 <= s < SEED_LIMIT for s in self.seeds):
            raise ConfigError("seeds must lie in [0, 2**63)")
        if any(e < 0 for e in self.epsilons):
            raise ConfigError("epsilons must be non-negative")
        if any(l < 2 for l in self.lx_list):
            raise ConfigError("lx_list entries must be at least 2")
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories must be positive")
        if self.aspect < 1:
            raise ConfigError("aspect must be positive")
        if self.chi_max < 1 or self.svd_cutoff < 0:
            raise ConfigError("invalid truncation policy")
        if self.n_bitstrings < 1:
            raise ConfigError("n_bitstrings must be positive")
        if self.reference not in REFERENCES:
            raise ConfigError(f"reference must be one of {REFERENCES}")
        bad = set(self.telemetry) - set(TELEMETRY_FIELDS)
        if bad:
            raise ConfigError(f"unknown telemetry fields {sorted(bad)}")

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(chi_max=self.chi_max, svd_cutoff=self.svd_cutoff)

    def noise(self, epsilon: float) -> NoiseModel | None:
        return NoiseModel(self.noise_kind, epsilon) if epsilon > 0 else None

    def form(self, epsilon: float) -> str | None:
        if epsilon <= 0:
            return None
        return self.unravel_form or NoiseModel(self.noise_kind, epsilon).forms()[0]


_COERCE = {
    "n_trajectories": int,
    "aspect": int,
    "chi_max": int,
    "svd_cutoff": float,
    "n_bitstrings": int,
}
_TUPLES = {
    "epsilons": float,
    "lx_list": int,
    "seeds": int,
    "telemetry": str,
}
_BOOLS = ("collapse", "collapse_grid")


def config_from_mapping(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a key: value mapping")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if key in _TUPLES:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list")
            kwargs[key] = tuple(_TUPLES[key](v) for v in value)
        elif key == "ly":
            kwargs[key] = None if value is None else int(value)
        elif key in _BOOLS:
            if not isinstance(value, bool):
                raise ConfigError(f"{key} must be true or false")
            kwargs[key] = value
        elif key in _COERCE:
            kwargs[key] = _COERCE[key](value)
        else:
            kwargs[key] = value
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_mapping(raw or {})


def _resolved_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("this command requires --config")
    cfg = load_config(args.config)
    updates = {}
    if args.seed_override is not None:
        updates["seeds"] = (int(args.seed_override),)
    if args.out is not None:
        updates["output_dir"] = str(args.out)
    if updates:
        raw = {f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)}
        raw.update(updates)
        cfg = ExperimentConfig(**raw)
    return cfg


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _eps_tag(epsilon: float) -> str:
    return f"{epsilon:g}"


def _build_instance(cfg: ExperimentConfig, epsilon: float):
    l_x = cfg.lx_list[0]
    if cfg.lattice == "square":
        lat = build_lattice("square", l_x, cfg.ly if cfg.ly is not None else l_x)
    else:
        lat = build_lattice("heavy-hex", l_x, cfg.ly)
    return random_instance(lat, cfg.schedule, cfg.gate_family, cfg.noise(epsilon), cfg.seeds[0])


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    cfg = _resolved_config(args)
    out = _outdir(cfg)
    policy = cfg.policy()
    for eps in cfg.epsilons:
        circuit = _build_instance(cfg, eps)
        eff = compile_sebd(circuit, cfg.form(eps))
        cuts = (eff.n_sites // 2,) if "entropy" in cfg.telemetry else None
        run = RunConfig(
            eff,
            policy=policy,
            n_trajectories=cfg.n_trajectories,
            master_seed=cfg.seeds[0],
            entropy_cuts=cuts,
        )
        records = sample(run, workers=args.workers)
        tag = _eps_tag(eps)
        stream_path = out / f"samples_eps{tag}.txt"
        with stream_path.open("w") as fh:
            for rec in records:
                if rec.ok:
                    fh.write(format_sample_record(rec) + "\n")
        header = ["trajectory", "seed", "ok", "chi_max", "trunc_total"]
        if "entropy" in cfg.telemetry:
            header.append("s_mid_max")
        rows = []
        for i, rec in enumerate(records):
            row = [i, rec.seed, int(rec.ok), rec.chi_max_seen, f"{rec.trunc_total:.8e}"]
            if "entropy" in cfg.telemetry:
                # the last row-step reads out every slot, so the state ends a product
                s = max(row[0] for row in rec.entropies) if rec.entropies else float("nan")
                row.append(f"{s:.8e}")
            rows.append(row)
        telemetry_path = out / f"telemetry_eps{tag}.csv"
        write_csv(telemetry_path, TELEMETRY_SCHEMA, header, rows)
        n_fail = sum(not r.ok for r in records)
        print(f"eps={tag}: {len(records)} trajectories ({n_fail} failed) -> {stream_path}")
    return 0


# ---------------------------------------------------------------------------
# phase-sweep


_TAU_HEADER = [
    "epsilon", "L_x", "seed", "n_trajectories", "n_rows",
    "s_final", "tau", "tau_over_lx", "residual", "status",
]


def _sweep_cell(job):
    cfg_kwargs, eps, l_x, seed = job
    return purification_point(eps, l_x, seed, **cfg_kwargs)


def _tau_row(point: dict) -> list:
    return [
        _eps_tag(point["epsilon"]), point["L_x"], point["seed"],
        point["n_trajectories"], point["n_rows"],
        f"{point['s_final']:.8e}", f"{point['tau']:.8e}",
        f"{point['tau_over_lx']:.8e}", f"{point['residual']:.8e}",
        point["status"],
    ]


def _collapse_points(rows) -> list:
    by_cell: dict = {}
    for r in rows:
        if np.isfinite(r["tau_over_lx"]):
            by_cell.setdefault((r["epsilon"], r["L_x"]), []).append(r["tau_over_lx"])
    return [
        (eps, l_x, float(np.mean(vals))) for (eps, l_x), vals in sorted(by_cell.items())
    ]


def _write_collapse(out: Path, fit, grid=None) -> None:
    write_csv(
        out / "collapse.csv",
        COLLAPSE_SCHEMA,
        ["eps_c", "nu", "r_min", "eps_lo", "eps_hi", "nu_lo", "nu_hi", "identifiable"],
        [[
            f"{fit.eps_c:.6f}", f"{fit.nu:.4f}", f"{fit.r_min:.8e}",
            f"{fit.box[0]:.6f}", f"{fit.box[1]:.6f}",
            f"{fit.box[2]:.4f}", f"{fit.box[3]:.4f}",
            int(fit.identifiable),
        ]],
    )
    if grid is not None:
        eps_grid, nu_grid, r = grid
        rows = [
            [f"{e:.6f}", f"{n:.4f}", f"{r[i, j]:.8e}"]
            for i, e in enumerate(eps_grid)
            for j, n in enumerate(nu_grid)
        ]
        write_csv(out / "collapse_grid.csv", COLLAPSE_GRID_SCHEMA,
                  ["eps_c", "nu", "r"], rows)


def cmd_phase_sweep(args) -> int:
    cfg = _resolved_config(args)
    out = _outdir(cfg)
    cell_kwargs = dict(
        schedule=cfg.schedule,
        gate_family=cfg.gate_family,
        noise_kind=cfg.noise_kind,
        form=cfg.unravel_form or NoiseModel(cfg.noise_kind, 0.0).forms()[0],
        aspect=cfg.aspect,
        n_trajectories=cfg.n_trajectories,
        policy=cfg.policy(),
        lattice_kind=cfg.lattice,
    )
    jobs = [
        (cell_kwargs, eps, l_x, seed)
        for eps in cfg.epsilons
        for l_x in cfg.lx_list
        for seed in cfg.seeds
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            points = list(pool.map(_sweep_cell, jobs))
    else:
        points = [_sweep_cell(j) for j in jobs]
    tau_path = out / "tau.csv"
    write_csv(tau_path, TAU_SCHEMA, _TAU_HEADER, [_tau_row(p) for p in points])
    print(f"{len(points)} sweep cells -> {tau_path}")
    if cfg.collapse:
        pts = _collapse_points(points)
        result = data_collapse(pts, return_grid=cfg.collapse_grid)
        fit, grid = result if cfg.collapse_grid else (result, None)
        _write_collapse(out, fit, grid)
        print(f"collapse: eps_c={fit.eps_c:.4f} nu={fit.nu:.3f} -> {out / 'collapse.csv'}")
    return 0


# ---------------------------------------------------------------------------
# benchmark


_BENCH_HEADER = ["z", "K", "p_hat", "se_hat", "p_ref", "reference", "ratio", "ratio_se"]


def cmd_benchmark(args) -> int:
    cfg = _resolved_config(args)
    out = _outdir(cfg)
    for eps in cfg.epsilons:
        circuit = _build_instance(cfg, eps)
        tag = _eps_tag(eps)
        save_circuit(out / f"instance_eps{tag}.json", circuit)
        rng = sweep_rng(cfg.seeds[0], 1)
        z_list = [
            "".join(str(b) for b in rng.integers(0, 2, circuit.lattice.n_sites))
            for _ in range(cfg.n_bitstrings)
        ]
        rows = benchmark_ratios(
            circuit,
            z_list,
            cfg.n_trajectories,
            master_seed=cfg.seeds[0],
            form=cfg.form(eps),
            policy=cfg.policy(),
            reference=cfg.reference,
        )
        table = [
            [
                r["z"], r["K"], f"{r['p_hat']:.10e}", f"{r['se_hat']:.4e}",
                f"{r['p_ref']:.10e}", r["reference"],
                f"{r['ratio']:.8f}", f"{r['ratio_se']:.4e}",
            ]
            for r in rows
        ]
        path = out / f"benchmark_eps{tag}.csv"
        write_csv(path, BENCHMARK_SCHEMA, _BENCH_HEADER, table)
        print(f"eps={tag}: {len(rows)} bitstrings vs {rows[0]['reference']} -> {path}")
    return 0


# ---------------------------------------------------------------------------
# collapse (standalone, from an existing tau table)


def cmd_collapse(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, header, raw_rows = read_csv(args.table, expect_schema=TAU_SCHEMA)
    idx = {name: header.index(name) for name in ("epsilon", "L_x", "tau_over_lx")}
    rows = [
        {
            "epsilon": float(r[idx["epsilon"]]),
            "L_x": int(r[idx["L_x"]]),
            "tau_over_lx": float(r[idx["tau_over_lx"]]),
        }
        for r in raw_rows
    ]
    pts = _collapse_points(rows)
    want_grid = cfg.collapse_grid or args.grid
    result = data_collapse(pts, return_grid=want_grid)
    fit, grid = result if want_grid else (result, None)
    _write_collapse(out, fit, grid)
    print(
        f"eps_c={fit.eps_c:.4f} nu={fit.nu:.3f} r_min={fit.r_min:.3e} "
        f"identifiable={fit.identifiable} -> {out / 'collapse.csv'}"
    )
    return 0


# ---------------------------------------------------------------------------
# unravel-optimize


_UNRAVEL_HEADER = ["channel", "epsilon", "form", "method", "x_cost", "x_crit", "phase_mf"]


def _unravel_row(label, eps_text, form, method, k) -> list:
    return [
        label, eps_text, form, method,
        f"{unraveling_cost_x(k):.12f}", f"{critical_x(k.d):.12f}", predicted_phase(k),
    ]


def cmd_unravel_optimize(args) -> int:
    rows = []
    out_dir = Path(args.out) if args.out else None
    if args.kraus:
        rec = json.loads(Path(args.kraus).read_text())
        k = kraus_from_dict(rec)
        seed = int(args.seed_override) if args.seed_override is not None else 0
        best, _ = optimize_unraveling(k, seed=seed)
        rows.append(_unravel_row(k.label or Path(args.kraus).name, "", "file", "numeric", best))
    elif args.config:
        cfg = _resolved_config(args)
        if out_dir is None:
            out_dir = Path(cfg.output_dir)
        for eps in cfg.epsilons:
            model = NoiseModel(cfg.noise_kind, eps)
            form = cfg.unravel_form or model.forms()[0]
            k = model.kraus(form)
            rows.append(_unravel_row(cfg.noise_kind, _eps_tag(eps), form, "analytic", k))
    else:
        raise ConfigError("unravel-optimize needs --config or a Kraus JSON file")
    for r in rows:
        print(f"{r[0]} eps={r[1] or '-'} [{r[3]}] x={r[4]} x_c={r[5]} phase={r[6]}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "unravel.csv"
        write_csv(path, UNRAVEL_SCHEMA, _UNRAVEL_HEADER, rows)
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

    def common(p):
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--workers", type=int, default=1, help="worker process count")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config seed list with this single seed")
        p.add_argument("--out", default=None, help="override the config output_dir")

    p = sub.add_parser("sample", help="draw trajectories, write bitstreams + telemetry")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("phase-sweep", help="purification tau table, optional collapse")
    common(p)
    p.set_defaults(func=cmd_phase_sweep)

    p = sub.add_parser("benchmark", help="sampler vs reference probability ratios")
    common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("collapse", help="scaling collapse of an existing tau CSV")
    common(p)
    p.add_argument("table", help="tau CSV from phase-sweep")
    p.add_argument("--grid", action="store_true", help="also dump the R grid")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("unravel-optimize", help="unraveling cost and phase prediction")
    common(p)
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
