"""The experiment config and the sweep drivers behind phase-sweep and benchmark.

ExperimentConfig is the one description of a run, from the YAML file down
to the drivers: its field annotations are the config keys' types, which
config_from_mapping casts each value to. Two kinds of cells, each returned
as a dict row keyed by the columns of its sebd.serialize table:

* purification points (TAU): reference-qubit entropy decay along the sweep
  direction, fitted to tau per (epsilon, L_x, seed),
* benchmark ratio tables (BENCHMARK): sampler estimates against reference
  values on identical serialized instances.

All randomness flows from a master seed through SeedSequence spawn keys, so
sweep results are independent of evaluation order and worker scheduling.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .analysis import AnalysisError, fit_tau
from .channels import NoiseModel
from .lightcone import (
    GATE_FAMILIES,
    LAYER_LABELS,
    Circuit2D,
    Lattice2D,
    build_lattice,
    compile_sebd,
    random_instance,
)
from .mps import TruncationPolicy
from .oracles.dense import DENSE_MAX_QUBITS, dense_evolve
from .oracles.mpo import ORACLE_POLICY, mpo_evolve
from .sampler import SEED_LIMIT, RunConfig, estimate_probability, purification_run

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "config_from_mapping",
    "load_config",
    "sweep_rng",
    "purification_point",
    "benchmark_ratios",
]

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
    epsilons: tuple[float, ...] = (0.0,)
    lx_list: tuple[int, ...] = (4,)
    seeds: tuple[int, ...] = (0,)
    n_trajectories: int = 100
    aspect: int = 3
    chi_max: int = 256
    svd_cutoff: float = 1e-12
    n_bitstrings: int = 10
    reference: str = "auto"
    telemetry: tuple[str, ...] = ()
    output_dir: str = "out"

    def __post_init__(self):
        if self.lattice not in LATTICE_KINDS:
            raise ConfigError(f"lattice must be one of {LATTICE_KINDS}")
        if self.gate_family not in GATE_FAMILIES:
            raise ConfigError(f"gate_family must be one of {GATE_FAMILIES}")
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"noise_kind must be one of {NOISE_KINDS}")
        if not self.schedule or set(self.schedule) - set(LAYER_LABELS):
            raise ConfigError(f"schedule must be a non-empty string over {LAYER_LABELS!r}")
        for name in ("epsilons", "lx_list", "seeds"):
            if not getattr(self, name):
                raise ConfigError(f"sweep axis {name} must be non-empty")
        if any(not 0 <= s < SEED_LIMIT for s in self.seeds):
            raise ConfigError("seeds must lie in [0, 2**63)")
        if any(not e >= 0 for e in self.epsilons):  # NaN among them
            raise ConfigError("epsilons must be non-negative")
        # an epsilon's output files and table rows carry its {:g} text, so
        # two epsilons with one text would overwrite or pool each other
        texts = [f"{e:g}" for e in self.epsilons]
        clash = [e for e, t in zip(self.epsilons, texts) if texts.count(t) > 1]
        if clash:
            raise ConfigError(f"epsilons {clash} share output tags {sorted({f'{e:g}' for e in clash})}")
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories must be positive")
        if self.aspect < 3:
            # fit_tau fits rows [L_x, 2*L_x], so a strip needs more than 2*L_x rows
            raise ConfigError("aspect must be at least 3 to hold the fit window [L_x, 2*L_x]")
        if self.n_bitstrings < 1:
            raise ConfigError("n_bitstrings must be positive")
        if self.reference not in REFERENCES:
            raise ConfigError(f"reference must be one of {REFERENCES}")
        bad = set(self.telemetry) - set(TELEMETRY_FIELDS)
        if bad:
            raise ConfigError(f"unknown telemetry fields {sorted(bad)}")
        # the truncation policy, every lattice and every channel are built
        # here once, so a value they refuse stops the run before any output
        # is written; the channel's build is the one check of unravel_form,
        # made at every epsilon, 0 included
        try:
            self.policy()
            for l_x in self.lx_list:
                self.lattice_at(l_x, self.ly)
            for e in self.epsilons:
                NoiseModel(self.noise_kind, e).kraus(self.unravel_form)
        except ValueError as exc:  # LatticeError and ChannelError among them
            raise ConfigError(str(exc)) from exc

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(chi_max=self.chi_max, svd_cutoff=self.svd_cutoff)

    def noise(self, epsilon: float) -> NoiseModel | None:
        return NoiseModel(self.noise_kind, epsilon) if epsilon > 0 else None

    def form(self, epsilon: float) -> str | None:
        if epsilon <= 0:
            return None
        return self.unravel_form or NoiseModel(self.noise_kind, epsilon).forms()[0]

    def lattice_at(self, l_x: int, l_y: int | None) -> Lattice2D:
        """The l_x-wide lattice of this config's kind.

        A square lattice without l_y is l_x by l_x; heavy-hex derives its rows.
        """
        if l_y is None and self.lattice == "square":
            l_y = l_x
        return build_lattice(self.lattice, l_x, l_y)

    def instance(self, epsilon: float, l_x: int, l_y: int | None, seed: int) -> Circuit2D:
        """Random circuit on lattice_at(l_x, l_y)."""
        lat = self.lattice_at(l_x, l_y)
        return random_instance(lat, self.schedule, self.gate_family, self.noise(epsilon), seed)

    def run_config(self, circuit: Circuit2D, epsilon: float, seed: int) -> RunConfig:
        """The sampler's run of circuit: compiled with this config's unraveling
        at epsilon, under its truncation policy, n_trajectories from seed."""
        return RunConfig(
            compile_sebd(circuit, self.form(epsilon)),
            policy=self.policy(),
            n_trajectories=self.n_trajectories,
            master_seed=seed,
        )


def _cast(key: str, value, kind):
    """value as kind, the type of key's ExperimentConfig field; ConfigError
    for a value the cast refuses or would hide: a bool (true as 1), a number
    int() would change (2.5 as 2), or a non-string for a str key."""
    args = typing.get_args(kind)
    if type(None) in args:  # T | None
        if value is None:
            return None
        kind = args[0]
    elif args:  # tuple[T, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list")
        return tuple(_cast(key, v, args[0]) for v in value)
    hidden = (
        isinstance(value, bool)
        or (kind is int and isinstance(value, float) and not value.is_integer())
        or (kind is str and not isinstance(value, str))
    )
    try:
        if not hidden:
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} takes {kind.__name__} values, got {value!r}")


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """ExperimentConfig from a key: value mapping, each value cast to its
    field's type; an unknown key is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a key: value mapping")
    kinds = typing.get_type_hints(ExperimentConfig)
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**{key: _cast(key, value, kinds[key]) for key, value in raw.items()})


def load_config(path) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_mapping(raw or {})


def sweep_rng(master_seed: int, *path) -> np.random.Generator:
    """Generator for one cell of a sweep, stable under reordering."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    )


# ---------------------------------------------------------------------------
# Purification sweeps


def purification_point(cfg: ExperimentConfig, epsilon: float, l_x: int, seed: int) -> dict:
    """One (epsilon, L_x, seed) cell: run purification and fit tau.

    The strip is l_x wide and cfg.aspect*l_x rows long, so the fit window
    [l_x, 2*l_x] is fully inside the sweep. A non-decaying series
    (volume-law phase at this size) is reported with tau = inf rather than
    raising, so sweep tables stay rectangular.
    """
    circuit = cfg.instance(epsilon, l_x, cfg.aspect * l_x, seed)
    series = purification_run(cfg.run_config(circuit, epsilon, seed))
    row = {
        "epsilon": epsilon,
        "L_x": l_x,
        "seed": seed,
        "n_trajectories": cfg.n_trajectories,
        "n_rows": len(series),
        "s_final": float(series[-1]),
    }
    try:
        fit = fit_tau(series, l_x)
        row.update(tau=fit.tau, tau_over_lx=fit.tau / l_x, residual=fit.residual, status="ok")
    except AnalysisError as exc:
        row.update(tau=float("inf"), tau_over_lx=float("inf"), residual=float("nan"), status=str(exc))
    return row


# ---------------------------------------------------------------------------
# Benchmark ratio tables


def benchmark_ratios(cfg: ExperimentConfig, epsilon: float, circuit: Circuit2D, z_list) -> list:
    """Sampler estimate vs reference probability for each target bitstring.

    The sampler runs cfg.n_trajectories trajectories from cfg.seeds[0]
    with cfg.form(epsilon). Reference 'auto' picks the dense oracle up to
    DENSE_MAX_QUBITS qubits and the MPO oracle beyond; rows carry the ratio
    p_hat/p_ref with its standard error scaled by the same reference.
    """
    reference = cfg.reference
    if reference == "auto":
        reference = "dense" if circuit.lattice.n_sites <= DENSE_MAX_QUBITS else "mpo"
    if reference == "dense":
        p_of = dense_evolve(circuit).probability
    else:
        plain = compile_sebd(circuit)  # the oracle takes the channel's own Kraus form

        def p_of(bits):
            return mpo_evolve(plain, policy=ORACLE_POLICY, z=list(bits)).trace()

    run = cfg.run_config(circuit, epsilon, cfg.seeds[0])
    rows = []
    for z in z_list:
        bits = [int(b) for b in z]
        p_hat, se = estimate_probability(run, bits)
        p_ref = p_of(bits)
        rows.append(
            {
                "z": "".join(str(b) for b in bits),
                "K": cfg.n_trajectories,
                "p_hat": p_hat,
                "se_hat": se,
                "p_ref": p_ref,
                "reference": reference,
                "ratio": p_hat / p_ref if p_ref > 0 else float("nan"),
                "ratio_se": se / p_ref if p_ref > 0 else float("nan"),
            }
        )
    return rows
