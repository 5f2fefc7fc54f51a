"""Sweep drivers behind the CLI's phase-sweep and benchmark subcommands.

Two kinds of cells:

* purification points: reference-qubit entropy decay along the sweep
  direction, fitted to tau per (epsilon, L_x, seed),
* benchmark ratio tables: sampler estimates against reference values on
  identical serialized instances.

All randomness flows from a master seed through SeedSequence spawn keys, so
sweep results are independent of evaluation order and worker scheduling.
"""

from __future__ import annotations

import numpy as np

from .analysis import AnalysisError, fit_tau
from .channels import NoiseModel
from .lightcone import Circuit2D, build_lattice, compile_sebd, random_instance
from .mps import DEFAULT_POLICY, TruncationPolicy
from .oracles.dense import dense_evolve
from .oracles.mpo import ORACLE_POLICY, mpo_evolve
from .sampler import RunConfig, estimate_probability, purification_run

__all__ = [
    "sweep_rng",
    "purification_point",
    "benchmark_ratios",
]


def sweep_rng(master_seed: int, *path) -> np.random.Generator:
    """Generator for one cell of a sweep, stable under reordering."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    )


# ---------------------------------------------------------------------------
# Purification sweeps


def purification_point(
    epsilon: float,
    l_x: int,
    seed: int,
    *,
    schedule: str = "ABCD",
    gate_family: str = "fsim",
    noise_kind: str = "depolarizing",
    form: str = "weak-tetrahedron",
    aspect: int = 3,
    n_trajectories: int = 20,
    policy: TruncationPolicy = DEFAULT_POLICY,
    lattice_kind: str = "square",
) -> dict:
    """One (epsilon, L_x, seed) cell: run purification and fit tau.

    The strip is l_x wide and aspect*l_x rows long so the fit window
    [l_x, 2*l_x] is fully inside the sweep. A non-decaying series
    (volume-law phase at this size) is reported with tau = inf rather than
    raising, so sweep tables stay rectangular.
    """
    lat = build_lattice(lattice_kind, l_x, aspect * l_x)
    noise = NoiseModel(noise_kind, epsilon) if epsilon > 0 else None
    circuit = random_instance(lat, schedule, gate_family, noise, seed)
    eff = compile_sebd(circuit, form if noise is not None else None)
    cfg = RunConfig(
        eff,
        policy=policy,
        n_trajectories=n_trajectories,
        master_seed=seed,
        reference_site=eff.n_sites // 2,
    )
    series = purification_run(cfg)
    row = {
        "epsilon": epsilon,
        "L_x": l_x,
        "seed": seed,
        "n_trajectories": n_trajectories,
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


def benchmark_ratios(
    circuit: Circuit2D,
    z_list,
    n_trajectories: int,
    master_seed: int = 0,
    *,
    form: str | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
    reference: str = "auto",
) -> list:
    """Sampler estimate vs reference probability for each target bitstring.

    reference 'auto' picks the dense oracle up to 8 qubits and the MPO
    oracle beyond; rows carry the ratio p_hat/p_ref with its standard
    error scaled by the same reference.
    """
    if reference == "auto":
        reference = "dense" if circuit.lattice.n_sites <= 8 else "mpo"
    if reference == "dense":
        p_of = dense_evolve(circuit).probability
    elif reference == "mpo":
        plain = compile_sebd(circuit)  # the oracle takes the channel's own Kraus form

        def p_of(bits):
            return mpo_evolve(plain, policy=ORACLE_POLICY, z=list(bits)).trace()
    else:
        raise ValueError(f"unknown reference method {reference!r}")
    cfg = RunConfig(
        compile_sebd(circuit, form),
        policy=policy,
        n_trajectories=n_trajectories,
        master_seed=master_seed,
    )
    rows = []
    for z in z_list:
        bits = [int(b) for b in z]
        p_hat, se = estimate_probability(cfg, bits)
        p_ref = p_of(bits)
        rows.append(
            {
                "z": "".join(str(b) for b in bits),
                "K": n_trajectories,
                "p_hat": p_hat,
                "se_hat": se,
                "p_ref": p_ref,
                "reference": reference,
                "ratio": p_hat / p_ref if p_ref > 0 else float("nan"),
                "ratio_se": se / p_ref if p_ref > 0 else float("nan"),
            }
        )
    return rows
