"""Sweep drivers behind the CLI and the acceptance studies.

Four families of experiments:

* purification sweeps: reference-qubit entropy decay along the sweep
  direction, fitted to tau per (epsilon, L_x, seed),
* 1D monitored brickwork: periodic Haar circuits with per-site dephasing
  unraveled into weak or stochastic-projective measurements, diagnosed by
  the tripartite mutual information at late time,
* Clifford strips and tori: stabilizer runs of the effective quasi-1D
  dynamics at larger depth, plus the direct 2D monitored circuit,
* benchmark ratio tables: sampler estimates against reference values on
  identical serialized instances.

All randomness flows from a master seed through SeedSequence spawn keys, so
sweep results are independent of evaluation order and worker scheduling.
"""

from __future__ import annotations

import numpy as np

from .analysis import AnalysisError, fit_tau, tripartite_mi
from .channels import NoiseModel
from .lightcone import Circuit2D, build_lattice, compile_sebd, random_instance
from .mps import DEFAULT_POLICY, MatrixProductState, TruncationPolicy
from .oracles.dense import dense_evolve
from .oracles.mpo import ORACLE_POLICY, mpo_evolve
from .oracles.tableau import Tableau
from .sampler import RunConfig, estimate_probability, purification_run

__all__ = [
    "sweep_rng",
    "purification_point",
    "tau_sweep",
    "brickwork_trajectory_i3",
    "mipt_1d_sweep",
    "strip_trajectory_i3",
    "clifford_strip_sweep",
    "torus_trajectory_i3",
    "clifford_2d_sweep",
    "benchmark_ratios",
]

BRICKWORK_POLICY = TruncationPolicy(chi_max=256, svd_cutoff=1e-12)


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

    The strip is l_x wide and aspect*l_x rows long so the default fit
    window [l_x, 2*l_x] is fully inside the sweep. A non-decaying series
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
        fit = fit_tau(series, l_x=l_x)
        row.update(tau=fit.tau, tau_over_lx=fit.tau / l_x, residual=fit.residual, status="ok")
    except AnalysisError as exc:
        row.update(tau=float("inf"), tau_over_lx=float("inf"), residual=float("nan"), status=str(exc))
    return row


def tau_sweep(eps_list, lx_list, seeds, **kwargs) -> list:
    """Purification table over the full (epsilon, L_x, seed) product."""
    return [
        purification_point(eps, l_x, seed, **kwargs)
        for eps in eps_list
        for l_x in lx_list
        for seed in seeds
    ]


# ---------------------------------------------------------------------------
# 1D monitored Haar brickwork (periodic chain)


def _quarters(length: int):
    if length % 4:
        raise ValueError(f"chain length {length} not divisible by 4")
    q = length // 4
    return (
        tuple(range(0, q)),
        tuple(range(q, 2 * q)),
        tuple(range(2 * q, 3 * q)),
    )


def brickwork_trajectory_i3(
    length: int,
    epsilon: float,
    unraveling: str,
    rng: np.random.Generator,
    *,
    depth: int | None = None,
    policy: TruncationPolicy = BRICKWORK_POLICY,
    renyi_n: float = 1.0,
) -> float:
    """One trajectory of the periodic Haar brickwork chain with dephasing.

    unraveling 'weak-optimal' applies the deterministic weak pair on every
    site after every layer; 'projective' measures Z stochastically at rate
    2*epsilon. Runs to depth 4*length by default, then returns I_3 over
    contiguous quarters of the ring.
    """
    import scipy.stats  # lazy: importing sebd loads no scipy

    if unraveling not in ("weak-optimal", "projective"):
        raise ValueError(f"unknown dephasing unraveling {unraveling!r}")
    depth = 4 * length if depth is None else depth
    kraus = NoiseModel("dephasing", epsilon).kraus(unraveling) if epsilon > 0 else None
    psi = MatrixProductState.new_product_state(length)
    for layer in range(depth):
        if layer % 2 == 0:
            pairs = [(i, i + 1) for i in range(0, length - 1, 2)]
        else:
            pairs = [(i, i + 1) for i in range(1, length - 1, 2)]
            pairs.append((length - 1, 0))
        for i, j in pairs:
            g = scipy.stats.unitary_group.rvs(4, random_state=rng)
            psi.apply_2q(i, j, g, policy)
        if kraus is not None:
            for site in range(length):
                psi.apply_kraus(site, kraus, rng)
    return tripartite_mi(psi.subsystem_renyi, _quarters(length), n=renyi_n)


def mipt_1d_sweep(
    length_list,
    eps_list,
    unraveling: str,
    n_realizations: int,
    master_seed: int = 0,
    *,
    depth: int | None = None,
    policy: TruncationPolicy = BRICKWORK_POLICY,
    renyi_n: float = 1.0,
) -> list:
    """I_3 table for the periodic chain: one row per (epsilon, length)."""
    rows = []
    for ie, epsilon in enumerate(eps_list):
        for il, length in enumerate(length_list):
            vals = np.empty(n_realizations)
            for k in range(n_realizations):
                rng = sweep_rng(master_seed, ie, il, k)
                vals[k] = brickwork_trajectory_i3(
                    length, epsilon, unraveling, rng, depth=depth, policy=policy, renyi_n=renyi_n
                )
            rows.append(
                {
                    "epsilon": float(epsilon),
                    "L": int(length),
                    "n": n_realizations,
                    "i3_mean": float(vals.mean()),
                    "i3_se": float(vals.std(ddof=1) / np.sqrt(n_realizations)) if n_realizations > 1 else 0.0,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Clifford strips (stabilizer run of the effective quasi-1D dynamics)


def strip_trajectory_i3(
    l_x: int,
    depth: int,
    epsilon: float,
    rng: np.random.Generator,
    *,
    n_cycles: int | None = None,
    renyi_n: float = 1.0,
) -> float:
    """One stabilizer trajectory of the quasi-1D strip that the sweep of a
    depth-T circuit leaves active: L_x columns (periodic) by 1 + T/4 rows.

    Each cycle advances the sweep by one lattice row. The row of age k
    (0 = newest) receives its k-th block of even- and odd-column
    horizontal rounds of iSWAP(90%)/SWAP gates dressed with fresh
    single-qubit Cliffords; then every adjacent row pair is coupled by a
    vertical round, split into two sublayers whose pair parity alternates
    with the cycle so that a given lattice row pair always sits in the
    same sublayer. That split reproduces the two-rows-per-block
    information transport of the underlying 2D schedule in both sweep
    directions at every depth, where a one-way pair cascade would sweep
    the whole window each cycle. After every round each participating
    qubit is measured in Z with probability 2*epsilon. The cycle ends by
    reading out the oldest row projectively and recycling it as fresh
    qubits. Returns I_3 over the first three column quarters after the
    last cycle.

    Measurements here are row-granular: the output row is held unmeasured
    until its gates finish, which is what makes the noiseless strip
    volume-law. Finer-grained output schedules sample the same bitstring
    distribution but destroy the entanglement diagnostic.
    """
    if l_x % 4:
        raise ValueError(f"L_x {l_x} not divisible by 4")
    if depth % 4:
        raise ValueError("depth must be a multiple of 4 for the ABCD block")
    from .gates import CLIFFORD_1Q, SWAP, iswap

    width = 1 + depth // 4
    n = l_x * width
    n_cycles = 4 * l_x if n_cycles is None else n_cycles
    tab = Tableau(n)
    p = 2.0 * epsilon
    iswap_m = iswap()

    def gate():
        return iswap_m if rng.random() < 0.9 else SWAP

    def dress(sites):
        for k, s in zip(rng.integers(len(CLIFFORD_1Q), size=len(sites)), sites):
            tab.apply_unitary(CLIFFORD_1Q[k], (s,))

    def monitor(sites):
        if p <= 0.0:
            return
        for s in np.asarray(sites)[rng.random(len(sites)) < p]:
            tab.measure(int(s), rng)

    for cycle in range(n_cycles):
        # the row of age r sits at physical row (cycle + width-1-r) mod width
        phys = lambda age: ((cycle + width - 1 - age) % width) * l_x
        for k in range(depth // 4):
            row = phys(k)
            sites = [row + x for x in range(l_x)]
            for parity in (0, 1):
                dress(sites)
                for x in range(parity, l_x, 2):
                    tab.apply_unitary(gate(), (row + x, row + (x + 1) % l_x))
                monitor(sites)
        for sub in (0, 1):
            pair_ages = [k for k in range(depth // 4) if (cycle + k) % 2 == sub]
            members = sorted({phys(k) + x for k in pair_ages for x in range(l_x)}
                             | {phys(k + 1) + x for k in pair_ages for x in range(l_x)})
            if not members:
                continue
            dress(members)
            for k in pair_ages:
                hi, lo = phys(k), phys(k + 1)
                for x in range(l_x):
                    tab.apply_unitary(gate(), (lo + x, hi + x))
            monitor(members)
        out_row = phys(width - 1)
        for x in range(l_x):
            outcome, _ = tab.measure(out_row + x, rng)
            if outcome:
                tab.pauli_x(out_row + x)

    final_phys = lambda r: (((n_cycles) + r) % width) * l_x
    q = l_x // 4
    blocks = [
        tuple(final_phys(r) + x for r in range(width) for x in range(kq * q, (kq + 1) * q))
        for kq in range(4)
    ]
    ent = lambda sites, n_: tab.entropy(sites)
    return tripartite_mi(ent, tuple(blocks[:3]), n=renyi_n)


def clifford_strip_sweep(
    depth: int,
    lx_list,
    eps_list,
    n_realizations: int,
    master_seed: int = 0,
    *,
    n_cycles=None,
) -> list:
    """I_3 table for depth-T strips; one circuit realization per sample."""
    rows = []
    for ie, epsilon in enumerate(eps_list):
        for il, l_x in enumerate(lx_list):
            vals = np.empty(n_realizations)
            for k in range(n_realizations):
                rng = sweep_rng(master_seed, ie, il, k)
                vals[k] = strip_trajectory_i3(l_x, depth, epsilon, rng, n_cycles=n_cycles)
            rows.append(
                {
                    "epsilon": float(epsilon),
                    "L": int(l_x),
                    "T": depth,
                    "n": n_realizations,
                    "i3_mean": float(vals.mean()),
                    "i3_se": float(vals.std(ddof=1) / np.sqrt(n_realizations)) if n_realizations > 1 else 0.0,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# 2D monitored Clifford circuit (torus)


def torus_trajectory_i3(
    length: int,
    epsilon: float,
    rng: np.random.Generator,
    *,
    depth_layers: int | None = None,
    renyi_n: float = 1.0,
) -> float:
    """One trajectory of the L x L monitored Clifford circuit.

    iSWAP (90%) / SWAP gates with fresh single-qubit Cliffords each layer,
    brick pattern over the four torus bond classes, and projective Z
    measurements at rate 2*epsilon on every qubit after every layer. Runs
    4*length layers, then I_3 over four L/4 x L column strips.
    """
    from .gates import CLIFFORD_1Q, SWAP, iswap

    if length % 4:
        raise ValueError(f"L {length} not divisible by 4")
    n = length * length
    depth_layers = 4 * length if depth_layers is None else depth_layers
    idx = lambda x, y: y * length + x
    classes = []
    classes.append([(idx(x, y), idx((x + 1) % length, y)) for y in range(length) for x in range(0, length, 2)])
    classes.append([(idx(x, y), idx((x + 1) % length, y)) for y in range(length) for x in range(1, length, 2)])
    classes.append([(idx(x, y), idx(x, (y + 1) % length)) for x in range(length) for y in range(0, length, 2)])
    classes.append([(idx(x, y), idx(x, (y + 1) % length)) for x in range(length) for y in range(1, length, 2)])
    iswap_m = iswap()

    tab = Tableau(n)
    p = 2.0 * epsilon
    for layer in range(depth_layers):
        rot_idx = rng.integers(len(CLIFFORD_1Q), size=n)
        for site in range(n):
            tab.apply_unitary(CLIFFORD_1Q[rot_idx[site]], (site,))
        for a, b in classes[layer % 4]:
            m = iswap_m if rng.random() < 0.9 else SWAP
            tab.apply_unitary(m, (a, b))
        if p > 0:
            for site in np.nonzero(rng.random(n) < p)[0]:
                tab.measure(int(site), rng)

    q = length // 4
    strips = [
        tuple(idx(x, y) for x in range(k * q, (k + 1) * q) for y in range(length))
        for k in range(4)
    ]
    ent = lambda sites, n_: tab.entropy(sites)
    return tripartite_mi(ent, tuple(strips[:3]), n=renyi_n)


def clifford_2d_sweep(
    length_list,
    eps_list,
    n_realizations: int,
    master_seed: int = 0,
    *,
    depth_layers=None,
) -> list:
    """I_3 table for the 2D monitored circuit; one row per (epsilon, L)."""
    rows = []
    for ie, epsilon in enumerate(eps_list):
        for il, length in enumerate(length_list):
            vals = np.empty(n_realizations)
            for k in range(n_realizations):
                rng = sweep_rng(master_seed, ie, il, k)
                vals[k] = torus_trajectory_i3(length, epsilon, rng, depth_layers=depth_layers)
            rows.append(
                {
                    "epsilon": float(epsilon),
                    "L": int(length),
                    "n": n_realizations,
                    "i3_mean": float(vals.mean()),
                    "i3_se": float(vals.std(ddof=1) / np.sqrt(n_realizations)) if n_realizations > 1 else 0.0,
                }
            )
    return rows


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
    # compiled once, on the first estimate, for every target
    cfg = RunConfig(
        circuit,
        unravel_form=form,
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
