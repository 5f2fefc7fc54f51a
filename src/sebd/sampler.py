"""Trajectory driver for compiled effective 1D circuits.

The input is the event stream compile_sebd made from a 2D circuit, with
its noise unraveling fixed there; the sampler never compiles. It runs
matrix-product-state trajectories of that strip: gates apply
unitarily, noise events Born-sample one Kraus branch each, readout events
measure and reset their slot. Each trajectory's (z, m) pair is a valid
joint sample, so the z marginal samples the noisy output distribution.

One loop interprets the event stream: _run_block runs a block of
trajectory indices, dispatches each event to its kernel and records the
Kraus picks, and takes the readout as an argument, with an optional probe
it reads after every row-step and an optional reference qubit. The state
keeps by lane id what a record reads besides: its discarded weight, its
peak bond dimension and its failure text.
RunConfig holds only the run (circuit, policy, trajectory count, master
seed); each probe belongs to the one entry point that reads it. sample
measures and resets each slot (_sample_block) and, with mid_entropy,
probes the mid-chain entropy; estimate_probability projects each slot
onto a target bit (_block_weights) and probes nothing. Their K
trajectories split into ceil(K / LANE_BLOCK) blocks whose sizes differ by
at most 1, so any K up to 256 runs as the lanes of one state.
run_trajectory is sample's block of one index. purification_run attaches
the reference to the middle slot, at the chain's left end, and probes its
entropy, one trajectory per block. Every block is a lane state, a block
of one trajectory a state of one lane.

One failure rule: an MpsError ends its trajectory and never leaves an
entry point. sample keeps the failed record with its error text; the
reductions (estimate_probability, purification_run) exclude it with a
warning that counts the failures, and raise SamplerError if all failed.

Per-trajectory randomness comes from a counter-based Philox stream keyed by
(master_seed, trajectory index), so results do not depend on scheduling or
worker count. map_jobs is the package's one process pool: sample maps its
blocks through it, and phase-sweep its sweep cells.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .lightcone import EffectiveCircuit1D, MeasureReset, Noise
from .mps import DEFAULT_POLICY, MatrixProductState, MpsError, TruncationPolicy

__all__ = [
    "SamplerError",
    "TrajectoryRecord",
    "RunConfig",
    "SEED_LIMIT",
    "run_trajectory",
    "map_jobs",
    "sample",
    "estimate_probability",
    "purification_run",
]


SEED_LIMIT = 2**63  # Philox keys are int64: a larger seed would lose bits

# most trajectories per lane block of sample and estimate_probability
LANE_BLOCK = 256


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class TrajectoryRecord:
    """One trajectory's output.

    z maps each readout's 2D coordinate to its bit (one entry per lattice
    site). m lists the sampled Kraus index of every noise event in stream
    order. entropies holds the von Neumann entropy at the mid-chain cut
    after every row-step, when sample is asked for it. chi_max_seen is the
    largest bond dimension of the trajectory's state as each two-qubit
    gate, its routing swaps included, leaves it (MatrixProductState.peak);
    a routing swap's exact split never raises it (TruncationPolicy).
    A failed trajectory carries the error text in `failed` and partial
    telemetry; it is never silently dropped.
    """

    seed: int
    z: dict
    m: tuple
    entropies: tuple = ()
    chi_max_seen: int = 1
    trunc_total: float = 0.0
    failed: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed is None


@dataclass(eq=False)
class RunConfig:
    """Shared immutable configuration for a batch of trajectories: the run only.

    circuit is the effective 1D circuit from compile_sebd, whose noise
    unraveling was chosen when it was compiled. What a run reads besides
    its samples is up to its entry point: sample's mid_entropy, and the
    reference qubit of purification_run.
    """

    circuit: EffectiveCircuit1D
    policy: TruncationPolicy = DEFAULT_POLICY
    n_trajectories: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise SamplerError("need at least one trajectory")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise SamplerError(f"master_seed {self.master_seed} outside [0, 2**63)")
        if not isinstance(self.circuit, EffectiveCircuit1D):
            raise SamplerError(
                f"cannot run {type(self.circuit).__name__}; compile it with compile_sebd"
            )


def _trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(key=[master_seed, index]))


def _uniform_tables(master_seed: int, indices, n: int) -> np.ndarray:
    """Row r: _trajectory_rng(master_seed, indices[r]).random(n), bit for bit.

    One Philox bit generator is reset to each lane's key (counter 0, empty
    buffer), which costs a fraction of building a Generator per lane. Its
    raw 64-bit words become doubles as Generator.random makes them, from
    the top 53 bits. The keys are converted the way Philox(key=...) does.
    """
    keys = np.asarray([[master_seed, i] for i in indices]).astype(np.uint64)
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    raw = np.empty((len(keys), n), dtype=np.uint64)
    for row, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        raw[row] = bitgen.random_raw(n)
    return (raw >> np.uint64(11)) * 2.0**-53


def run_trajectory(cfg: RunConfig, index: int) -> TrajectoryRecord:
    """Trajectory index run alone (a block of one); deterministic for fixed
    (master_seed, index)."""
    return _sample_block(cfg, range(index, index + 1))[0]


def map_jobs(fn, jobs, workers: int) -> list:
    """[fn(job) for job in jobs], in job order.

    The one pool rule of the package: at most min(workers, len(jobs))
    processes, and in-process when that is 1. jobs is a sequence; fn and
    the jobs must pickle.
    """
    n = min(workers, len(jobs))
    if n <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, jobs))


def sample(cfg: RunConfig, workers: int = 1, mid_entropy: bool = False) -> list:
    """All n_trajectories records, ordered by trajectory index.

    The trajectories run as the lanes of one state per block of
    _lane_blocks. Each lane draws from its own stream, so a record holds
    the bits, Kraus indices, peak chi and failure text of its trajectory
    run alone, with trunc_total and entropies agreeing to roundoff. With
    mid_entropy each record's entropies hold the entropy at the mid-chain
    cut (n_sites // 2) after every row-step. The blocks, whose split does
    not depend on the worker count, go through map_jobs. Memory: `sebd
    sample` on a square 8x24 (16 slots, chi 32, epsilon 0.02) peaked at
    91 MB resident with K = 256, one block, against 43 MB with K = 1.
    """
    blocks = _lane_blocks(cfg.n_trajectories)
    parts = map_jobs(partial(_sample_block, cfg, mid_entropy=mid_entropy), blocks, workers)
    return [rec for part in parts for rec in part]


def _drop_failed(values, failed) -> list:
    """The values of the trajectories that did not fail, in index order;
    warns with the number that did, SamplerError if all did."""
    kept = [v for v, bad in zip(values, failed) if not bad]
    if not kept:
        raise SamplerError(f"all {len(values)} trajectories failed")
    if len(kept) < len(values):
        warnings.warn(f"{len(values) - len(kept)} trajectories failed and were excluded")
    return kept


def _bits_by_coord(eff: EffectiveCircuit1D, z_target) -> dict:
    """The target as {coordinate: bit}, checked here so the kernels need not."""
    coords = eff.coords()
    if isinstance(z_target, dict):
        missing = [c for c in coords if c not in z_target]
        if missing:
            raise SamplerError(f"target missing coordinates {missing[:4]}")
        bits = [int(z_target[c]) for c in coords]
    else:
        bits = [int(b) for b in z_target]
        if len(bits) != len(coords):
            raise SamplerError(f"target needs {len(coords)} bits, got {len(bits)}")
    for c, b in zip(coords, bits):
        if b not in (0, 1):
            raise SamplerError(f"target bit {b} at coordinate {c} is not 0 or 1")
    return dict(zip(coords, bits))


class _LaneUniforms:
    """Uniforms drawn up front, one row per lane: random() hands out the next column."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.col = 0

    def random(self) -> np.ndarray:
        self.col += 1
        return self.table[:, self.col - 1]


@dataclass
class _Block:
    """What the lanes of one block recorded, one row per lane id.

    reads holds each readout's value, NaN once the lane has left the state;
    picks the Kraus indices, -1 once it has left; probes the probe's value
    after each row-step, NaN once the lane has left (no columns without a
    probe). psi is the final state: its live lanes, and by lane id the
    failed lanes' error texts, each lane's discarded weight and its peak
    bond dimension.
    """

    psi: MatrixProductState
    reads: np.ndarray
    picks: np.ndarray
    probes: np.ndarray


def _lane_blocks(k: int) -> list:
    """Trajectory indices 0..k-1 as the fewest consecutive blocks of at most
    LANE_BLOCK, whose sizes differ by at most 1."""
    n_blocks = -(-k // LANE_BLOCK)
    size, extra = divmod(k, n_blocks)
    starts = [b * size + min(b, extra) for b in range(n_blocks + 1)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def _run_block(cfg: RunConfig, indices, readout, probe=None, reference: bool = False) -> _Block:
    """Run the trajectories in indices as the lanes of one state.

    readout(psi, ev, rng) reads out the slot of a MeasureReset event and
    returns one value per lane live afterwards; it may retire lanes. Lane r
    draws its uniforms from _trajectory_rng(master_seed, indices[r]), one
    per noise event and per readout in event order, drawn up front; a
    readout that draws none leaves the table's last columns unread, so the
    noise events read the same numbers either way. probe(psi), when given,
    returns one value per live lane and is read after every row-step. With
    reference, a Bell-pair reference qubit attaches to the middle slot
    (n_sites // 2) of every lane before the first row.

    The loop dispatches each event itself: a readout to readout, a noise
    event to apply_kraus, a gate to apply_1q or apply_2q, whose noise picks
    (site i's, then site j's) take two rows. This is the one place picks
    are recorded. Each lane's peak bond dimension is kept by the state
    (psi.peak, raised by apply_2q), beside its discarded weight.
    """
    eff = cfg.circuit
    counts = eff.counts()
    n, rows = len(indices), len(eff.rows)
    psi = MatrixProductState.new_product_state(eff.n_sites, lanes=n)
    if reference:
        psi.attach_reference(eff.n_sites // 2)
    table = _uniform_tables(cfg.master_seed, indices, counts["noise"] + counts["measure"])
    rng = _LaneUniforms(table)
    picks = np.full((counts["noise"], n), -1)  # a row per noise event, a column per lane id
    reads = np.full((n, counts["measure"]), np.nan)
    probes = np.full((n, 0 if probe is None else rows), np.nan)
    k = col = 0
    try:
        for r, row in enumerate(eff.rows):
            for ev in row:
                # the right-hand side runs before psi.lanes is read, so a kernel
                # that retires lanes records against the lanes it leaves; picks
                # go in through a row view, cheaper than a 2D index
                if isinstance(ev, MeasureReset):
                    reads[psi.lanes, col] = readout(psi, ev, rng)
                    col += 1
                elif isinstance(ev, Noise):
                    picks[k][psi.lanes] = psi.apply_kraus(ev.i, ev.kraus, rng)
                    k += 1
                elif ev.j is None:
                    psi.apply_1q(ev.i, ev.matrix)
                else:
                    pair = psi.apply_2q(ev.i, ev.j, ev.matrix, cfg.policy, ev.kraus, rng)
                    if pair is not None:  # site i's picks, then site j's
                        picks[k][psi.lanes], picks[k + 1][psi.lanes] = pair
                        k += 2
            if probe is not None:  # so does the probe
                probes[psi.lanes, r] = probe(psi)
    except MpsError as exc:  # not a lane's own: it hits every live lane alike
        for lane in psi.lanes.tolist():
            psi.failed[lane] = f"{type(exc).__name__}: {exc}"
    return _Block(psi, reads, picks.T, probes)


def _measure_reset(psi: MatrixProductState, ev: MeasureReset, rng) -> np.ndarray:
    return psi.measure_reset(ev.i, rng)


def _sample_block(cfg: RunConfig, indices, mid_entropy: bool = False) -> list:
    """sample's records of the trajectories in indices, run as one lane block.

    Each readout measures and resets its slot; a failed lane's record holds
    what it recorded before the event it failed in.
    """
    eff = cfg.circuit
    cut = eff.n_sites // 2
    probe = (lambda psi: psi.entropy(cut)) if mid_entropy else None
    block = _run_block(cfg, indices, _measure_reset, probe)
    coords = eff.coords()
    records = []
    for lane, index in enumerate(indices):
        bits, picks, entropies = block.reads[lane], block.picks[lane], block.probes[lane]
        records.append(TrajectoryRecord(
            seed=index,
            z={c: int(b) for c, b in zip(coords, bits[~np.isnan(bits)])},
            m=tuple(picks[picks >= 0].tolist()),
            entropies=tuple(entropies[~np.isnan(entropies)].tolist()),
            chi_max_seen=int(block.psi.peak[lane]),
            trunc_total=float(block.psi.discarded[lane]),
            failed=block.psi.failed.get(lane),
        ))
    return records


def _block_weights(cfg: RunConfig, target: dict, indices) -> np.ndarray:
    """Projection weights of the trajectories in indices, run as the lanes of one state.

    A lane's weight is the product of its projection probabilities in
    readout order. A lane whose projection falls below the floor has
    weight 0; a failed lane (an MpsError, a NaN projection among them) has
    weight NaN.
    """
    block = _run_block(cfg, indices, lambda psi, ev, rng: psi.project_onto(ev.i, target[ev.coord]))
    live = block.psi.lanes
    out = np.zeros(len(indices))
    out[live] = block.reads[live].prod(axis=1)
    out[list(block.psi.failed)] = np.nan
    return out


def estimate_probability(cfg: RunConfig, z_target) -> tuple:
    """Monte Carlo estimate of the noisy output probability of one bitstring.

    Per trajectory, noise events stay Born-sampled while every readout is
    projected onto the target bit; the product of projection probabilities
    is an unbiased per-trajectory estimate. A projection onto a
    zero-probability branch ends that trajectory with contribution 0.
    Returns (mean, standard error) over the non-failed trajectories.

    The trajectories run as the lanes of one MatrixProductState per block
    of _lane_blocks: ceil(K / LANE_BLOCK) blocks whose sizes differ by at
    most 1. Each lane's uniforms are drawn up front from its own stream,
    _trajectory_rng(master_seed, index): n draws at once are the same
    numbers as n single draws, so every lane makes the picks it would make
    alone. The block sizes change only speed and memory, and the results
    at roundoff level. A block of B lanes stores 32 * B * sum_c chi_c *
    chi_c+1 bytes of tensors for the bond dimensions chi_c along the chain,
    at most 2688 bytes a lane on the 6 slots of a square 3x3, where no bond
    exceeds 8; a two-site update's temporaries, the gate and Kraus
    intermediates, LAPACK workspace and each lane's uniform table (8 bytes
    per noise event and per readout) come on top. No probe runs: neither
    the mid-cut entropy nor a reference qubit.
    """
    target = _bits_by_coord(cfg.circuit, z_target)
    weights = np.concatenate([
        _block_weights(cfg, target, b) for b in _lane_blocks(cfg.n_trajectories)
    ])
    arr = np.array(_drop_failed(weights, np.isnan(weights)))
    se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), se


def purification_run(cfg: RunConfig) -> np.ndarray:
    """Mean reference-qubit entropy after each row-step.

    The Bell-pair reference attaches to the middle slot (n_sites // 2)
    before the first row, at the chain's left end, and each slot is
    measured and reset at its readout. Each trajectory runs alone, a
    _run_block of one lane that probes the reference's entropy after every
    row-step, and the series is the mean of those probes over the
    trajectories that did not fail, summed in index order. Running them
    as the lanes of one block would be faster and give the same series to
    roundoff; it is left for when the benchmark's tau check tolerates the
    command seeds a faster sweep reaches.
    """
    blocks = [
        _run_block(
            cfg, range(i, i + 1), _measure_reset, MatrixProductState.reference_entropy,
            reference=True,
        )
        for i in range(cfg.n_trajectories)
    ]
    series = _drop_failed([b.probes[0] for b in blocks], [bool(b.psi.failed) for b in blocks])
    acc = np.zeros(len(series[0]))
    for s in series:
        acc += s
    return acc / len(series)
