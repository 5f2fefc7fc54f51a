"""2D lattices, random shallow circuits, and their 1D lightcone compilation.

A shallow noisy circuit on a 2D lattice is measured all at once at the end,
but any single output row only depends on the events inside its past
lightcone.  Sweeping the readout row across the lattice therefore turns the
2D circuit into a 1D monitored circuit on a narrow strip of "slots": emit
the not-yet-emitted cone of each row, measure the row, and recycle its
slots for later rows.  This module builds the lattices and circuit
instances and performs that compilation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausSet, NoiseModel
from .gates import CLIFFORD_1Q, ROTATION_SET, SWAP, fsim, iswap

__all__ = [
    "LatticeError",
    "CompileError",
    "Lattice2D",
    "Circuit2D",
    "LayerGates",
    "Gate",
    "Noise",
    "MeasureReset",
    "EffectiveCircuit1D",
    "build_lattice",
    "random_instance",
    "compile_sebd",
    "fsim",
    "iswap",
]

FSIM_THETA = np.pi / 2
FSIM_PHI = np.pi / 6
LAYER_LABELS = "ABCD"
GATE_FAMILIES = ("fsim", "iswap", "clifford-iswap-swap")


class LatticeError(ValueError):
    pass


class CompileError(ValueError):
    pass


def _check_unitary(m: np.ndarray, dim: int, what: str) -> np.ndarray:
    """m as a complex dim x dim array, if it is unitary to 1e-12."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise CompileError(f"{what} must be {dim}x{dim}")
    if np.max(np.abs(m.conj().T @ m - np.eye(dim))) > 1e-12:
        raise CompileError(f"{what} is not unitary")
    return m


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class Lattice2D:
    """Sites in scan order (sorted by (y, x)) plus layer-labelled bonds.

    Coordinates are zero-based throughout.  ``bonds`` holds
    (site index, site index, label) triples; within one label the bonds
    form a matching.
    """

    kind: str
    L_x: int
    L_y: int
    sites: tuple
    bonds: tuple

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def layer_bonds(self, label: str) -> list:
        return [(a, b) for a, b, l in self.bonds if l == label]


def _square_lattice(L_x: int, L_y: int) -> Lattice2D:
    sites = [(x, y) for y in range(L_y) for x in range(L_x)]
    index = {c: i for i, c in enumerate(sites)}
    bonds = []
    # sheared square array: rows couple only upward, with x-offsets
    # {0,-1} below even rows and {-1,-2} below odd rows
    for (x, y) in sites:
        if y + 1 >= L_y:
            continue
        if y % 2 == 0:
            pairs = ((0, "A"), (-1, "B"))
        else:
            pairs = ((-1, "C"), (-2, "D"))
        for dx, label in pairs:
            other = (x + dx, y + 1)
            if other in index:
                bonds.append((index[(x, y)], index[other], label))
    return Lattice2D("square", L_x, L_y, tuple(sites), tuple(bonds))


def _heavy_hex_lattice(L: int) -> Lattice2D:
    # linear size L = 4k+3; long rows of sites at even y interleaved with
    # sparse bridge rows at odd y, bridge x alternating between the
    # 0 mod 4 and 2 mod 4 columns from one bridge row to the next
    k = (L - 3) // 4
    n_rows = 4 * k + 1
    sites = []
    for y in range(n_rows):
        if y % 2 == 0:
            lo = 1 if y == n_rows - 1 else 0
            hi = L - 2 if y == 0 else L - 1
            sites.extend((x, y) for x in range(lo, hi + 1))
        else:
            residue = 0 if y % 4 == 1 else 2
            sites.extend((x, y) for x in range(L) if x % 4 == residue)
    sites.sort(key=lambda c: (c[1], c[0]))
    index = {c: i for i, c in enumerate(sites)}
    bonds = []
    for (x, y) in sites:
        if y % 2 == 0:
            if (x + 1, y) in index:
                label = "A" if x % 2 == 0 else "B"
                bonds.append((index[(x, y)], index[(x + 1, y)], label))
        else:
            for dy, label in ((-1, "C"), (1, "D")):
                other = (x, y + dy)
                if other not in index:
                    raise LatticeError(f"bridge at {(x, y)} misses row site {other}")
                if dy < 0:
                    bonds.append((index[other], index[(x, y)], label))
                else:
                    bonds.append((index[(x, y)], index[other], label))
    return Lattice2D("heavy-hex", L, n_rows, tuple(sites), tuple(bonds))


def build_lattice(kind: str, L_x: int, L_y: int | None = None) -> Lattice2D:
    """Construct a named lattice; heavy-hex derives its row count from L_x."""
    if kind == "square":
        if L_y is None or L_x < 2 or L_y < 2:
            raise LatticeError("square lattice needs L_x, L_y >= 2")
        lat = _square_lattice(L_x, L_y)
    elif kind == "heavy-hex":
        if L_x < 7 or L_x % 4 != 3:
            raise LatticeError("heavy-hex linear size must be 4k+3 with k >= 1")
        if L_y is not None and L_y != L_x - 2:
            raise LatticeError(f"heavy-hex of size {L_x} has {L_x - 2} rows")
        lat = _heavy_hex_lattice(L_x)
    else:
        raise LatticeError(f"unknown lattice kind {kind!r}")
    for label in LAYER_LABELS:
        seen = set()
        for a, b in lat.layer_bonds(label):
            if a in seen or b in seen:
                raise LatticeError(f"layer {label} is not a matching")
            seen.update((a, b))
    return lat


# ---------------------------------------------------------------------------
# circuit instances


@dataclass(frozen=True, eq=False)
class LayerGates:
    rotations: tuple
    gates: tuple


@dataclass(frozen=True, eq=False)
class Circuit2D:
    """One scheduled layer per character; noise acts on every qubit after
    every layer (idle qubits included), or not at all when noise is None.
    The schedule and gates are checked here, where every circuit enters,
    and gates are stored as complex arrays: the MPS kernels apply them
    unchecked."""

    lattice: Lattice2D
    schedule: str
    layers: tuple
    noise: NoiseModel | None

    def __post_init__(self):
        if not self.schedule:
            raise CompileError("schedule must not be empty")
        bad = set(self.schedule) - set(LAYER_LABELS)
        if bad:
            raise CompileError(f"schedule labels {sorted(bad)} not in {LAYER_LABELS}")
        if len(self.schedule) != len(self.layers):
            raise CompileError("schedule length must match layer count")
        layers = []
        for lg in self.layers:
            if len(lg.rotations) != self.lattice.n_sites:
                raise CompileError("need one rotation per site per layer")
            layers.append(LayerGates(
                tuple(_check_unitary(g, 2, "rotation") for g in lg.rotations),
                tuple((a, b, _check_unitary(m, 4, "two-qubit gate")) for a, b, m in lg.gates),
            ))
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def depth(self) -> int:
        return len(self.schedule)


def random_instance(
    lattice: Lattice2D,
    schedule: str,
    gate_family: str,
    noise: NoiseModel | None,
    seed: int,
) -> Circuit2D:
    """Draw a random circuit instance, deterministic in the seed.

    Families: 'fsim' pairs fSim(pi/2, pi/6) with uniform draws from the
    eight-element rotation set, 'iswap' swaps in iSWAP, and
    'clifford-iswap-swap' uses iSWAP (90%) / SWAP (10%) with uniform
    single-qubit Cliffords.
    """
    if gate_family not in GATE_FAMILIES:
        raise CompileError(f"unknown gate family {gate_family!r}")
    rng = np.random.default_rng(seed)
    clifford = gate_family == "clifford-iswap-swap"
    oneq = CLIFFORD_1Q if clifford else ROTATION_SET
    layers = []
    for label in schedule:
        idx = rng.integers(len(oneq), size=lattice.n_sites)
        rotations = tuple(oneq[i] for i in idx)
        gates = []
        for a, b in lattice.layer_bonds(label):
            if clifford:
                m = iswap() if rng.random() < 0.9 else SWAP
            elif gate_family == "iswap":
                m = iswap()
            else:
                m = fsim(FSIM_THETA, FSIM_PHI)
            gates.append((a, b, m))
        layers.append(LayerGates(rotations, tuple(gates)))
    return Circuit2D(lattice, schedule, tuple(layers), noise)


# ---------------------------------------------------------------------------
# 1D event stream


@dataclass(frozen=True, eq=False)
class Gate:
    """Unitary on slot i (2x2, j is None) or on slots (i, j) (4x4).

    ``kraus`` is the noise channel that follows a two-qubit gate on both of
    its slots, or None. A backend samples it right after the gate, on slot
    i first and then on slot j, so it counts as two noise events; slots
    idle in a layer get their noise as separate Noise events. Backends draw
    random numbers in the order of the event stream, so moving noise
    between events changes what a seed samples.
    """

    i: int
    j: int | None
    matrix: np.ndarray
    kraus: KrausSet | None = None


@dataclass(frozen=True, eq=False)
class Noise:
    i: int
    kraus: KrausSet


@dataclass(frozen=True, eq=False)
class MeasureReset:
    """Readout of slot i producing the output bit at 2D coordinate (x, y)."""

    i: int
    coord: tuple


@dataclass(frozen=True, eq=False)
class EffectiveCircuit1D:
    n_sites: int
    rows: tuple

    def events(self):
        for row in self.rows:
            yield from row

    def coords(self) -> list:
        return [ev.coord for ev in self.events() if isinstance(ev, MeasureReset)]

    def counts(self) -> dict:
        """Events by kind; a noisy gate adds two noise events, one per slot."""
        out = {"gate1": 0, "gate2": 0, "noise": 0, "measure": 0}
        for ev in self.events():
            if isinstance(ev, Gate):
                out["gate1" if ev.j is None else "gate2"] += 1
                if ev.kraus is not None:
                    out["noise"] += 2
            elif isinstance(ev, Noise):
                out["noise"] += 1
            else:
                out["measure"] += 1
        return out


# ---------------------------------------------------------------------------
# compilation


def _cone_rows(circuit: Circuit2D, kraus: KrausSet | None):
    """The strip's events on lattice sites, per output row, in causal order.

    Each layer holds a rotation Gate(s, None, m) on every site, then a
    Gate(a, b, m, kraus) for each two-qubit gate, carrying the layer's noise
    on both of its sites, then a Noise(s, kraus) on each site the layer
    leaves idle (no noise when kraus is None). Readouts go in scan order;
    each site's not-yet-emitted past cone goes out right before its
    MeasureReset(s, coord). Interleaving the measurements with the gates
    this way (rather than measuring a full row at once) is what lets a slot
    freed early in a row be recycled while the row is still being read out,
    keeping the strip at its minimal width.

    Returns one list of (layer, event) pairs per output row, in row order;
    a readout's layer is depth + 1.
    """
    lat = circuit.lattice
    n = lat.n_sites
    events, keys, preds = [], [], []
    tail = [-1] * n

    def add(t, phase, ss, ev):
        preds.append(tuple(tail[s] for s in ss if tail[s] >= 0))
        for s in ss:
            tail[s] = len(events)
        keys.append((t, phase, ss))
        events.append((t, ev))

    for t, lg in enumerate(circuit.layers, start=1):
        for s in range(n):
            add(t, 0, (s,), Gate(s, None, lg.rotations[s]))
        for a, b, m in lg.gates:
            add(t, 1, (a, b), Gate(a, b, m, kraus))
        if kraus is not None:
            for s in range(n):
                if keys[tail[s]][1] == 0:  # the site's last event is its rotation: idle
                    add(t, 2, (s,), Noise(s, kraus))

    done = [False] * len(events)
    rows = {}
    for s, (_, y) in enumerate(lat.sites):  # in scan order, so row by row
        cone = []
        stack = [tail[s]]
        while stack:
            e = stack.pop()
            if e < 0 or done[e]:
                continue
            done[e] = True
            cone.append(e)
            stack.extend(preds[e])
        cone.sort(key=keys.__getitem__)
        row = rows.setdefault(y, [])
        row.extend(events[e] for e in cone)
        row.append((circuit.depth + 1, MeasureReset(s, lat.sites[s])))
    if not all(done):
        raise CompileError("event stream failed to cover the circuit")
    return list(rows.values())


def _site_intervals(events, n: int):
    """First and last flat position at which each lattice site is touched."""
    first = [None] * n
    last = [None] * n
    partners = [[] for _ in range(n)]
    for pos, ev in enumerate(events):
        two = isinstance(ev, Gate) and ev.j is not None
        for s in (ev.i, ev.j) if two else (ev.i,):
            if first[s] is None:
                first[s] = pos
            last[s] = pos
        if two:
            partners[ev.i].append((pos, ev.j))
            partners[ev.j].append((pos, ev.i))
    return first, last, partners


def _map_ok(assign, first, last) -> bool:
    by_slot = {}
    for s, k in enumerate(assign):
        by_slot.setdefault(k, []).append(s)
    for occupants in by_slot.values():
        occupants.sort(key=lambda s: first[s])
        for a, b in zip(occupants, occupants[1:]):
            if last[a] >= first[b]:
                return False
    return True


def _map_score(assign, events):
    """assign relabelled onto slots 0..n_used-1, and its (n_used, gate range)."""
    rank = {k: i for i, k in enumerate(sorted(set(assign)))}
    assign = [rank[k] for k in assign]
    gates = [ev for ev in events if isinstance(ev, Gate) and ev.j is not None]
    r = max((abs(assign[ev.i] - assign[ev.j]) for ev in gates), default=0)
    return assign, (len(rank), r)


def _periodic_slots(lat: Lattice2D, events, first, last):
    """Search strided slot maps; these recycle each slot every W rows."""
    best = None
    for W in (2, 3, 4):
        for r in range(W):
            for fn in (
                lambda x, y: W * x + (y + r) % W,  # W slots per column
                lambda x, y: ((y + r) % W) * lat.L_x + x,  # L_x slots per row
            ):
                assign = [fn(x, y) for x, y in lat.sites]
                if not _map_ok(assign, first, last):
                    continue
                assign, score = _map_score(assign, events)
                if best is None or score < best[1]:
                    best = (assign, score)
    return best


def _dynamic_slots(lat: Lattice2D, events, first, last, partners):
    """Fallback interval allocation: nearest free slot to the earliest
    already-placed gate partner, else the most recently freed slot."""
    order = sorted(range(lat.n_sites), key=lambda s: first[s])
    release = []
    assign = [None] * lat.n_sites
    for s in order:
        free = [k for k in range(len(release)) if release[k] < first[s]]
        target = None
        for _, p in sorted(partners[s]):
            if assign[p] is not None:
                target = assign[p]
                break
        if free:
            if target is not None:
                k = min(free, key=lambda k: (abs(k - target), k))
            else:
                k = max(free, key=lambda k: release[k])
        else:
            k = len(release)
            release.append(-1)
        assign[s] = k
        release[k] = last[s]
    return _map_score(assign, events)


def _on_slots(ev, slot):
    """ev with its lattice sites relabelled to their slots."""
    if isinstance(ev, Gate):
        return Gate(slot[ev.i], None if ev.j is None else slot[ev.j], ev.matrix, ev.kraus)
    if isinstance(ev, Noise):
        return Noise(slot[ev.i], ev.kraus)
    return MeasureReset(slot[ev.i], ev.coord)


def compile_sebd(circuit: Circuit2D, unraveling=None) -> EffectiveCircuit1D:
    """Compile a 2D circuit into the effective 1D monitored circuit.

    ``unraveling`` selects the Kraus form attached to the noise events:
    a form name understood by the circuit's NoiseModel, an explicit
    KrausSet, or None for the model's default form. The events come from
    _cone_rows on lattice sites; slots are chosen from each site's first and
    last touch, and one pass then moves the events onto them.

    The noise on the two sites of a layer's gate rides on that Gate (its
    ``kraus``): nothing touches either site between the gate and its noise,
    so this is the same channel. Only idle sites get a Noise event. The slot
    map is the one a separate noise event per site would give: such an event
    is never a site's first touch (the layer's rotation comes before it) nor
    its last (the readout comes after), and leaving it out keeps the order
    of the other events, so every interval comparison comes out the same.
    """
    lat = circuit.lattice
    kraus = None
    if circuit.noise is not None:
        if isinstance(unraveling, KrausSet):
            kraus = unraveling
        else:
            kraus = circuit.noise.kraus(unraveling)
        if kraus.d != 2:
            raise CompileError("noise unraveling must act on a single qubit")
    elif unraveling is not None:
        raise CompileError("unraveling given but the circuit is noiseless")

    rows = _cone_rows(circuit, kraus)
    events = [ev for row in rows for _, ev in row]
    first, last, partners = _site_intervals(events, lat.n_sites)
    chosen = _periodic_slots(lat, events, first, last)
    if chosen is None:
        chosen = _dynamic_slots(lat, events, first, last, partners)
    slot, (n_used, _) = chosen
    return EffectiveCircuit1D(
        n_sites=n_used, rows=tuple(tuple(_on_slots(ev, slot) for _, ev in row) for row in rows)
    )
