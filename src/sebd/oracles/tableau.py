"""Stabilizer tableau simulator for Clifford circuits.

Bit-packed CHP-style tableau (destabilizer + stabilizer generator rows with
phase exponents mod 4).  Arbitrary Clifford unitaries are admitted by
decomposing them into H/S/CNOT sequences, matched up to global phase in
sebd.gates.clifford_table: the one breadth-first enumeration of the one-
and two-qubit Clifford groups, which also gives the circuits' CLIFFORD_1Q.
The two-qubit table is built on the first two-qubit gate. A gate with no
match raises, which is how non-Clifford input is detected.

Depolarizing noise enters per trajectory as the erasure unraveling: with
probability 4*eps/3 measure Z, discard the outcome, and apply X with
probability 1/2 (averaging to the trace channel).  Dephasing enters as a
projective Z measurement with probability 2*eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from ..gates import canon_key, clifford_table
from ..lightcone import Circuit2D

__all__ = [
    "TableauError",
    "Tableau",
    "TableauRun",
    "clifford_sequence",
    "tableau_evolve",
]

LN2 = log(2.0)


class TableauError(ValueError):
    pass


def clifford_sequence(m: np.ndarray) -> tuple:
    """H/S/CNOT realization of a Clifford unitary, up to global phase."""
    m = np.asarray(m, dtype=complex)
    n_qubits = {(2, 2): 1, (4, 4): 2}.get(m.shape)
    if n_qubits is None:
        raise TableauError("only 1- and 2-qubit gates are supported")
    hit = clifford_table(n_qubits).get(canon_key(m))
    if hit is None:
        raise TableauError("gate is not Clifford")
    return hit[1]


# ---------------------------------------------------------------------------
# tableau core


def _phase_sum(a, b, c, d):
    """The rowsum phase rule: summed over qubits, the exponent of i (+1 for
    XY, YZ, ZX, -1 for the reverse) that the product of the Pauli with
    x, z bits (a, b) and the one with bits (c, d), in that order, picks
    up. (c, d) may stack rows on a leading axis; the sum runs over the last
    (word) axis."""
    na, nb = ~a, ~b
    plus = (a & b & d & ~c) | (a & nb & c & d) | (na & b & c & ~d)
    minus = (a & b & c & ~d) | (a & nb & ~c & d) | (na & b & c & d)
    pc = np.bitwise_count(plus).sum(axis=-1).astype(np.int64)
    mc = np.bitwise_count(minus).sum(axis=-1).astype(np.int64)
    return pc - mc


class Tableau:
    """n destabilizer rows followed by n stabilizer rows.

    Row k represents i^phase[k] * prod_j X_j^{x_kj} Z_j^{z_kj}; bits are
    packed 64 per uint64 word.  Valid rows always carry an even phase
    exponent.
    """

    def __init__(self, n: int):
        if n < 1:
            raise TableauError("need at least one qubit")
        self.n = n
        self.words = (n + 63) // 64
        self.X = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.Z = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.phase = np.zeros(2 * n, dtype=np.uint8)
        for a in range(n):
            w, b = divmod(a, 64)
            self.X[a, w] = np.uint64(1) << np.uint64(b)
            self.Z[n + a, w] = np.uint64(1) << np.uint64(b)

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.words = self.words
        t.X = self.X.copy()
        t.Z = self.Z.copy()
        t.phase = self.phase.copy()
        return t

    # -- column helpers ---------------------------------------------------

    def _col(self, mat: np.ndarray, a: int) -> np.ndarray:
        w, b = divmod(a, 64)
        return ((mat[:, w] >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)

    def _flip(self, mat: np.ndarray, a: int, where: np.ndarray):
        w, b = divmod(a, 64)
        mat[:, w] ^= where.astype(np.uint64) << np.uint64(b)

    # -- elementary gates -------------------------------------------------

    def h(self, a: int):
        xa = self._col(self.X, a)
        za = self._col(self.Z, a)
        self.phase = (self.phase + 2 * (xa & za)) % 4
        diff = xa ^ za
        self._flip(self.X, a, diff)
        self._flip(self.Z, a, diff)

    def s(self, a: int):
        xa = self._col(self.X, a)
        za = self._col(self.Z, a)
        self.phase = (self.phase + 2 * (xa & za)) % 4
        self._flip(self.Z, a, xa)

    def cnot(self, a: int, b: int):
        xa = self._col(self.X, a)
        za = self._col(self.Z, a)
        xb = self._col(self.X, b)
        zb = self._col(self.Z, b)
        self.phase = (self.phase + 2 * (xa & zb & (xb ^ za ^ 1))) % 4
        self._flip(self.X, b, xa)
        self._flip(self.Z, a, zb)

    def pauli_x(self, a: int):
        za = self._col(self.Z, a)
        self.phase = (self.phase + 2 * za) % 4

    def apply_unitary(self, m: np.ndarray, sites) -> None:
        sites = tuple(sites)
        for step in clifford_sequence(m):
            if step[0] == "H":
                self.h(sites[step[1]])
            elif step[0] == "S":
                self.s(sites[step[1]])
            else:
                self.cnot(sites[step[1]], sites[step[2]])

    # -- row products -----------------------------------------------------

    def _mult_rows(self, targets: np.ndarray, src: int):
        g = _phase_sum(self.X[src], self.Z[src], self.X[targets], self.Z[targets])
        self.phase[targets] = (self.phase[targets] + self.phase[src] + g) % 4
        self.X[targets] ^= self.X[src]
        self.Z[targets] ^= self.Z[src]

    # -- measurement ------------------------------------------------------

    def measure(self, a: int, rng, force: int | None = None):
        """Z measurement on qubit a.

        Returns (outcome, likelihood): likelihood is the Born probability of
        the returned outcome (1/2 for a random result, 1 or 0 for a
        deterministic one).  ``force`` fixes the recorded outcome; a forced
        outcome contradicting a deterministic stabilizer yields
        likelihood 0 with the state left at the deterministic branch.
        """
        n = self.n
        xcol = self._col(self.X, a)
        stab = np.nonzero(xcol[n:])[0]
        if len(stab):
            p = n + int(stab[0])
            others = np.nonzero(xcol)[0]
            others = others[others != p]
            if len(others):
                self._mult_rows(others, p)
            self.X[p - n] = self.X[p]
            self.Z[p - n] = self.Z[p]
            self.phase[p - n] = self.phase[p]
            if force is None:
                outcome = int(rng.integers(2))
            else:
                outcome = int(force)
            w, b = divmod(a, 64)
            self.X[p] = 0
            self.Z[p] = 0
            self.Z[p, w] = np.uint64(1) << np.uint64(b)
            self.phase[p] = 2 * outcome
            return outcome, 0.5
        # deterministic: accumulate the product of stabilizers flagged by
        # the destabilizer x bits into a scratch row
        xs = np.zeros(self.words, dtype=np.uint64)
        zs = np.zeros(self.words, dtype=np.uint64)
        ph = 0
        for i in np.nonzero(xcol[:n])[0]:
            src = n + int(i)
            c, d = self.X[src], self.Z[src]
            ph += int(_phase_sum(xs, zs, c, d)) + int(self.phase[src])
            xs = xs ^ c
            zs = zs ^ d
        outcome = (ph % 4) // 2
        if force is not None and int(force) != outcome:
            return int(force), 0.0
        return outcome, 1.0

    def measure_all(self, rng, force=None) -> tuple:
        """Sequential Z measurement of every qubit; returns (bits, log2 prob)."""
        bits = []
        weight = 0.0
        for a in range(self.n):
            f = None if force is None else force[a]
            out, lik = self.measure(a, rng, force=f)
            bits.append(out)
            if lik == 0.0:
                return tuple(force), -np.inf
            weight += np.log2(lik)
        return tuple(bits), weight

    def affine_z_basis(self):
        """The z distribution as an affine GF(2) map z = c xor B u.

        The measurement cascade's branch structure (which qubits come out
        random) depends only on the x bits, never on recorded outcomes, so
        outcomes are affine in the uniform free bits u.  Extracted by
        rerunning the cascade once per free bit with unit forcing vectors.
        """

        def cascade(unit: int | None):
            t = self.copy()
            bits = np.zeros(self.n, dtype=np.uint8)
            flips = []
            for a in range(self.n):
                xcol = t._col(t.X, a)
                random_branch = bool(xcol[self.n :].any())
                if random_branch:
                    forced = 1 if unit == len(flips) else 0
                    flips.append(a)
                else:
                    forced = None
                out, lik = t.measure(a, rng=None, force=forced)
                if lik == 0.0:
                    raise TableauError("deterministic outcome contradicted")
                bits[a] = out
            return bits, flips

        const, flips = cascade(None)
        basis = np.zeros((self.n, len(flips)), dtype=np.uint8)
        for k in range(len(flips)):
            bits_k, flips_k = cascade(k)
            if flips_k != flips:
                raise TableauError("measurement branch structure not stable")
            basis[:, k] = bits_k ^ const
        return const, basis

    # -- entanglement -----------------------------------------------------

    def _restricted_rank(self, subsystem) -> int:
        cols = list(subsystem)
        rows = []
        for k in range(self.n, 2 * self.n):
            v = 0
            for j, a in enumerate(cols):
                w, b = divmod(a, 64)
                if (int(self.X[k, w]) >> b) & 1:
                    v |= 1 << (2 * j)
                if (int(self.Z[k, w]) >> b) & 1:
                    v |= 1 << (2 * j + 1)
            rows.append(v)
        rank = 0
        for _ in range(len(rows)):
            rows = [r for r in rows if r]
            if not rows:
                break
            pivot = rows[0]
            low = pivot & -pivot
            rank += 1
            rows = [r ^ pivot if r & low else r for r in rows[1:]]
        return rank

    def entropy(self, subsystem) -> float:
        """Entanglement entropy of a site subset in nats (all Renyi orders
        coincide for stabilizer states)."""
        subsystem = sorted(set(subsystem))
        if not all(0 <= a < self.n for a in subsystem):
            raise TableauError("subsystem out of range")
        if not subsystem or len(subsystem) == self.n:
            return 0.0
        return (self._restricted_rank(subsystem) - len(subsystem)) * LN2

    def check_symplectic(self) -> bool:
        """Generators pairwise commute/anticommute as the canonical pairs do."""
        n = self.n
        x, z = self.X, self.Z
        sym = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        for k in range(2 * n):
            dot1 = np.bitwise_count(x[k] & z).sum(axis=1)
            dot2 = np.bitwise_count(z[k] & x).sum(axis=1)
            sym[k] = (dot1 + dot2) % 2
        want = np.zeros_like(sym)
        for a in range(n):
            want[a, n + a] = 1
            want[n + a, a] = 1
        return bool(np.array_equal(sym, want))


# ---------------------------------------------------------------------------
# circuit driver


@dataclass(eq=False)
class TableauRun:
    tableau: Tableau
    rng: np.random.Generator
    noise_events: int

    def sample(self) -> tuple:
        bits, _ = self.tableau.copy().measure_all(self.rng)
        return bits

    def sample_many(self, n_samples: int) -> np.ndarray:
        """(n_samples, n) array of z outcomes via the affine GF(2) form."""
        const, basis = self.tableau.affine_z_basis()
        u = self.rng.integers(0, 2, size=(n_samples, basis.shape[1]), dtype=np.uint8)
        return (u @ basis.T + const) % 2

    def probability_log2(self, bits) -> float:
        _, w = self.tableau.copy().measure_all(self.rng, force=tuple(bits))
        return w


def _noise_step(tab: Tableau, site: int, unraveling: str, epsilon: float, rng) -> int:
    if unraveling == "erasure":
        if rng.random() < 4.0 * epsilon / 3.0:
            tab.measure(site, rng)
            if rng.random() < 0.5:
                tab.pauli_x(site)
            return 1
        return 0
    if rng.random() < 2.0 * epsilon:
        tab.measure(site, rng)
        return 1
    return 0


def tableau_evolve(circuit: Circuit2D, unraveling: str, seed: int) -> TableauRun:
    """Run one stabilizer trajectory of a 2D Clifford circuit.

    ``erasure`` unravels depolarizing noise; ``projective-z`` unravels
    dephasing.  The returned handle exposes sampling and entropy queries.
    """
    if unraveling not in ("erasure", "projective-z"):
        raise TableauError(f"unknown unraveling {unraveling!r}")
    noise = circuit.noise
    if noise is not None:
        wanted = "depolarizing" if unraveling == "erasure" else "dephasing"
        if noise.kind != wanted:
            raise TableauError(f"{unraveling} unraveling needs {wanted} noise")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    tab = Tableau(circuit.lattice.n_sites)
    events = 0
    for lg in circuit.layers:
        for s, g in enumerate(lg.rotations):
            tab.apply_unitary(g, (s,))
        for a, b, m in lg.gates:
            tab.apply_unitary(m, (a, b))
        if noise is not None and noise.epsilon > 0:
            for s in range(tab.n):
                events += _noise_step(tab, s, unraveling, noise.epsilon, rng)
    return TableauRun(tab, rng, events)
