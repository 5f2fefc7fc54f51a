"""Matrix-product-operator density-matrix oracle.

Evolves the full mixed state as a chain of rank-4 tensors (bond, ket,
bra, bond). Gates act on ket and bra indices, channels as single-site
superoperators, so no trajectory sampling is involved; readout events
project onto a fixed bit and the surviving trace is the probability of the
recorded bitstring.

Shares only the TruncationPolicy dataclass and its TruncationOverflow
error with the MPS trajectory backend. The tensor routines are written separately on purpose: agreement
between the two is used as evidence of correctness, which would be
circular if they shared contraction code.

Positivity is not enforced structurally; a contracted probability below
-1e-10 raises instead.
"""

from __future__ import annotations

import numpy as np

from ..lightcone import Circuit2D, EffectiveCircuit1D, Gate, MeasureReset, Noise
from ..mps import TruncationOverflow, TruncationPolicy

__all__ = [
    "MpoError",
    "MPODensity",
    "ORACLE_POLICY",
    "mpo_evolve",
]

PROB_TOL = 1e-10
NULL_FLOOR = 1e-280

ORACLE_POLICY = TruncationPolicy(chi_max=2048, svd_cutoff=1e-12)


def _svd(mat: np.ndarray):
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier
        import scipy.linalg  # lazy: importing sebd loads no scipy

        return scipy.linalg.svd(mat, full_matrices=False, lapack_driver="gesvd")


class MpoError(ValueError):
    """Invalid operation on a matrix product operator."""


class MPODensity:
    """Open-boundary MPO over qubits; tensors are (left, ket, bra, right).

    ``log_weight`` is a scalar prefactor in natural log, pulled out when the
    trace is renormalized, so streamed readout probabilities never underflow
    the tensors themselves. ``trunc_log`` accumulates the relative Frobenius
    weight discarded by truncations.
    """

    def __init__(self, tensors: list[np.ndarray], log_weight: float = 0.0):
        if not tensors:
            raise MpoError("empty tensor list")
        self.tensors = tensors
        self.log_weight = log_weight
        self.trunc_log = 0.0

    @classmethod
    def product_pure(cls, n: int, bits=None) -> "MPODensity":
        if n <= 0:
            raise MpoError("need at least one site")
        if bits is None:
            bits = [0] * n
        tensors = []
        for b in bits:
            t = np.zeros((1, 2, 2, 1), dtype=complex)
            t[0, int(b), int(b), 0] = 1.0
            tensors.append(t)
        return cls(tensors)

    @classmethod
    def maximally_mixed(cls, n: int) -> "MPODensity":
        if n <= 0:
            raise MpoError("need at least one site")
        t = (np.eye(2, dtype=complex) / 2.0).reshape(1, 2, 2, 1)
        return cls([t.copy() for _ in range(n)])

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    def bond_dims(self) -> list[int]:
        return [t.shape[0] for t in self.tensors] + [self.tensors[-1].shape[3]]

    def max_bond(self) -> int:
        return max(self.bond_dims())

    # -- contractions ------------------------------------------------------

    def trace(self) -> float:
        env = np.ones((1,), dtype=complex)
        for t in self.tensors:
            env = env @ np.einsum("lssr->lr", t)
        val = env[0] * np.exp(self.log_weight)
        if abs(val.imag) > 1e-8 * max(abs(val.real), 1.0):
            raise MpoError(f"trace has imaginary part {val.imag}")
        return float(val.real)

    def probability(self, bits) -> float:
        """⟨z|rho|z⟩ including the scalar prefactor."""
        bits = [int(b) for b in bits]
        if len(bits) != self.n_sites:
            raise MpoError(f"need {self.n_sites} bits, got {len(bits)}")
        env = np.ones((1,), dtype=complex)
        for t, b in zip(self.tensors, bits):
            env = env @ t[:, b, b, :]
        val = float((env[0] * np.exp(self.log_weight)).real)
        if val < -PROB_TOL:
            raise MpoError(f"negative probability {val} beyond tolerance")
        return max(val, 0.0)

    def to_dense(self) -> np.ndarray:
        if self.n_sites > 10:
            raise MpoError("dense reconstruction capped at 10 sites")
        acc = np.ones((1, 1, 1), dtype=complex)  # (ket, bra, bond)
        for t in self.tensors:
            acc = np.einsum("abl,lkcr->akbcr", acc, t)
            k = acc.shape[0] * acc.shape[1]
            b = acc.shape[2] * acc.shape[3]
            acc = acc.reshape(k, b, acc.shape[4])
        return acc[:, :, 0] * np.exp(self.log_weight)

    def hermiticity_defect(self) -> float:
        m = self.to_dense()
        return float(np.max(np.abs(m - m.conj().T)))

    # -- local operations --------------------------------------------------

    def apply_1q(self, site: int, g: np.ndarray):
        g = np.asarray(g, dtype=complex)
        t = self.tensors[site]
        t = np.einsum("ks,lsbr->lkbr", g, t)
        t = np.einsum("cb,lkbr->lkcr", g.conj(), t)
        self.tensors[site] = t

    def apply_channel(self, site: int, kraus):
        t = self.tensors[site]
        acc = np.zeros_like(t)
        for m in kraus.ops:
            branch = np.einsum("ks,lsbr->lkbr", m, t)
            acc += np.einsum("cb,lkbr->lkcr", np.conj(m), branch)
        self.tensors[site] = acc

    def project_reset(self, site: int, bit: int):
        t = self.tensors[site]
        new = np.zeros((t.shape[0], 2, 2, t.shape[3]), dtype=complex)
        new[:, 0, 0, :] = t[:, bit, bit, :]
        self.tensors[site] = new

    def apply_2q(self, i: int, j: int, g: np.ndarray, policy: TruncationPolicy = ORACLE_POLICY):
        if i == j:
            raise MpoError("two-qubit gate needs distinct sites")
        g = np.asarray(g, dtype=complex)
        if j < i:
            perm = g.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            return self.apply_2q(j, i, perm, policy)
        for k in range(j, i + 1, -1):
            self._swap_adjacent(k - 1, policy)
        self._gate_adjacent(i, g, policy)
        for k in range(i + 1, j):
            self._swap_adjacent(k, policy)

    # -- two-site updates --------------------------------------------------

    def _theta(self, pos: int) -> np.ndarray:
        # (l, k1, b1, k2, b2, r)
        return np.tensordot(self.tensors[pos], self.tensors[pos + 1], axes=(3, 0))

    def _split(self, pos: int, theta: np.ndarray, policy: TruncationPolicy):
        l, _, _, _, _, r = theta.shape
        u, s, vh = _svd(theta.reshape(l * 4, 4 * r))
        keep = self._select_rank(s, policy)
        total = float(np.sum(s**2))
        if total > 0.0:
            self.trunc_log += float(np.sum(s[keep:] ** 2)) / total
        self.tensors[pos] = u[:, :keep].reshape(l, 2, 2, keep)
        self.tensors[pos + 1] = (s[:keep, None] * vh[:keep]).reshape(keep, 2, 2, r)

    @staticmethod
    def _select_rank(s: np.ndarray, policy: TruncationPolicy) -> int:
        if s[0] <= 0.0:
            return 1
        want = int(np.sum(s / s[0] >= policy.svd_cutoff)) or 1
        if policy.hard_fail_chi is not None and want > policy.hard_fail_chi:
            raise TruncationOverflow(
                f"needed bond {want} exceeds hard_fail_chi={policy.hard_fail_chi}"
            )
        return min(want, policy.chi_max)

    def _gate_adjacent(self, pos: int, g: np.ndarray, policy: TruncationPolicy):
        theta = self._theta(pos)
        gk = g.reshape(2, 2, 2, 2)
        theta = np.einsum("KVkv,lkbvcr->lKbVcr", gk, theta, optimize=True)
        theta = np.einsum("BCbc,lKbVcr->lKBVCr", gk.conj(), theta, optimize=True)
        self._split(pos, theta, policy)

    def _swap_adjacent(self, pos: int, policy: TruncationPolicy):
        theta = self._theta(pos).transpose(0, 3, 4, 1, 2, 5)
        self._split(pos, theta, policy)

    # -- conditioning ------------------------------------------------------

    def canonize(self):
        """Left-to-right QR sweep in the Frobenius gauge.

        Channel applications are not isometries on the fused ket/bra index,
        so the gauge drifts; sweeping before a batch of two-site splits keeps
        the local truncations near-optimal.
        """
        for pos in range(self.n_sites - 1):
            t = self.tensors[pos]
            l, _, _, r = t.shape
            q, rm = np.linalg.qr(t.reshape(l * 4, r))
            self.tensors[pos] = q.reshape(l, 2, 2, -1)
            self.tensors[pos + 1] = np.tensordot(rm, self.tensors[pos + 1], axes=(1, 0))

    def renormalize_trace(self) -> float:
        """Rescale to trace 1, folding the factor into log_weight.

        Returns the pre-scaling trace. A vanishing trace leaves a null
        state with log_weight = -inf (probability zero branch).
        """
        t = self.trace()
        if t <= NULL_FLOOR:
            self.log_weight = -np.inf
            for k in range(self.n_sites):
                self.tensors[k] = np.zeros((1, 2, 2, 1), dtype=complex)
                self.tensors[k][0, 0, 0, 0] = 1.0
            return 0.0
        bare = t / np.exp(self.log_weight)
        self.tensors[0] = self.tensors[0] / bare
        self.log_weight = 0.0
        return t


# ---------------------------------------------------------------------------
# drivers


def _evolve_2d(circuit: Circuit2D, policy: TruncationPolicy) -> MPODensity:
    n = circuit.lattice.n_sites
    kraus = None if circuit.noise is None else circuit.noise.kraus()
    rho = MPODensity.product_pure(n)
    for lg in circuit.layers:
        for s, g in enumerate(lg.rotations):
            rho.apply_1q(s, g)
        rho.canonize()
        for a, b, m in lg.gates:
            rho.apply_2q(a, b, m, policy)
        if kraus is not None:
            for s in range(n):
                rho.apply_channel(s, kraus)
    rho.renormalize_trace()
    return rho


def _coerce_bits(eff: EffectiveCircuit1D, z) -> dict:
    coords = eff.coords()
    if isinstance(z, dict):
        missing = [c for c in coords if c not in z]
        if missing:
            raise MpoError(f"bitstring missing coordinates {missing[:4]}")
        return {c: int(z[c]) for c in coords}
    bits = [int(b) for b in z]
    if len(bits) != len(coords):
        raise MpoError(f"need {len(coords)} bits, got {len(bits)}")
    return dict(zip(coords, bits))


def _evolve_1d(eff: EffectiveCircuit1D, policy: TruncationPolicy, z) -> MPODensity:
    if z is None:
        raise MpoError("streaming a 1D effective circuit needs a target bitstring")
    zmap = _coerce_bits(eff, z)
    rho = MPODensity.product_pure(eff.n_sites)
    log_prob = 0.0
    for row in eff.rows:
        rho.canonize()
        for ev in row:
            if isinstance(ev, Gate):
                if ev.j is None:
                    rho.apply_1q(ev.i, ev.matrix)
                else:
                    rho.apply_2q(ev.i, ev.j, ev.matrix, policy)
                    if ev.kraus is not None:
                        rho.apply_channel(ev.i, ev.kraus)
                        rho.apply_channel(ev.j, ev.kraus)
            elif isinstance(ev, Noise):
                rho.apply_channel(ev.i, ev.kraus)
            elif isinstance(ev, MeasureReset):
                rho.project_reset(ev.i, zmap[ev.coord])
            else:
                raise MpoError(f"unknown event {ev!r}")
        t = rho.renormalize_trace()
        if t == 0.0:
            return rho
        log_prob += np.log(t)
    rho.log_weight = log_prob
    return rho


def mpo_evolve(circuit, policy: TruncationPolicy = ORACLE_POLICY, z=None) -> MPODensity:
    """Exact-channel MPO evolution.

    For a Circuit2D: evolves all layers over the lattice sites in scan
    order and returns the final normalized state (z must be None). Each
    channel is summed over the Kraus branches of its family's default form;
    an exact channel evolution does not depend on the unraveling.

    For an EffectiveCircuit1D: streams the compiled event list with each
    readout projected onto the bit that `z` assigns to its 2D coordinate
    (dict keyed by (x, y), or a flat sequence in scan order). The returned
    state's trace() is the probability of that bitstring.
    """
    if isinstance(circuit, Circuit2D):
        if z is not None:
            raise MpoError("bitstring targets only apply to 1D effective circuits")
        return _evolve_2d(circuit, policy)
    if isinstance(circuit, EffectiveCircuit1D):
        return _evolve_1d(circuit, policy, z)
    raise MpoError(f"cannot evolve {type(circuit).__name__}")
