"""Dense state-vector and density-matrix reference simulators.

DenseVector mirrors the MatrixProductState operation set, consuming the rng
in exactly the same pattern (one draw per stochastic event, identical
cumulative comparisons), so a shared seed drives byte-identical trajectories
through both backends. DenseDensity evolves the full mixed state
deterministically; its traces give exact outcome probabilities.
"""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-14
DENSE_MAX_QUBITS = 8  # largest circuit dense_evolve takes: its density matrix has 4^n entries
_E0 = np.array([1.0, 0.0], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class DenseVector:
    """State vector on up to ~14 qubits, stored as a (2,)*n amplitude tensor."""

    def __init__(self, n: int, bits=None):
        if n <= 0:
            raise ValueError("need at least one site")
        if bits is None:
            bits = [0] * n
        bits = tuple(int(b) for b in bits)
        psi = np.zeros((2,) * n, dtype=complex)
        psi[bits] = 1.0
        self.psi = psi
        self._ref: int | None = None

    @property
    def n_sites(self) -> int:
        return self.psi.ndim - (1 if self._ref is not None else 0)

    def _int(self, site: int) -> int:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range")
        if self._ref is not None and site >= self._ref:
            return site + 1
        return site

    def _apply_axis(self, mat: np.ndarray, axes: tuple[int, ...]):
        k = len(axes)
        op = np.asarray(mat, dtype=complex).reshape((2,) * (2 * k))
        self.psi = np.tensordot(op, self.psi, axes=(tuple(range(k, 2 * k)), axes))
        self.psi = np.moveaxis(self.psi, tuple(range(k)), axes)

    def apply_1q(self, site: int, g: np.ndarray):
        self._apply_axis(g, (self._int(site),))

    def apply_2q(self, i: int, j: int, g: np.ndarray, kraus=None, rng=None):
        """Gate on (i, j); with kraus, then sample it on i and on j (indices returned)."""
        if i == j:
            raise ValueError("distinct sites required")
        self._apply_axis(g, (self._int(i), self._int(j)))
        if kraus is not None:
            return self.apply_kraus(i, kraus, rng), self.apply_kraus(j, kraus, rng)
        return None

    def apply_kraus(self, site: int, kraus, rng) -> int:
        ax = self._int(site)
        branches = []
        probs = []
        for m in kraus.ops:
            b = np.tensordot(np.asarray(m, dtype=complex), self.psi, axes=((1,), (ax,)))
            b = np.moveaxis(b, 0, ax)
            branches.append(b)
            probs.append(float(np.vdot(b, b).real))
        total = sum(probs)
        if total < PROB_FLOOR:
            raise ValueError("all Kraus outcomes numerically degenerate")
        u = rng.random()
        acc = 0.0
        pick = len(probs) - 1
        for idx, p in enumerate(probs):
            acc += p
            if u < acc:
                pick = idx
                break
        self.psi = branches[pick] / np.sqrt(probs[pick])
        return pick

    def _slice(self, ax: int, bit: int) -> np.ndarray:
        return np.take(self.psi, bit, axis=ax)

    def measure_reset(self, site: int, rng) -> int:
        ax = self._int(site)
        s0 = self._slice(ax, 0)
        p0 = float(np.vdot(s0, s0).real)
        bit = 0 if rng.random() < p0 else 1
        p = p0 if bit == 0 else 1.0 - p0
        if p < PROB_FLOOR:
            raise ValueError("measurement hit a numerically null branch")
        self._project_reset(ax, bit, p)
        return bit

    def project_onto(self, site: int, bit: int) -> float:
        ax = self._int(site)
        s = self._slice(ax, bit)
        p = float(np.vdot(s, s).real)
        if p < PROB_FLOOR:
            raise ValueError(f"projection probability {p} below floor")
        self._project_reset(ax, bit, p)
        return p

    def _project_reset(self, ax: int, bit: int, p: float):
        kept = np.take(self.psi, bit, axis=ax) / np.sqrt(p)
        out = np.zeros_like(self.psi)
        sel = [slice(None)] * self.psi.ndim
        sel[ax] = 0
        out[tuple(sel)] = kept
        self.psi = out

    def renyi_entropy(self, cut: int, n: float = 1.0) -> float:
        if self._ref is not None and self._ref <= cut:
            cut = cut + 1
        mat = self.psi.reshape(1 << cut, -1)
        lam = np.linalg.svd(mat, compute_uv=False)
        lam2 = lam**2
        return _spectrum_entropy(lam2 / lam2.sum(), n)

    def subsystem_renyi(self, sites, n: float = 1.0) -> float:
        axes = tuple(self._int(s) for s in sorted(set(sites)))
        rest = tuple(a for a in range(self.psi.ndim) if a not in axes)
        mat = np.transpose(self.psi, axes + rest).reshape(1 << len(axes), -1)
        rho = mat @ mat.conj().T
        evals = np.clip(np.linalg.eigvalsh(rho).real, 0.0, None)
        return _spectrum_entropy(evals / evals.sum(), n)

    def attach_reference(self, site: int) -> None:
        """Mirror of the MPS Bell-pair attach: insert |0>, then H and CNOT."""
        if self._ref is not None:
            raise ValueError("reference already attached")
        ax = self._int(site)
        self.psi = np.moveaxis(np.tensordot(self.psi, _E0, axes=0), -1, ax + 1)
        self._ref = ax + 1
        # partner index unchanged: it sits left of the new axis
        self._apply_axis(_H, (ax,))
        self._apply_axis(_CNOT, (ax, ax + 1))

    def reference_entropy(self) -> float:
        if self._ref is None:
            raise ValueError("no reference attached")
        ax = self._ref
        rest = tuple(a for a in range(self.psi.ndim) if a != ax)
        mat = np.transpose(self.psi, (ax,) + rest).reshape(2, -1)
        rho = mat @ mat.conj().T
        evals = np.clip(np.linalg.eigvalsh(rho).real, 0.0, None)
        return _spectrum_entropy(evals / evals.sum(), 1.0)

    def to_dense(self) -> np.ndarray:
        return self.psi

    def amplitude(self, bits) -> complex:
        if self._ref is not None:
            raise ValueError("amplitude undefined with a reference attached")
        return complex(self.psi[tuple(int(b) for b in bits)])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.psi.ravel()) ** 2


class DenseDensity:
    """Exact density-matrix evolution on up to ~8 qubits (deterministic)."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("need at least one site")
        self.n = n
        dim = 1 << n
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        self.rho = rho

    def _full(self, mat: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
        k = len(sites)
        op = np.asarray(mat, dtype=complex).reshape((2,) * (2 * k))
        full = np.eye(1 << self.n, dtype=complex).reshape((2,) * (2 * self.n))
        # contract the operator onto the chosen row axes of the identity
        full = np.tensordot(op, full, axes=(tuple(range(k, 2 * k)), sites))
        full = np.moveaxis(full, tuple(range(k)), sites)
        return full.reshape(1 << self.n, 1 << self.n)

    def apply_1q(self, site: int, g: np.ndarray):
        u = self._full(g, (site,))
        self.rho = u @ self.rho @ u.conj().T

    def apply_2q(self, i: int, j: int, g: np.ndarray):
        u = self._full(g, (i, j))
        self.rho = u @ self.rho @ u.conj().T

    def apply_channel(self, site: int, kraus):
        acc = np.zeros_like(self.rho)
        for m in kraus.ops:
            f = self._full(m, (site,))
            acc += f @ self.rho @ f.conj().T
        self.rho = acc

    def probability(self, bits) -> float:
        idx = 0
        for b in bits:
            idx = (idx << 1) | int(b)
        return float(self.rho[idx, idx].real)

    def diagonal(self) -> np.ndarray:
        return np.diag(self.rho).real.copy()


def _spectrum_entropy(p: np.ndarray, n: float) -> float:
    p = p[p > 1e-300]
    if abs(n - 1.0) < 1e-12:
        return float(max(-np.sum(p * np.log(p)), 0.0) + 0.0)
    return float(max(np.log(np.sum(p**n)) / (1.0 - n), 0.0) + 0.0)


def dense_evolve(circuit) -> DenseDensity:
    """Exact mixed-state evolution of a small 2D circuit.

    Applies every layer (rotations, bond gates, then the noise channel on
    each site) and returns the final density matrix. The channel acts as a
    sum over the Kraus branches of its family's default form; the result
    does not depend on the unraveling, so no other form is offered.
    """
    n = circuit.lattice.n_sites
    if n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense evolution capped at {DENSE_MAX_QUBITS} qubits, got {n}")
    kraus = None if circuit.noise is None else circuit.noise.kraus()
    rho = DenseDensity(n)
    for lg in circuit.layers:
        for s, g in enumerate(lg.rotations):
            rho.apply_1q(s, g)
        for a, b, m in lg.gates:
            rho.apply_2q(a, b, m)
        if kraus is not None:
            for s in range(n):
                rho.apply_channel(s, kraus)
    return rho
