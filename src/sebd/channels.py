"""Single-qubit noise channels, Kraus unravelings, and the disentangling cost x.

A channel is represented by a :class:`KrausSet`. Different Kraus decompositions
of the same channel (same Choi matrix) correspond to different fictitious weak
measurements in a trajectory simulation; they share all channel-level physics
but differ in how much entanglement the trajectories carry. The scalar
``unraveling_cost_x`` quantifies that: larger x disentangles more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gates import I2, X, Y, Z

MATRIX_ATOL = 1e-12
TRACE_FLOOR = 1e-15


class ChannelError(ValueError):
    """Invalid channel parameters or an inconsistent Kraus set."""


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A trace-preserving set of Kraus operators on a d-dimensional site.

    ops are (d, d) complex matrices with sum_i M_i^dag M_i = I (checked to
    1e-12). Operators that are exactly zero are legal and kept; cost sums
    skip anything with tr(M^dag M) below 1e-15.
    """

    ops: tuple
    label: str = ""

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ChannelError("empty Kraus set")
        mats = []
        d = None
        for m in self.ops:
            m = np.asarray(m, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ChannelError(f"Kraus operator with shape {m.shape}")
            if d is None:
                d = m.shape[0]
            elif m.shape[0] != d:
                raise ChannelError("mixed dimensions in Kraus set")
            m = m.copy()
            m.flags.writeable = False
            mats.append(m)
        if d < 2:
            raise ChannelError("dimension must be at least 2")
        acc = sum(m.conj().T @ m for m in mats)
        defect = np.max(np.abs(acc - np.eye(d)))
        if defect > MATRIX_ATOL:
            raise ChannelError(f"completeness defect {defect:.3e}")
        object.__setattr__(self, "ops", tuple(mats))

    @property
    def d(self) -> int:
        return self.ops[0].shape[0]

    @cached_property
    def effects(self) -> np.ndarray:
        """POVM elements M_k^dag M_k stacked as (K, d, d); read-only."""
        e = np.stack([m.conj().T @ m for m in self.ops])
        e.flags.writeable = False
        return e

    def __len__(self) -> int:
        return len(self.ops)

    @cached_property
    def stacked(self) -> np.ndarray:
        """The operators stacked as (K, d, d); read-only."""
        s = np.stack(self.ops)
        s.flags.writeable = False
        return s

    # The two tables below serve one channel acting on both sites of a
    # two-site block, as on a noisy gate's sites: row a * K + b is outcome a
    # on the first (left) site and b on the second.

    @cached_property
    def pair_effects(self) -> np.ndarray:
        """The joint Born table's (K^2, d^4) matrix of E_a kron E_b, as floats; read-only.

        Each row's complex entries are stored as float pairs (real,
        imaginary), shape (K^2, 2 d^4). For a Hermitian two-site state rho
        (d^2, d^2) viewed the same way, v = rho.view(float).reshape(-1),
        (pair_effects @ v)[a * K + b] = tr[(E_a kron E_b) rho], because
        tr(E rho) = sum_st Re(E_st) Re(rho_st) + Im(E_st) Im(rho_st).
        """
        e = self.effects
        table = np.einsum("aij,bkl->abikjl", e, e).reshape(len(self) ** 2, -1).view(float)
        table.flags.writeable = False
        return table

    @cached_property
    def pair_stacked(self) -> np.ndarray:
        """The operators M_a kron M_b stacked as (K^2, d^2, d^2); read-only."""
        m = self.stacked
        d2 = self.d**2
        ops = np.einsum("aij,bkl->abikjl", m, m).reshape(len(self) ** 2, d2, d2)
        ops.flags.writeable = False
        return ops


@dataclass(frozen=True)
class UnitalParams:
    """Pauli-mix probabilities (p0, px, py, pz) of a unital qubit channel."""

    p0: float
    px: float
    py: float
    pz: float

    def __post_init__(self):
        p = np.array([self.p0, self.px, self.py, self.pz])
        if np.any(p < -MATRIX_ATOL) or abs(p.sum() - 1.0) > 1e-10:
            raise ChannelError(f"invalid unital probabilities {tuple(p)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p0, self.px, self.py, self.pz])


@dataclass(frozen=True)
class NoiseModel:
    """A named channel family at a given strength.

    kind is one of 'dephasing', 'depolarizing', 'amplitude-damping',
    'unital'; the last carries explicit probabilities in ``unital``.
    """

    kind: str
    epsilon: float = 0.0
    unital: UnitalParams | None = None

    _FORMS = {
        "dephasing": ("weak-optimal", "unitary-mix", "projective"),
        "depolarizing": ("weak-tetrahedron", "pauli-mix"),
        "amplitude-damping": ("optimized", "canonical"),
        "unital": ("tetrahedron", "octahedron"),
    }

    def __post_init__(self):
        if self.kind not in self._FORMS:
            raise ChannelError(f"unknown channel kind {self.kind!r}")
        if self.kind == "unital" and self.unital is None:
            raise ChannelError("kind 'unital' needs explicit probabilities")

    def forms(self) -> tuple:
        return self._FORMS[self.kind]

    def kraus(self, form: str | None = None) -> KrausSet:
        """Materialize the Kraus set for a given unraveling form (default: first listed)."""
        form = form or self.forms()[0]
        if form not in self.forms():
            raise ChannelError(f"form {form!r} not valid for {self.kind}; choose from {self.forms()}")
        if self.kind == "dephasing":
            return make_dephasing(self.epsilon, form)
        if self.kind == "depolarizing":
            return make_depolarizing(self.epsilon, form)
        if self.kind == "amplitude-damping":
            return make_amplitude_damping(self.epsilon, form)
        n = 4 if form == "tetrahedron" else 6
        return make_unital(self.unital, n)


def make_dephasing(epsilon: float, form: str = "weak-optimal") -> KrausSet:
    """Dephasing channel rho -> (1-eps) rho + eps Z rho Z, 0 <= eps <= 1/2."""
    if not 0.0 <= epsilon <= 0.5:
        raise ChannelError(f"dephasing strength {epsilon} outside [0, 1/2]")
    e = float(epsilon)
    if form == "unitary-mix":
        ops = (np.sqrt(1 - e) * I2, np.sqrt(e) * Z)
    elif form == "projective":
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        ops = (np.sqrt(1 - 2 * e) * I2, np.sqrt(2 * e) * p0, np.sqrt(2 * e) * p1)
    elif form == "weak-optimal":
        a, b = np.sqrt((1 - e) / 2), np.sqrt(e / 2)
        ops = (a * I2 + b * Z, a * I2 - b * Z)
    else:
        raise ChannelError(f"unknown dephasing form {form!r}")
    return KrausSet(ops, label=f"dephasing[{form}] eps={e}")


_TETRA_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def make_depolarizing(epsilon: float, form: str = "weak-tetrahedron") -> KrausSet:
    """Depolarizing channel with Pauli-error weight eps/3 each, 0 <= eps <= 3/4."""
    if not 0.0 <= epsilon <= 0.75:
        raise ChannelError(f"depolarizing strength {epsilon} outside [0, 3/4]")
    e = float(epsilon)
    if form == "pauli-mix":
        w = np.sqrt(e / 3)
        ops = (np.sqrt(1 - e) * I2, w * X, w * Y, w * Z)
    elif form == "weak-tetrahedron":
        a, b = np.sqrt((1 - e) / 4), np.sqrt(e / 12)
        ops = tuple(
            a * I2 + b * (sx * X + sy * Y + sz * Z) for sx, sy, sz in _TETRA_SIGNS
        )
    else:
        raise ChannelError(f"unknown depolarizing form {form!r}")
    return KrausSet(ops, label=f"depolarizing[{form}] eps={e}")


def _balanced_frame(d3: np.ndarray) -> np.ndarray:
    """Rows w_j (unit norm) of a 3x3 matrix with W^T W = diag(d3), sum(d3) = 3.

    Diagonal-balancing by Givens rotations: rotate pairs of rows so every
    row norm hits 1 exactly (possible since the norms average to 1).
    """
    a = np.diag(d3).astype(float)
    u = np.eye(3)
    for _ in range(3):
        diag = np.diag(a).copy()
        if np.allclose(diag, 1.0, atol=1e-13):
            break
        i = int(np.argmin(diag))
        j = int(np.argmax(diag))
        aa, bb, cc = a[i, i], a[j, j], a[i, j]
        # tan(theta) chosen so the rotated (i,i) entry is exactly 1; the
        # rationalized root stays finite as bb approaches 1
        disc = max(cc * cc - (aa - 1.0) * (bb - 1.0), 0.0)
        t = (1.0 - aa) / (cc + np.sqrt(disc))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        g = np.eye(3)
        g[i, i] = c
        g[i, j] = s
        g[j, i] = -s
        g[j, j] = c
        a = g @ a @ g.T
        u = g @ u
    return u @ np.diag(np.sqrt(d3))


def make_unital(params: UnitalParams, n: int = 4) -> KrausSet:
    """Optimal weak unraveling of a unital Pauli channel into n operators.

    Operators are a_i I + b_i (u_i . sigma) with a_i = sqrt(p0/n),
    b_i = sqrt((1-p0)/n) and real unit vectors u_i summing to zero whose
    second moments match the Pauli weights. n=4 uses the deformed-tetrahedron
    closed form; n=6 antipodal pairs from a diagonal-balancing construction
    (the octahedron when px = py = pz).
    """
    if n not in (4, 6):
        raise ChannelError("n must be 4 or 6")
    p0, px, py, pz = params.as_array()
    w = 1.0 - p0
    if w < 1e-15:
        us = [np.zeros(3)] * n
        b = 0.0
    elif n == 4:
        r = np.sqrt(np.array([px, py, pz]) / w)
        us = [np.array(s) * r for s in _TETRA_SIGNS]
        b = np.sqrt(w / n)
    else:
        frame = _balanced_frame(3.0 * np.array([px, py, pz]) / w)
        us = [s * frame[j] for j in range(3) for s in (+1.0, -1.0)]
        b = np.sqrt(w / n)
    a = np.sqrt(p0 / n)
    ops = tuple(
        a * I2 + b * (u[0] * X + u[1] * Y + u[2] * Z) for u in us
    )
    return KrausSet(ops, label=f"unital[n={n}] p={tuple(params.as_array())}")


def make_amplitude_damping(epsilon: float, form: str = "optimized") -> KrausSet:
    """Amplitude damping with decay probability eps."""
    if not 0.0 <= epsilon <= 1.0:
        raise ChannelError(f"damping strength {epsilon} outside [0, 1]")
    e = float(epsilon)
    m0 = np.array([[1, 0], [0, np.sqrt(1 - e)]], dtype=complex)
    m1 = np.array([[0, np.sqrt(e)], [0, 0]], dtype=complex)
    if form == "canonical":
        ops = (m0, m1)
    elif form == "optimized":
        ops = ((m0 + m1) / np.sqrt(2), (m1 - m0) / np.sqrt(2))
    else:
        raise ChannelError(f"unknown damping form {form!r}")
    return KrausSet(ops, label=f"amplitude-damping[{form}] eps={e}")


def gauge_transform(k: KrausSet, u: np.ndarray) -> KrausSet:
    """Mix Kraus operators with a semi-unitary: M'_j = sum_i u[j, i] M_i.

    u has shape (m, n) with m >= n and u^dag u = I_n, so the new set
    represents the same channel.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] != len(k):
        raise ChannelError(f"gauge shape {u.shape} incompatible with {len(k)} operators")
    if u.shape[0] < u.shape[1]:
        raise ChannelError("gauge must not reduce operator count below rank")
    if not np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-10):
        raise ChannelError("gauge matrix is not an isometry")
    new = np.einsum("ji,iab->jab", u, k.stacked)
    return KrausSet(tuple(new), label=k.label + "'")


def choi_matrix(k: KrausSet) -> np.ndarray:
    """Gauge-invariant channel fingerprint sum_i M_i kron conj(M_i)."""
    return sum(np.kron(m, m.conj()) for m in k.ops)


def _cost_from_stack(stack: np.ndarray, d: int) -> float:
    g = np.einsum("iba,ibc->iac", stack.conj(), stack)
    tr = np.einsum("iaa->i", g).real
    tr2 = np.einsum("iab,iba->i", g, g).real
    keep = tr > TRACE_FLOOR
    return float(np.sum(tr2[keep] / tr[keep]) / d)


def unraveling_cost_x(k: KrausSet) -> float:
    """Disentangling strength x = (1/d) sum_i tr((M_i^dag M_i)^2)/tr(M_i^dag M_i).

    Ranges over (1/d, 1]; 1/d means purely unitary operators (no
    disentangling), 1 means rank-one (projective). Zero operators are skipped.
    """
    return _cost_from_stack(k.stacked, k.d)


def _givens_unitary(n: int, params: np.ndarray) -> np.ndarray:
    """Unitary from a product of two-plane rotations with phases.

    params holds (theta, phi) per index pair; n*(n-1)/2 pairs, so the map is
    onto U(n) up to right-diagonal phases, which the cost cannot see.
    """
    u = np.eye(n, dtype=complex)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            th, ph = params[idx], params[idx + 1]
            idx += 2
            c, s = np.cos(th), np.sin(th)
            e = np.exp(1j * ph)
            g = np.eye(n, dtype=complex)
            g[i, i] = c
            g[i, j] = -e * s
            g[j, i] = e.conjugate() * s
            g[j, j] = c
            u = g @ u
    return u


def optimize_unraveling(
    k: KrausSet, n_out: int | None = None, budget: int = 12, seed: int = 0
) -> tuple[KrausSet, float]:
    """Search the gauge orbit of k for the unraveling maximizing x.

    The gauge is parameterized by Givens rotations with phases and explored
    with a derivative-free (Powell) restart search; ``budget`` counts random
    restarts. Deterministic for fixed seed; returns (best set, best x), the
    set being gauge_transform of k by the best unitary's first len(k) columns.
    """
    from scipy.optimize import minimize  # lazy: importing sebd loads no scipy

    n_in = len(k)
    n_out = n_in if n_out is None else int(n_out)
    if n_out < n_in:
        raise ChannelError("n_out must be at least the input operator count")
    base = np.zeros((n_out, k.d, k.d), dtype=complex)
    base[:n_in] = k.stacked
    d = k.d
    npairs = n_out * (n_out - 1) // 2

    def neg_cost(params):
        u = _givens_unitary(n_out, params)
        return -_cost_from_stack(np.einsum("ji,iab->jab", u, base), d)

    rng = np.random.default_rng(seed)
    best_val = -neg_cost(np.zeros(2 * npairs))
    best_params = np.zeros(2 * npairs)
    for r in range(max(1, budget)):
        x0 = rng.uniform(-np.pi, np.pi, size=2 * npairs) if r else np.zeros(2 * npairs)
        res = minimize(
            neg_cost, x0, method="Powell",
            options={"maxiter": 400, "xtol": 1e-12, "ftol": 1e-14},
        )
        if -res.fun > best_val:
            best_val = -res.fun
            best_params = res.x
    res = minimize(
        neg_cost, best_params, method="Powell",
        options={"maxiter": 400, "xtol": 1e-13, "ftol": 1e-15},
    )
    if -res.fun > best_val:
        best_val = -res.fun
        best_params = res.x
    return gauge_transform(k, _givens_unitary(n_out, best_params)[:, :n_in]), float(best_val)
