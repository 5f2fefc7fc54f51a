"""Matrix-product-state trajectory backend.

Holds the 1D state of an effective circuit as a chain of rank-3 tensors
(left bond, physical qubit, right bond) with a tracked orthogonality center.
Supports unitary gates (with swap routing for non-adjacent pairs), Born-rule
Kraus sampling, measurement with reset, projection, and entanglement
telemetry. All entropies are in natural-log units.

Centre convention: every tensor left of ``center`` is a left isometry
(A.reshape(l*2, r) has orthonormal columns) and every tensor right of it a
right isometry (A.reshape(l, 2*r) has orthonormal rows), so the state's
norm and all its weight sit in ``tensors[center]``. Single-site operations
(Kraus sampling, measurement, projection, entropies) first move the centre
onto their site with one QR per step. A two-site update only needs the
centre somewhere in its block {pos, pos+1}: the SVD of the block leaves an
isometry on one side and puts the singular values on the other, which
becomes the new centre (the right site by default, the left one with
``center_left``). Swap routing towards the gate therefore carries the
centre along with the swapped content, and no QR runs between swaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

PROB_FLOOR = 1e-14


class MpsError(Exception):
    """Invalid operation on a matrix product state."""


class TruncationOverflow(MpsError):
    """A truncation would need more bond dimension than hard_fail_chi allows."""


@dataclass(frozen=True)
class TruncationPolicy:
    """SVD truncation rule: relative cutoff first, then a hard cap.

    Singular values with lambda/lambda_max >= svd_cutoff are kept, at most
    chi_max of them. If hard_fail_chi is set and the post-cutoff rank exceeds
    it, the operation raises instead of truncating silently.
    """

    chi_max: int = 512
    svd_cutoff: float = 1e-10
    hard_fail_chi: int | None = None

    def __post_init__(self):
        if self.chi_max < 1:
            raise ValueError("chi_max must be at least 1")
        if not 0.0 <= self.svd_cutoff < 1.0:
            raise ValueError("svd_cutoff must lie in [0, 1)")


DEFAULT_POLICY = TruncationPolicy()
EXACT_POLICY = TruncationPolicy(chi_max=2**30, svd_cutoff=0.0)


def _robust_svd(mat: np.ndarray):
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge on ill-conditioned inputs
        return scipy.linalg.svd(mat, full_matrices=False, lapack_driver="gesvd")


_UNITARY_SEEN: set = set()


def _check_unitary(g: np.ndarray, dim: int):
    g = np.asarray(g, dtype=complex)
    if g.shape != (dim, dim):
        raise MpsError(f"gate shape {g.shape}, expected {(dim, dim)}")
    # memoized by content: trajectory loops re-apply the same few matrices
    key = g.tobytes()
    if key not in _UNITARY_SEEN:
        if not np.allclose(g @ g.conj().T, np.eye(dim), atol=1e-12):
            raise MpsError("gate is not unitary within 1e-12")
        if len(_UNITARY_SEEN) > 4096:
            _UNITARY_SEEN.clear()
        _UNITARY_SEEN.add(key)
    return g


class MatrixProductState:
    """Open-boundary MPS over qubits with an optional attached reference site.

    Public site indices always refer to system qubits; the reference (if
    attached) is addressed only through its handle and never takes part in
    gates, noise, or measurements.
    """

    def __init__(self, tensors: list[np.ndarray], center: int = 0):
        if not tensors:
            raise MpsError("empty tensor list")
        self.tensors = tensors
        self.center = center
        self.trunc_log = 0.0
        self._ref: int | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def new_product_state(cls, n: int, bits=None) -> "MatrixProductState":
        """Product state |bits> (default all zeros) on n sites."""
        if n <= 0:
            raise MpsError("need at least one site")
        if bits is None:
            bits = [0] * n
        bits = [int(b) for b in bits]
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise MpsError(f"bits must be {n} binary values")
        tensors = []
        for b in bits:
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, b, 0] = 1.0
            tensors.append(t)
        return cls(tensors, center=0)

    # -- indexing ----------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of system sites (the reference is excluded)."""
        return len(self.tensors) - (1 if self._ref is not None else 0)

    def _int(self, site: int) -> int:
        if not 0 <= site < self.n_sites:
            raise MpsError(f"site {site} out of range 0..{self.n_sites - 1}")
        if self._ref is not None and site >= self._ref:
            return site + 1
        return site

    def _int_cut(self, cut: int) -> int:
        if not 1 <= cut <= self.n_sites - 1:
            raise MpsError(f"cut {cut} out of range")
        if self._ref is not None and self._ref <= cut:
            return cut + 1
        return cut

    def bond_dims(self) -> list[int]:
        return [t.shape[0] for t in self.tensors] + [self.tensors[-1].shape[2]]

    def max_bond(self) -> int:
        return max(self.bond_dims())

    # -- canonical form ----------------------------------------------------

    def _shift_right(self):
        c = self.center
        a, b = self.tensors[c], self.tensors[c + 1]
        l, s, r = a.shape
        q, rm = np.linalg.qr(a.reshape(l * s, r))
        self.tensors[c] = q.reshape(l, s, -1)
        self.tensors[c + 1] = (rm @ b.reshape(r, -1)).reshape(-1, *b.shape[1:])
        self.center = c + 1

    def _shift_left(self):
        # LQ from the QR of the transpose: a = rm.T @ q.T, q.T has orthonormal rows
        c = self.center
        a, b = self.tensors[c], self.tensors[c - 1]
        l, s, r = a.shape
        q, rm = np.linalg.qr(a.reshape(l, s * r).T)
        self.tensors[c] = q.T.reshape(-1, s, r)
        self.tensors[c - 1] = (b.reshape(-1, l) @ rm.T).reshape(*b.shape[:2], -1)
        self.center = c - 1

    def _move_center(self, pos: int):
        while self.center < pos:
            self._shift_right()
        while self.center > pos:
            self._shift_left()

    # -- norms -------------------------------------------------------------

    def norm(self) -> float:
        """Exact global norm by transfer contraction (gauge-independent)."""
        env = np.ones((1, 1), dtype=complex)
        for t in self.tensors:
            env = np.einsum("ab,aso,bsp->op", env, t, t.conj(), optimize=True)
        return float(np.sqrt(max(env[0, 0].real, 0.0)))

    def normalize(self):
        q = self.norm()
        if q < PROB_FLOOR:
            raise MpsError("cannot normalize a numerically null state")
        self.tensors[self.center] = self.tensors[self.center] / q

    # -- gates -------------------------------------------------------------

    def apply_1q(self, site: int, g: np.ndarray):
        """Single-qubit unitary; preserves canonical form, no center move."""
        g = _check_unitary(g, 2)
        i = self._int(site)
        self.tensors[i] = np.matmul(g, self.tensors[i])

    def apply_2q(self, i: int, j: int, g: np.ndarray, policy: TruncationPolicy = DEFAULT_POLICY):
        """Two-qubit unitary on sites (i, j); non-adjacent pairs are swap-routed.

        The gate matrix is ordered so its first tensor factor acts on i. Every
        adjacent update (including routing swaps) is truncated per policy,
        with the discarded probability mass accumulated in trunc_log.
        """
        g = _check_unitary(g, 4)
        if i == j:
            raise MpsError("two-qubit gate needs distinct sites")
        if j < i:
            perm = np.array(g).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            return self.apply_2q(j, i, perm, policy)
        a, b = self._int(i), self._int(j)
        # bring the content of internal position b down next to a; the
        # centre stays on the left site so it travels down with the swaps
        for k in range(b, a + 1, -1):
            self._apply_adjacent(k - 1, None, policy, center_left=True)
        self._apply_adjacent(a, g, policy)
        for k in range(a + 1, b):
            self._apply_adjacent(k, None, policy)

    _SWAP = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )

    def _apply_adjacent(
        self, pos: int, g: np.ndarray | None, policy: TruncationPolicy,
        center_left: bool = False,
    ):
        """Two-site update on (pos, pos+1); g None swaps the two sites.

        The centre moves only if it lies outside the block. Afterwards it
        sits on pos+1, or on pos if center_left is set.
        """
        if self.center < pos:
            self._move_center(pos)
        elif self.center > pos + 1:
            self._move_center(pos + 1)
        a, b = self.tensors[pos], self.tensors[pos + 1]
        l, r = a.shape[0], b.shape[2]
        theta = a.reshape(l * 2, -1) @ b.reshape(-1, 2 * r)
        if g is None:
            theta = theta.reshape(l, 2, 2, r).transpose(0, 2, 1, 3)
        else:
            theta = np.matmul(g, theta.reshape(l, 4, r))
        u, s, vh = _robust_svd(theta.reshape(l * 2, 2 * r))
        keep = self._select_rank(s, policy)
        s2 = s * s
        total = max(float(s2.sum()), PROB_FLOOR)
        if keep < len(s):
            self.trunc_log += float(s2[keep:].sum()) / total
        s, kept = s[:keep], float(s2[:keep].sum())
        if kept != total:  # give the kept values the weight of the whole block
            s = s / np.sqrt(kept / total)
        u, vh = u[:, :keep], vh[:keep]
        if center_left:
            self.tensors[pos] = (u * s).reshape(l, 2, keep)
            self.tensors[pos + 1] = vh.reshape(keep, 2, r)
            self.center = pos
        else:
            self.tensors[pos] = u.reshape(l, 2, keep)
            self.tensors[pos + 1] = (s[:, None] * vh).reshape(keep, 2, r)
            self.center = pos + 1

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

    # -- stochastic events -------------------------------------------------

    def apply_kraus(self, site: int, kraus, rng) -> int:
        """Sample a Kraus outcome by the Born rule and apply it.

        Consumes exactly one rng.random() per call, matching the dense
        oracle's consumption so shared-seed runs stay in lockstep.
        """
        i = self._int(site)
        self._move_center(i)
        a = self.tensors[i]
        # reduced state of the site, rho = A A^dag on the physical leg; for
        # Hermitian rho, p_k = tr(M_k^dag M_k rho) = sum_st E_k[s, t] conj(rho[s, t])
        l, d, r = a.shape
        m = a.transpose(1, 0, 2).reshape(d, l * r)
        rho = m @ m.conj().T
        probs = (kraus.effects.reshape(len(kraus), -1) @ rho.conj().ravel()).real
        total = probs.sum()
        if total < PROB_FLOOR:
            raise MpsError("all Kraus outcomes numerically degenerate")
        if abs(total - 1.0) > 1e-10:
            raise MpsError(f"Born probabilities sum to {total}, state unnormalized")
        u = rng.random()
        acc = 0.0
        pick = len(probs) - 1
        for idx, p in enumerate(probs.tolist()):
            acc += p
            if u < acc:
                pick = idx
                break
        self.tensors[i] = np.matmul(kraus.ops[pick], a) / np.sqrt(probs[pick])
        return pick

    def measure_reset(self, site: int, rng) -> int:
        """Measure in the computational basis, record the bit, reset to |0>."""
        i = self._int(site)
        self._move_center(i)
        a = self.tensors[i]
        p0 = float(np.vdot(a[:, 0, :], a[:, 0, :]).real)
        bit = 0 if rng.random() < p0 else 1
        p = p0 if bit == 0 else 1.0 - p0
        if p < PROB_FLOOR:
            raise MpsError("measurement hit a numerically null branch")
        self._project_reset(i, bit, p)
        return bit

    def project_onto(self, site: int, bit: int) -> float:
        """Project a site onto a given bit, reset it to |0>, return the probability."""
        if bit not in (0, 1):
            raise MpsError("bit must be 0 or 1")
        i = self._int(site)
        self._move_center(i)
        a = self.tensors[i]
        p = float(np.vdot(a[:, bit, :], a[:, bit, :]).real)
        if p < PROB_FLOOR:
            raise MpsError(f"projection probability {p} below floor")
        self._project_reset(i, bit, p)
        return p

    def _project_reset(self, i: int, bit: int, p: float):
        # the projected site is a bare matrix on the bonds; splitting it by
        # SVD lets the adjacent bond shrink to the rank actually used
        m = self.tensors[i][:, bit, :] / np.sqrt(p)
        l, r = m.shape
        n_int = len(self.tensors)
        if n_int == 1:
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = 1.0
            self.tensors[i] = t
            return
        if i < n_int - 1:
            u, s, vh = _robust_svd(m)
            keep = max(int(np.sum(s / max(s[0], PROB_FLOOR) >= 1e-14)), 1)
            t = np.zeros((l, 2, keep), dtype=complex)
            t[:, 0, :] = u[:, :keep]
            self.tensors[i] = t
            b = self.tensors[i + 1]
            self.tensors[i + 1] = (
                (s[:keep, None] * vh[:keep]) @ b.reshape(r, -1)
            ).reshape(keep, *b.shape[1:])
            self.center = i + 1
        else:
            b = self.tensors[i - 1]
            self.tensors[i - 1] = (b.reshape(-1, l) @ m).reshape(*b.shape[:2], 1)
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = 1.0
            self.tensors[i] = t
            self.center = i - 1

    # -- entanglement telemetry -------------------------------------------

    def schmidt_values(self, cut: int) -> np.ndarray:
        """Schmidt spectrum across the bond left of system site `cut`."""
        ic = self._int_cut(cut)
        self._move_center(ic - 1)
        a = self.tensors[ic - 1]
        l, s, r = a.shape
        sv = _robust_svd(a.reshape(l * s, r))[1]
        total = np.sum(sv**2)
        if total <= 0.0:
            raise MpsError("null state has no Schmidt spectrum")
        return sv / np.sqrt(total)

    def renyi_entropy(self, cut: int, n: float = 1.0) -> float:
        """Renyi entropy of order n across a cut; n=1 is von Neumann."""
        if n <= 0:
            raise MpsError("Renyi order must be positive")
        lam2 = self.schmidt_values(cut) ** 2
        return _spectrum_entropy(lam2, n)

    def subsystem_renyi(self, sites, n: float = 1.0) -> float:
        """Renyi entropy of a subsystem made of at most two contiguous blocks.

        Works on the reduced density matrix of the requested sites. When the
        complement has fewer blocks or a smaller window it is used instead
        (same entropy for a pure state). Two-block subsystems are made
        contiguous by swap routing on a scratch copy.
        """
        if n <= 0:
            raise MpsError("Renyi order must be positive")
        sel = sorted(set(int(s) for s in sites))
        if not sel:
            raise MpsError("empty subsystem")
        if sel[0] < 0 or sel[-1] >= self.n_sites:
            raise MpsError("subsystem site out of range")
        if len(sel) == self.n_sites:
            return 0.0
        comp = [s for s in range(self.n_sites) if s not in set(sel)]
        blocks, cblocks = _as_blocks(sel), _as_blocks(comp)
        if len(blocks) > 2 and len(cblocks) > 2:
            raise MpsError("subsystem must be a union of at most 2 contiguous blocks")
        use = blocks
        if (len(cblocks), _span(cblocks), len(comp)) < (
            len(blocks), _span(blocks), len(sel)
        ):
            use = cblocks
        if len(use) == 1:
            return self._window_entropy(use[0], n)
        work = self.copy()
        (a0, a1), (c0, c1) = use
        gap = c0 - a1
        for col in range(c0, c1):
            for k in range(col, col - gap, -1):
                work.apply_2q(k - 1, k, self._SWAP, EXACT_POLICY)
        return work._window_entropy((a0, a1 + (c1 - c0)), n)

    def _window_entropy(self, block: tuple[int, int], n: float) -> float:
        a, b = block
        ia, ib = self._int(a), self._int(b - 1) + 1
        self._move_center(ia)
        t = self.tensors[ia]
        for k in range(ia + 1, ib):
            t = np.tensordot(t, self.tensors[k], axes=(t.ndim - 1, 0))
        # legs: left bond, one physical per internal site, right bond
        phys = list(range(1, t.ndim - 1))
        traced = [
            phys[k - ia] for k in range(ia, ib)
            if self._ref is not None and k == self._ref
        ]
        kept = [p for p in phys if p not in traced]
        order = [0] + kept + traced + [t.ndim - 1]
        t = np.transpose(t, order)
        dk = 1 << len(kept)
        dt = 1 << len(traced)
        if t.shape[0] * dk * dt * t.shape[-1] > (1 << 27):
            raise MpsError("subsystem window too large to contract")
        t = t.reshape(t.shape[0], dk, dt, t.shape[-1])
        rho = np.einsum("aktb,aqtb->kq", t, t.conj(), optimize=True)
        evals = np.linalg.eigvalsh(rho)
        evals = np.clip(evals.real, 0.0, None)
        tot = evals.sum()
        if tot <= 0.0:
            raise MpsError("null reduced state")
        return _spectrum_entropy(evals / tot, n)

    # -- reference qubit ---------------------------------------------------

    def attach_reference(self, site: int) -> int:
        """Bell-pair a fresh reference site with `site`, returning a handle.

        The partner must currently be an unentangled |0> site; its state is
        replaced by the pair (|00> + |11>)/sqrt(2). The reference is invisible
        to all site-indexed operations.
        """
        if self._ref is not None:
            raise MpsError("reference already attached")
        i = self._int(site)
        t = self.tensors[i]
        if t.shape[0] != 1 or t.shape[2] != 1 or abs(t[0, 1, 0]) > 1e-12:
            raise MpsError("reference partner must be a fresh |0> product site")
        self._move_center(i)
        left = np.zeros((1, 2, 2), dtype=complex)
        left[0, 0, 0] = left[0, 1, 1] = 1.0 / np.sqrt(2.0)
        right = np.zeros((2, 2, 1), dtype=complex)
        right[0, 0, 0] = right[1, 1, 0] = 1.0
        self.tensors[i] = left
        self.tensors.insert(i + 1, right)
        self._ref = i + 1
        return 0

    def reference_entropy(self, handle: int = 0) -> float:
        """Von Neumann entropy of the reference's one-site reduced state."""
        if self._ref is None:
            raise MpsError("no reference attached")
        self._move_center(self._ref)
        a = self.tensors[self._ref]
        rho = np.einsum("lsr,ltr->st", a, a.conj())
        evals = np.clip(np.linalg.eigvalsh(rho).real, 0.0, None)
        tot = evals.sum()
        return _spectrum_entropy(evals / tot, 1.0)

    # -- dense access and persistence -------------------------------------

    def to_dense(self) -> np.ndarray:
        """Full amplitude tensor of shape (2,)*n over all chain sites.

        Includes the reference site at its physical position if attached.
        """
        acc = self.tensors[0]
        for t in self.tensors[1:]:
            acc = np.tensordot(acc, t, axes=(acc.ndim - 1, 0))
        return acc[0, ..., 0]

    def amplitude(self, bits) -> complex:
        bits = [int(b) for b in bits]
        if len(bits) != self.n_sites:
            raise MpsError("bitstring length mismatch")
        vec = np.ones((1,), dtype=complex)
        for ext, b in enumerate(bits):
            vec = vec @ self.tensors[self._int(ext)][:, b, :]
            if self._ref is not None and self._int(ext) + 1 == self._ref:
                raise MpsError("amplitude undefined with a reference attached")
        return complex(vec[0])

    def copy(self) -> "MatrixProductState":
        dup = MatrixProductState([t.copy() for t in self.tensors], self.center)
        dup.trunc_log = self.trunc_log
        dup._ref = self._ref
        return dup

    def save(self, path):
        """Checkpoint to npz: one array per tensor plus scalar metadata."""
        payload = {f"tensor_{i}": t for i, t in enumerate(self.tensors)}
        payload["meta"] = np.array(
            [len(self.tensors), self.center,
             -1 if self._ref is None else self._ref],
            dtype=np.int64,
        )
        payload["trunc"] = np.array([self.trunc_log])
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path) -> "MatrixProductState":
        with np.load(path) as data:
            count, center, ref = (int(v) for v in data["meta"])
            tensors = [data[f"tensor_{i}"] for i in range(count)]
            out = cls(tensors, center=center)
            out.trunc_log = float(data["trunc"][0])
            out._ref = None if ref < 0 else ref
        return out


def _spectrum_entropy(p: np.ndarray, n: float) -> float:
    p = p[p > 1e-300]
    if abs(n - 1.0) < 1e-12:
        return float(max(-np.sum(p * np.log(p)), 0.0) + 0.0)
    return float(max(np.log(np.sum(p**n)) / (1.0 - n), 0.0) + 0.0)


def _as_blocks(sel: list[int]) -> list[tuple[int, int]]:
    blocks = []
    start = prev = sel[0]
    for s in sel[1:]:
        if s != prev + 1:
            blocks.append((start, prev + 1))
            start = s
        prev = s
    blocks.append((start, prev + 1))
    return blocks


def _span(blocks: list[tuple[int, int]]) -> int:
    return blocks[-1][1] - blocks[0][0]
