"""Matrix-product-state trajectory backend.

Holds B trajectories of one effective circuit, its lanes, as a chain of
rank-4 tensors (lane, left bond, physical qubit, right bond) with a tracked
orthogonality center over the slots that carry entanglement, and one loose
(B, 2) vector for every other slot. ``new_product_state(n, lanes=B)`` makes
the one state shape there is; a single trajectory is a state of one lane.
Supports unitary gates (with swap routing for pairs not adjacent on the
chain), Born-rule Kraus sampling, measurement with reset, projection, and
entanglement telemetry. All entropies are in natural-log units. The
kernels trust their gates to be complex unitaries of the right shape:
Circuit2D checks every gate once where a circuit enters (lightcone), and
compile_sebd is the only source of effective circuits, so no check runs
per call.

Centre convention: every tensor left of ``center`` is a left isometry
(A.reshape(l*2, r) has orthonormal columns in each lane) and every tensor
right of it a right isometry (A.reshape(l, 2*r) has orthonormal rows), so
each lane's norm and all its weight sit in ``tensors[center]``. Single-site
operations (Kraus sampling, measurement, projection, entropies) first move
the centre onto their site with one stacked QR per step. A two-site update
only needs the centre somewhere in its block {pos, pos+1}: the SVD of a
gate's block leaves an isometry on one side and puts the singular values on
the other, which becomes the new centre (the right site by default, the
left one with ``center_left``). A routing swap follows the swap rule of
TruncationPolicy: it is the identity or one QR/LQ where it splits exactly,
and an SVD like a gate's elsewhere, and either leaves the centre on the
side it is asked for. Swap routing towards the gate therefore carries the
centre along with the swapped content, and no centre move runs between
swaps.

Loose slots: in SEBD every qubit enters the strip fresh and leaves it at
its readout, and from its load until its first two-qubit gate, and again
after its reset, its slot holds a product state. Such a slot stays off the
chain, as its vectors in ``loose``. new_product_state starts with an empty
chain. One-qubit gates, Kraus sampling, measurement and projection on a
loose slot act on its vectors, with the same Born rule, checks and failure
texts and the same one uniform per lane and event, and move no centre.
apply_2q first joins a loose slot at its slot-order position as identity
kron psi on the bond there: exact, no SVD, and the new tensor is an
isometry from either side, so the centre stays on the tensor it was on
(``_join``; ``ranks`` gains a column). A readout takes its slot off the
chain again: the projected site's matrix is split by SVD into the two
neighbours and the site is dropped, so the slot is a loose |0> and the
bond between its neighbours keeps the rank it gets with the site
(``_project_reset``). The chain is in slot order between calls, so routing
swaps and centre moves run over chain positions and never pass a product
slot. The per-slot views read a loose slot as the product factor it is:
``bond_dims`` gives it the chain bond it would join at, and ``entropy``,
``to_dense`` and ``amplitude`` are in slot order.

The reference qubit of the purification probe attaches to an empty chain
(``attach_reference``), as the Bell pair [reference, partner], and stays at
the chain's left end, order key -1: left of every slot, so no gate routes
past it and it widens no bond between slots. ``entropy(cut)`` counts it on
the left of every cut. No entry point reads both: sample never attaches
a reference, and purification reads no mid-cut entropy.

Noise on the block: a noise channel that follows a two-qubit gate on both
of its sites (``apply_2q(..., kraus, rng)``) is sampled on the gate's
two-site block θ after the gate and before the SVD, site i first, then
site j. θ is the centre, so the block's two-site reduced state rho comes
from θ alone and no centre move is needed; the SVD then splits the
post-noise block. Both picks come from one joint table P[k_i, k_j] =
tr[(E_ki kron E_kj) rho] (_sample_pair): k_i from P's row sums, then k_j
from row k_i, with the same two uniforms in the same order as the gate
followed by apply_kraus on i and on j, so each lane makes the picks of the
two one-site draws and gets their branch to roundoff.

Lanes: every kernel runs over all lanes at once, batching its numpy and
LAPACK calls. Where a batched LAPACK or matmul call would still pay per
small matrix, it takes a broadcast instead: the 2x2 operators of apply_1q
and the Born branch of one-site Kraus sampling act on the physical leg of
all lanes at once, and a stacked SVD whose smaller side is 1 or 2 (a
two-site block next to a bond of dimension 1, a projected site next to one
of dimension 1 or 2) is done in closed form once the stack holds enough
lanes (_robust_svd: at least 4 lanes when the smaller side is 1, at least
32 when it is 2; below that, stacked gesdd is as fast or faster, since the
closed form costs about the same at any lane count). Every lane truncates
by its own singular values under the same rule (svd_cutoff, chi_max,
hard_fail_chi, and the SVD_FLOOR of 1e-14 relative, below which a value is
roundoff of zero and its vectors may lie in the padding): the tensors are
padded to the largest rank of any lane, and each lane's values past its
own rank are zeroed and its kept ones renormalized; when every lane keeps
the same count, the common case, the values are cut by one slice and no
mask is built. A routing swap splits each lane by its own ranks and peak,
as it would alone (the swap rule): the lanes split exactly take the
identity when it is exact for each of them and one stacked QR otherwise,
and the rest the truncated SVD. ``ranks`` holds every lane's own
dimensions of the chain's bonds, ``bond_dims()`` the padded ones,
``discarded`` each lane's discarded weight by lane id, and ``trunc_log``
their sum. ``peak`` holds each lane's peak bond dimension by lane id.
apply_2q raises it to the lane's largest rank on return, after its routing
swaps back, so a rank a swap passes through on its way does not count, and
a lane that fails inside the gate keeps the peak it had. Only apply_2q
raises a rank (attach_reference's Bell pair aside, which sample never
attaches), so no other kernel touches peak. ``rng.random()`` returns one
uniform for every lane id of the block, and each lane makes its own Born
pick and its own measurement: its bit is 0 when its uniform falls below its
own p0. ``entropy`` and ``reference_entropy`` return one value per lane.
A lane whose Born check, hard_fail_chi, measurement (a null branch) or
projection (a probability that is not finite) fails leaves the state, with
the error text kept in ``failed``; a lane whose projection falls below the
floor leaves it silently (its weight is 0). The checks are written so that
NaN fails them. A lane leaving takes its tensors and its loose vectors
along; ``lanes`` lists the ids of those left, and the last one leaving
raises its error (MpsError when it left silently), so a state of one lane
fails as a single trajectory would. ``to_dense``, ``amplitude`` and
``norm`` read a state of one lane.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-14
# singular values below this fraction of the largest are roundoff of zero:
# their vectors are not determined, and they can lie in the padding past a
# lane's own rank, so no cut keeps them
SVD_FLOOR = 1e-14
_REF = -1  # the reference's order key: left of every slot's 2 * slot


class MpsError(Exception):
    """Invalid operation on a matrix product state."""


class TruncationOverflow(MpsError):
    """A truncation would need more bond dimension than hard_fail_chi allows."""


@dataclass(frozen=True)
class TruncationPolicy:
    """SVD truncation rule: relative cutoff first, then a hard cap.

    It applies where a two-site block is split by SVD: a gate's, and a
    routing swap's outside the swap rule below (a readout's split is cut at
    SVD_FLOOR alone). Singular values with lambda/lambda_max >= svd_cutoff
    are kept, at most chi_max of them; a cutoff below SVD_FLOOR acts as
    SVD_FLOOR, so a cutoff of 0 keeps every value that is not roundoff of
    zero. If hard_fail_chi is set and the post-cutoff rank exceeds it, the
    operation raises instead of truncating silently.

    Swap rule: a routing swap only reorders the chain. A lane whose exact
    bound 2 min(l, r), l and r its own ranks of the block's outer bonds,
    does not exceed its peak chi so far is split exactly, with no SVD and
    nothing discarded, whatever the cutoff, and that bound is its new bond.
    Every other lane takes the truncated SVD. An exact split may keep null
    directions, since the bound can exceed the rank, but never past the
    peak: it raises no lane's peak, and none reaches chi_max or fails
    hard_fail_chi, which the peak never passes.
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


# fewest lanes for which a stack with smaller side k takes _thin_svd, by k
THIN_SVD_MIN_LANES = {1: 4, 2: 32}


def _robust_svd(mat: np.ndarray):
    """Thin SVD (u, s, vh) of a matrix or a stack of them, s in descending order.

    A stack (ndim > 2) whose smaller side k is 1 or 2, a thin block of a
    lane state, takes the closed form of _thin_svd when it holds at least
    THIN_SVD_MIN_LANES[k] lanes. At these sizes LAPACK's fixed cost per
    matrix outweighs the arithmetic (stacked gesdd took 2 to 7 us per
    matrix from 2x1 to 8x2 on a 2-vCPU x86 host), and the closed form makes
    each step one numpy call over all lanes, at a cost nearly flat in the
    lane count: about 25 us at k = 1 and 100 to 250 us at k = 2 from 1 to
    128 lanes on that host, against 19 to 400 and 16 to 860 us for gesdd.
    The two break even near 4 lanes at k = 1 and 24 to 32 lanes at k = 2.
    End to end, the threshold takes 6 to 17 % off estimate_probability at
    K = 8 to 24 on a square 3x3 there, against the closed form at any count.
    The closed form gives the singular values to about eps * s_max, as
    gesdd does, and U and V orthonormal to 1e-13, rank-deficient and
    all-zero lanes included. Every other input goes to LAPACK's gesdd, and
    where that fails to converge, to gesvd; a matrix holding NaN or inf,
    which no driver factors, gets NaN factors, as the closed form gives it.
    """
    if mat.ndim > 2:
        k = min(mat.shape[-2:])
        if k <= 2 and mat.shape[0] >= THIN_SVD_MIN_LANES[k]:
            return _thin_svd(mat)
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge on ill-conditioned inputs
        if mat.ndim > 2:  # retry lane by lane, so only the failing lanes fall back to gesvd
            return tuple(np.stack(f) for f in zip(*(_robust_svd(m) for m in mat)))
        if not np.isfinite(mat).all():  # NaN factors of the right shapes
            return tuple(f * np.nan for f in np.linalg.svd(np.zeros_like(mat), False))
        import scipy.linalg  # lazy: importing sebd loads no scipy

        return scipy.linalg.svd(mat, full_matrices=False, lapack_driver="gesvd")


def _thin_svd(a: np.ndarray):
    """_robust_svd of a stack a (B, m, n) with min(m, n) <= 2, by _thin_lanes.

    A wide stack is done through its conjugate transpose: a^dag = U s V^dag
    gives a = V s U^dag.
    """
    m, n = a.shape[-2:]
    if n <= m:
        u, s, v = _thin_lanes(np.ascontiguousarray(a.transpose(2, 1, 0)))
        return u.transpose(2, 1, 0), s.T, v.conj().transpose(2, 1, 0)
    u, s, v = _thin_lanes(np.ascontiguousarray(a.conj().transpose(1, 2, 0)))
    return v.transpose(2, 0, 1), s.T, u.conj().transpose(2, 0, 1)


def _thin_lanes(at: np.ndarray):
    """SVD of the B matrices (m, k) held as at (k, m, B), k <= m and k <= 2.

    The lane axis comes last, so every step is one numpy call over all
    lanes. Returns U's columns (k, m, B), the singular values (k, B) in
    descending order, and V (k, k, B): lane b is U diag(s) V^dag. For k = 1
    the value is the column's norm. For k = 2 one complex Jacobi rotation
    V, which diagonalizes the 2x2 Gram matrix, makes the columns of a V
    orthogonal (one-sided Jacobi, Hestenes), and their norms are the values.
    """
    k = at.shape[0]
    if k == 1:
        s = np.sqrt(_sq_norm(at[0]))
        u = at / np.where(s > 0.0, s, 1.0)
        if not s.all():  # an all-zero lane takes e_0
            u[0, 0, s == 0.0] = 1.0
        return u, s[None], np.ones((1, 1, at.shape[-1]), dtype=at.dtype)
    c1, c2 = at
    # Gram matrix [[al, ga], [conj(ga), be]] of the two columns
    al, be = _sq_norm(c1), _sq_norm(c2)
    ga = (c1.conj() * c2).sum(0)
    g = np.abs(ga)
    live = g > 0.0
    g1 = np.where(live, g, 1.0)
    ph = np.where(live, ga.conj() / g1, 1.0)  # exp(-i arg ga)
    d = be - al
    # V = diag(1, ph) [[cs, sn], [-sn, cs]] with t = sn / cs the tangent of the
    # smaller angle that zeroes the off-diagonal, |t| <= 1
    t = np.copysign(2.0 * g, d) / (np.abs(d) + np.hypot(d, 2.0 * g1))
    cs = 1.0 / np.sqrt(1.0 + t * t)
    sn = t * cs
    # that rotation leaves the larger value in column 2 exactly when t has
    # d's sign bit clear (d = +0.0 gives t >= 0); swapping V's columns there,
    # (cs, sn, ph) -> (sn, cs, -ph), sorts them
    swap = ~np.signbit(d)
    cs, sn, ph = np.where(swap, sn, cs), np.where(swap, cs, sn), np.where(swap, -ph, ph)
    v10, v11 = -sn * ph, cs * ph
    w1 = cs * c1 + v10 * c2
    w2 = sn * c1 + v11 * c2
    s1, s2 = np.sqrt(_sq_norm(w1)), np.sqrt(_sq_norm(w2))
    # roundoff can misorder nearly equal values; sorting them changes the
    # product U diag(s) V^dag by no more than their difference
    s = np.stack((np.maximum(s1, s2), np.minimum(s1, s2)))
    u1 = w1 / np.where(s1 > 0.0, s1, 1.0)
    if not s1.all():  # an all-zero lane takes e_0
        u1[0, s1 == 0.0] = 1.0
    # w2 is orthogonal to u1 only to roundoff relative to s1, which tilts
    # w2 / s2 when s2 << s1: Gram-Schmidt it twice (twice is enough), and
    # where the second pass still cancels, w2 is roundoff of a rank-1 lane,
    # so complete U with a unit vector orthogonal to u1
    r1 = w2 - u1 * (u1.conj() * w2).sum(0)
    r2 = r1 - u1 * (u1.conj() * r1).sum(0)
    q1, q2 = _sq_norm(r1), _sq_norm(r2)
    ok = q2 > 0.25 * q1
    u2 = r2 / np.sqrt(np.where(ok, q2, 1.0))
    if not ok.all():
        u2[:, ~ok] = _unit_orthogonal(u1[:, ~ok])
    v = np.empty((2, 2, at.shape[-1]), dtype=complex)
    v[0, 0], v[0, 1], v[1, 0], v[1, 1] = cs, sn, v10, v11
    return np.stack((u1, u2)), s, v


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """Squared 2-norms of the columns of x (m, B)."""
    return (x * x.conj()).real.sum(0)


def _unit_orthogonal(u1: np.ndarray) -> np.ndarray:
    """A unit column orthogonal to each unit column of u1 (m, B), m >= 2.

    It is the standard basis vector at u1's smallest entry with its u1 part
    removed; that entry has |u1_j|^2 <= 1/2, so the rest has norm >= 1/sqrt(2).
    """
    j = np.argmin((u1 * u1.conj()).real, axis=0)
    cols = np.arange(u1.shape[1])
    e = u1 * -u1[j, cols].conj()
    e[j, cols] += 1.0
    return e / np.sqrt(_sq_norm(e))


class MatrixProductState:
    """Open-boundary MPS of B lanes over qubits, with an optional reference site.

    Public site indices always refer to system qubits (slots); the
    reference (if attached) is read only by reference_entropy and never
    takes part in gates, noise, or measurements. ``tensors`` is the chain,
    each tensor (B, l, 2, r): the reference first if attached, then the
    slots that carry entanglement, in slot order, with the centre
    ``center`` a chain position. Every other slot is loose, its vectors
    ``loose[slot]`` (B, 2) (the rows of chain slots are unused). A slot
    joins the chain at its first two-qubit gate and leaves it at its
    readout (see the module docstring). ``_keys`` holds each chain
    position's order key, 2 * slot, or -1 for the reference, so ``_int``
    finds a slot's position by bisection. ``lanes`` lists the ids of the
    live lanes in tensor order, and ``ranks`` (B, chain bonds) each live
    lane's own bond dimensions. By lane id, ``discarded`` holds each lane's
    discarded weight, ``peak`` its largest rank on return from apply_2q and
    ``failed`` the error text of a lane that failed.
    """

    def __init__(self, loose: np.ndarray):
        """len(loose) slots of loose.shape[1] lanes, all loose, with loose[slot]
        their vectors; the chain is empty."""
        self.tensors: list[np.ndarray] = []
        self.center = 0
        self._keys: list[int] = []
        self.loose = loose
        n = loose.shape[1]
        self.lanes = np.arange(n)
        self.ranks = np.ones((n, 1), dtype=int)
        self.discarded = np.zeros(n)  # discarded weight so far, by lane id
        self.peak = np.ones(n, dtype=int)  # largest own bond after any apply_2q, by lane id
        self.failed: dict = {}  # lane id -> "ErrorType: text"

    # -- construction ------------------------------------------------------

    @classmethod
    def new_product_state(cls, n: int, bits=None, lanes: int = 1) -> "MatrixProductState":
        """Product state |bits> (default all zeros) on n loose slots, one copy per lane."""
        if n <= 0:
            raise MpsError("need at least one site")
        if lanes < 1:
            raise MpsError("need at least one lane")
        if bits is None:
            bits = [0] * n
        bits = [int(b) for b in bits]
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise MpsError(f"bits must be {n} binary values")
        b = np.array(bits)[:, None]
        loose = np.zeros((n, lanes, 2), dtype=complex)
        loose[..., 0], loose[..., 1] = 1 - b, b
        return cls(loose)

    # -- indexing ----------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of system sites (the reference is excluded)."""
        return len(self.loose)

    def _one_lane(self, what: str):
        if len(self.lanes) != 1:
            raise MpsError(f"{what} reads a state of one lane")

    def _int(self, site: int) -> int | None:
        """Chain position of a slot, None while it is loose."""
        if not 0 <= site < len(self.loose):
            raise MpsError(f"site {site} out of range 0..{len(self.loose) - 1}")
        keys, k = self._keys, 2 * site
        p = bisect_left(keys, k)
        return p if p < len(keys) and keys[p] == k else None

    def _join(self, site: int) -> int:
        """Chain position of a slot, which joins the chain first if it is loose.

        A loose slot joins at its slot-order position as identity kron psi
        on the bond there: exact, with no SVD. That tensor is an isometry
        from either side, so the centre stays on its tensor.
        """
        p = self._int(site)
        if p is not None:
            return p
        p = bisect_left(self._keys, 2 * site)
        v = self.loose[site][:, None, :, None]
        r = self.tensors[p].shape[-3] if p < len(self.tensors) else 1
        self.tensors.insert(p, v.copy() if r == 1 else np.eye(r)[:, None, :] * v)
        self._keys.insert(p, 2 * site)
        if self.center >= p and len(self.tensors) > 1:
            self.center += 1
        # the bond at p splits into two of its rank
        self.ranks = np.concatenate((self.ranks[:, : p + 1], self.ranks[:, p:]), axis=1)
        return p

    def _loose_slots(self) -> list[int]:
        chain = {k // 2 for k in self._keys if k != _REF}
        return [s for s in range(len(self.loose)) if s not in chain]

    def _has_ref(self) -> bool:
        return self._keys[:1] == [_REF]

    @property
    def trunc_log(self) -> float:
        """Discarded weight so far, summed over the lanes."""
        return float(np.sum(self.discarded))

    def bond_dims(self) -> list[int]:
        """Bond dimensions left of the reference (if attached) and of each slot
        in slot order, then the right end, padded to the largest lane. A loose
        slot reads the chain bond it would join at."""
        chain = [t.shape[-3] for t in self.tensors] + [1]
        order = [_REF] * self._has_ref() + list(range(0, 2 * len(self.loose), 2))
        return [chain[bisect_left(self._keys, k)] for k in order] + [1]

    def max_bond(self) -> int:
        return max((t.shape[-3] for t in self.tensors), default=1)

    # -- canonical form ----------------------------------------------------

    def _shift_right(self):
        c = self.center
        a, b = self.tensors[c], self.tensors[c + 1]
        own = _own_part(a, self.ranks[:, c], self.ranks[:, c + 1])
        if own is not None:  # rows (l, s): a lane's own rows come first
            a = own
        n, l, s, r = a.shape
        q, rm = np.linalg.qr(a.reshape(n, l * s, r))
        self.tensors[c] = q.reshape(n, l, s, -1)
        self.tensors[c + 1] = (rm @ b.reshape(n, r, -1)).reshape((n, -1) + b.shape[-2:])
        self.ranks[:, c + 1] = np.minimum(2 * self.ranks[:, c], self.ranks[:, c + 1])
        self.center = c + 1

    def _shift_left(self):
        # LQ from the QR of the transpose: a = rm.T @ q.T, q.T has orthonormal rows
        c = self.center
        a, b = self.tensors[c], self.tensors[c - 1]
        own = _own_part(a, self.ranks[:, c], self.ranks[:, c + 1])
        if own is not None:  # columns (r, s), so a lane's own ones come first
            a = own.swapaxes(-1, -2)
        n, l, s, r = a.shape
        q, rm = np.linalg.qr(a.reshape(n, l, s * r).swapaxes(-1, -2))
        q = q.swapaxes(-1, -2).reshape(n, -1, s, r)
        self.tensors[c] = q if own is None else q.swapaxes(-1, -2)
        self.tensors[c - 1] = (b.reshape(n, -1, l) @ rm.swapaxes(-1, -2)).reshape(
            b.shape[:-1] + (-1,)
        )
        self.ranks[:, c] = np.minimum(self.ranks[:, c], 2 * self.ranks[:, c + 1])
        self.center = c - 1

    def _move_center(self, pos: int):
        while self.center < pos:
            self._shift_right()
        while self.center > pos:
            self._shift_left()

    # -- norms -------------------------------------------------------------

    def norm(self) -> float:
        """Exact global norm of a one-lane state by transfer contraction (gauge-independent)."""
        self._one_lane("norm")
        env = np.ones((1, 1), dtype=complex)
        for t in self.tensors:
            env = np.einsum("ab,aso,bsp->op", env, t[0], t[0].conj(), optimize=True)
        sq = env[0, 0].real
        for s in self._loose_slots():
            sq *= np.vdot(self.loose[s, 0], self.loose[s, 0]).real
        return float(np.sqrt(max(sq, 0.0)))

    # -- gates -------------------------------------------------------------

    def apply_1q(self, site: int, g: np.ndarray):
        """Single-qubit unitary; preserves canonical form, no center move."""
        i = self._int(site)
        if i is None:
            self.loose[site] = self.loose[site] @ g.T
            return
        t = self.tensors[i]
        # broadcast over the lanes: a stacked matmul pays per 2x2 product
        self.tensors[i] = g[:, :1] * t[..., :1, :] + g[:, 1:] * t[..., 1:, :]

    def apply_2q(
        self, i: int, j: int, g: np.ndarray, policy: TruncationPolicy = DEFAULT_POLICY,
        kraus=None, rng=None,
    ):
        """Two-qubit unitary on sites (i, j); pairs not adjacent on the chain are swap-routed.

        A loose site joins the chain first (_join), so routing runs over
        chain positions. The gate matrix is ordered so its first tensor
        factor acts on i. The gate's block is truncated per policy, with
        the discarded probability mass accumulated in discarded; the
        routing swaps follow the policy's swap rule, exact for a lane
        within its peak chi and truncated otherwise. With ``kraus``, the
        channel then acts on site i and after it on site j, each
        Born-sampled like apply_kraus (one rng.random() per site) on the
        gate's two-site block before it is split; the pair of sampled
        indices is returned, each an array over the lanes live on return,
        otherwise None. On return each live lane's peak is raised to its
        largest rank.
        """
        if i == j:
            raise MpsError("two-qubit gate needs distinct sites")
        i_right = j < i
        if i_right:
            g = g.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            i, j = j, i
        a, b = self._join(i), self._join(j)  # i < j: joining j leaves a in place
        # bring the content of internal position b down next to a; the
        # centre stays on the left site so it travels down with the swaps
        for k in range(b, a + 1, -1):
            self._apply_adjacent(k - 1, None, policy, center_left=True)
        picks = self._apply_adjacent(a, g, policy, kraus=kraus, rng=rng, i_right=i_right)
        drawn = self.lanes
        for k in range(a + 1, b):
            self._apply_adjacent(k, None, policy)
        # read after the swaps back: the ranks the routing passes through do not count
        self.peak[self.lanes] = np.maximum(self.peak[self.lanes], self.ranks.max(axis=1))
        if picks is not None and self.lanes is not drawn:  # a swap back retired lanes
            kept = np.isin(drawn, self.lanes)
            picks = tuple(q[kept] for q in picks)
        return picks

    def _apply_adjacent(
        self, pos: int, g: np.ndarray | None, policy: TruncationPolicy,
        center_left: bool = False, kraus=None, rng=None, i_right: bool = False,
    ):
        """Two-site update on (pos, pos+1); g None swaps the two sites (_swap).

        The centre moves only if it lies outside the block. Afterwards it
        sits on pos+1, or on pos if center_left is set. A gate's block is
        split by truncated SVD (_svd_split), a swap's by the swap rule.
        With ``kraus`` the channel is sampled on the left site and then on
        the right one (the other way round if i_right) after the gate
        (_sample_pair), and the two indices are returned.
        """
        if self.center < pos:
            self._move_center(pos)
        elif self.center > pos + 1:
            self._move_center(pos + 1)
        a, b = self.tensors[pos], self.tensors[pos + 1]
        n, l, r = len(a), a.shape[-3], b.shape[-1]
        theta = a.reshape(n, l * 2, -1) @ b.reshape(n, -1, 2 * r)
        if g is None:
            return self._swap(pos, theta.reshape(n, l, 2, 2, r), policy, center_left)
        theta = np.matmul(g, theta.reshape(n, l, 4, r))
        picks = None
        if kraus is not None:
            picks, theta = self._sample_pair(theta, kraus, rng, i_right)
        left, right, kept = self._svd_split(pos, theta, policy, center_left)
        if kept is not None and picks is not None:
            picks = tuple(q[kept] for q in picks)
        self.tensors[pos], self.tensors[pos + 1] = left, right
        self.center = pos if center_left else pos + 1
        return picks

    def _svd_split(self, pos, theta, policy, center_left, rows=slice(None)):
        """Split the block theta (B, l, 4, r) of the lanes ``rows`` at pos by truncated SVD.

        Returns the left and right tensors, the centre's side (the left one
        if center_left) carrying the kept singular values, and the mask of
        the lanes kept (None when all were).
        """
        n, l, _, r = theta.shape
        u, s, vh = _robust_svd(theta.reshape(n, l * 2, 2 * r))
        s, kept = self._truncate(s, policy, pos, rows)
        if kept is not None:
            u, vh = u[kept], vh[kept]
        n, width = s.shape
        if width < u.shape[-1]:
            u, vh = u[..., :width], vh[..., :width, :]
        # u and vh are the SVD's own arrays, so they can be scaled in place
        if center_left:
            u *= s[..., None, :]
        else:
            vh *= s[..., None]
        return u.reshape(n, l, 2, width), vh.reshape(n, width, 2, r), kept

    def _swap(self, pos: int, theta: np.ndarray, policy: TruncationPolicy, center_left: bool):
        """Swap the sites of the block theta (B, l, 2, 2, r) at pos by TruncationPolicy's swap rule.

        The lanes the rule splits exactly take _exact_split and the others
        _svd_split; a block that holds both splits each kind as a subset of
        its lanes and pads the two to one width.
        """
        n, l, _, _, r = theta.shape
        rl, rr = self.ranks[:, pos], self.ranks[:, pos + 2]
        bound = 2 * np.minimum(rl, rr)
        exact = bound <= self.peak[self.lanes]
        if exact.all():
            left, right = _exact_split(theta, rl, rr, center_left)
            self.ranks[:, pos + 1] = bound
        elif not exact.any():
            swapped = theta.swapaxes(-3, -2).reshape(n, l, 4, r)
            left, right, _ = self._svd_split(pos, swapped, policy, center_left)
        else:
            lanes, svd = self.lanes, ~exact
            el, er = _exact_split(theta[exact], rl[exact], rr[exact], center_left)
            self.ranks[exact, pos + 1] = bound[exact]
            swapped = theta[svd].swapaxes(-3, -2).reshape(-1, l, 4, r)
            sl, sr, _ = self._svd_split(pos, swapped, policy, center_left, svd)
            live = np.isin(lanes, self.lanes)  # a lane past hard_fail_chi has left
            w = max(el.shape[-1], sl.shape[-1])
            left = np.zeros((n, l, 2, w), dtype=theta.dtype)
            right = np.zeros((n, w, 2, r), dtype=theta.dtype)
            left[exact, ..., : el.shape[-1]], right[exact, : el.shape[-1]] = el, er
            left[svd & live, ..., : sl.shape[-1]], right[svd & live, : sl.shape[-1]] = sl, sr
            left, right = left[live], right[live]
        self.tensors[pos], self.tensors[pos + 1] = left, right
        self.center = pos if center_left else pos + 1

    def _truncate(self, s: np.ndarray, policy: TruncationPolicy, pos: int, rows=slice(None)):
        """Truncate the singular values s (B, k) of the block at pos; returns (values, lanes kept).

        Values with s/s_max >= svd_cutoff (SVD_FLOOR at least) are kept, at
        least one and at most chi_max, and a count above hard_fail_chi
        fails. The kept values take the weight of all of them; the
        discarded fraction adds to discarded. Each lane counts among the
        values of its own block and fails alone, its values past its own
        rank are zeroed, and the values come cut to the largest rank kept.
        When every lane keeps the same count, the common case, that is one
        slice of all rows. The mask of lanes kept is None when all were.
        s may hold a subset ``rows`` (a mask) of the lanes.
        """
        cap, cut = policy.hard_fail_chi, max(policy.svd_cutoff, SVD_FLOOR)
        s2 = s * s
        # a lane's values past its own rank are padding; the cutoff may not keep them
        own = 2 * np.minimum(self.ranks[rows, pos], self.ranks[rows, pos + 2])
        if (s[:, 0] > 0.0).all():  # s0 / s0 = 1 passes the cutoff, so every lane keeps one or more
            want = np.minimum((s / s[:, :1] >= cut).sum(axis=1), own)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                want = (s / s[:, :1] >= cut).sum(axis=1)
            want = np.where(s[:, 0] > 0.0, np.clip(want, 1, own), 1)
        lanes_kept = None
        if cap is not None and (want > cap).any():
            over = np.zeros(len(self.lanes), dtype=bool)
            over[rows] = want > cap
            live = self._retire(over, TruncationOverflow, [
                f"needed bond {w} exceeds hard_fail_chi={cap}" for w in want[want > cap]
            ])
            lanes_kept = live[rows]
            if not isinstance(rows, slice):
                rows = rows[live]
            s, s2, want = s[lanes_kept], s2[lanes_kept], want[lanes_kept]
        keep = np.minimum(want, policy.chi_max)
        self.ranks[rows, pos + 1] = keep
        lanes, width = self.lanes[rows], keep.max(initial=0)
        if (keep == width).all():  # one slice of every row
            kept = s2.sum(axis=1)
            total = np.maximum(kept, PROB_FLOOR)
            if width < s.shape[1]:
                self.discarded[lanes] += s2[:, width:].sum(axis=1) / total
                s, kept = s[:, :width], s2[:, :width].sum(axis=1)
            return s / np.sqrt(kept / total)[:, None], lanes_kept
        total = np.maximum(s2.sum(axis=1, keepdims=True), PROB_FLOOR)
        tail = np.arange(s.shape[1]) >= keep[:, None]
        self.discarded[lanes] += np.where(tail, s2, 0.0).sum(axis=1) / total[:, 0]
        kept = np.where(tail, 0.0, s2).sum(axis=1, keepdims=True)
        return np.where(tail, 0.0, s)[:, : keep.max()] / np.sqrt(kept / total), lanes_kept

    def _retire(self, bad, error: type | None = None, texts=()) -> np.ndarray:
        """Take the lanes flagged in bad out of the state; returns the kept mask.

        With an error type, each flagged lane fails: its "ErrorType: text",
        from texts (one message per flagged lane), is kept in self.failed.
        Without one the lanes end without a record. Retiring the last lane
        stops the kernel: it raises the first flagged lane's error, or
        MpsError when they left without one.
        """
        if error is not None:
            for lane, text in zip(self.lanes[bad].tolist(), texts):
                self.failed[lane] = f"{error.__name__}: {text}"
        keep = ~bad
        self.tensors = [t[keep] for t in self.tensors]
        self.loose = self.loose[:, keep]
        self.ranks, self.lanes = self.ranks[keep], self.lanes[keep]
        if not self.lanes.size:  # nothing left to run the rest of the kernel on
            raise MpsError("every lane has left the state") if error is None else error(texts[0])
        return keep

    # -- stochastic events -------------------------------------------------

    def apply_kraus(self, site: int, kraus, rng) -> np.ndarray:
        """Sample a Kraus outcome by the Born rule and apply it; one index per lane left.

        Consumes exactly one rng.random() per call, matching the dense
        oracle's consumption so shared-seed runs stay in lockstep.
        """
        i = self._int(site)
        pick, x = self._sample_kraus(self._readout_site(site, i), kraus, rng)
        if i is None:
            self.loose[site] = x[:, 0, :, 0]
        else:
            self.tensors[i] = x
        return pick

    def _sample_kraus(self, x: np.ndarray, kraus, rng):
        """Born-sample a Kraus branch on the middle leg of x, shaped (B, L, 2, R).

        x must hold the whole state's weight (the centre site or block), so
        its reduced state on that leg is the site's: rho = X X^dag with X the
        leg-first matrix, and for Hermitian rho p_k = tr(M_k^dag M_k rho) =
        sum_st E_k[s, t] conj(rho[s, t]). Lanes failing the Born checks are
        retired first. Draws one rng.random() and returns each lane's index
        and normalized branch M_k x / sqrt(p_k).
        """
        m = x.swapaxes(-3, -2).reshape(len(x), 2, -1)
        rho = m @ m.conj().swapaxes(-1, -2)
        probs = (rho.conj().reshape(len(x), 4) @ kraus.effects.reshape(len(kraus), -1).T).real
        total = probs.sum(-1)
        bad = ~(abs(total - 1.0) <= 1e-10)  # also flags a total below PROB_FLOOR, or NaN
        if bad.any():
            kept = self._retire(bad, MpsError, _born_failures(total[bad]))
            x, probs = x[kept], probs[kept]
        pick, p = _born_pick(probs, rng.random()[self.lanes])
        # each lane's normalized operator, shaped (B, 1, 2, 2, 1) to meet x's legs
        op = (kraus.stacked[pick] / np.sqrt(p)[:, None, None])[:, None, :, :, None]
        return pick, op[..., 0, :] * x[..., :1, :] + op[..., 1, :] * x[..., 1:, :]

    def _sample_pair(self, theta: np.ndarray, kraus, rng, i_right: bool):
        """_sample_kraus on both sites of a two-site block theta (B, l, 4, r).

        The channel acts on the gate's site i first, the block's right site
        if i_right, then on its site j: the same picks as two _sample_kraus
        calls, from one joint table. P[k_i, k_j] = tr[(E_ki kron E_kj) rho]
        over the block's two-site reduced state rho; k_i is Born-picked from
        P's row sums with the first rng.random() and k_j from row k_i,
        over its sum p_i, with the second. The branch (M_ki kron M_kj) /
        sqrt(p_i p_j|i), which is P[k_i, k_j] to roundoff, then acts on the
        block at once, as the two one-site branches would. Returns the pair
        of picks and the branch of the lanes left; a lane whose table does
        not sum to 1 leaves first.
        """
        n = len(kraus)
        x = theta.swapaxes(-3, -2).reshape(len(theta), 4, -1)
        rho = x @ x.conj().swapaxes(-1, -2)
        table = (rho.view(float).reshape(len(rho), -1) @ kraus.pair_effects.T).reshape(-1, n, n)
        if i_right:  # the table's rows are indexed by site i's outcome
            table = table.swapaxes(-1, -2)
        first = table.sum(-1)
        total = first.sum(-1)
        bad = ~(abs(total - 1.0) <= 1e-10)  # also flags a total below PROB_FLOOR, or NaN
        if bad.any():
            kept = self._retire(bad, MpsError, _born_failures(total[bad]))
            theta, table, first = theta[kept], table[kept], first[kept]
        pick_i, p_i = _born_pick(first, rng.random()[self.lanes])
        row = table[np.arange(len(pick_i)), pick_i]
        pick_j, p_j = _born_pick(row / p_i[:, None], rng.random()[self.lanes])
        pair = pick_j * n + pick_i if i_right else pick_i * n + pick_j
        op = kraus.pair_stacked[pair] / np.sqrt(p_i * p_j)[:, None, None]
        return (pick_i, pick_j), np.matmul(op[:, None], theta)

    def measure_reset(self, site: int, rng) -> np.ndarray:
        """Measure in the computational basis, record the bit, reset to |0>.

        Draws one rng.random(): a lane's bit is 0 when its uniform falls
        below its p0, the weight on 0. Returns one bit per lane left; a lane
        on a null branch leaves first as failed.
        """
        i = self._int(site)
        a0 = self._readout_site(site, i)[..., 0, :]
        p0 = np.einsum("...ij,...ij->...", a0.conj(), a0).real
        one = rng.random()[self.lanes] >= p0
        bit = one.astype(int)
        p = np.where(one, 1.0 - p0, p0)
        null = ~(p >= PROB_FLOOR)
        if null.any():
            text = "measurement hit a numerically null branch"
            kept = self._retire(null, MpsError, [text] * np.count_nonzero(null))
            bit, p = bit[kept], p[kept]
        self._project_reset(site, i, bit, p)
        return bit

    def project_onto(self, site: int, bit: int) -> np.ndarray:
        """Project a site onto a given bit, reset it to |0>; one probability per lane left.

        A lane whose probability is not finite leaves first as failed; one
        whose probability falls below the floor leaves silently (its weight
        is 0).
        """
        i = self._int(site)
        a = self._readout_site(site, i)[..., bit, :]
        p = np.einsum("...ij,...ij->...", a.conj(), a).real
        broken = ~np.isfinite(p)
        if broken.any():
            p = p[self._retire(broken, MpsError, [
                f"projection probability {q} is not finite" for q in p[broken]
            ])]
        low = p < PROB_FLOOR
        if low.any():
            p = p[self._retire(low)]
        self._project_reset(site, i, bit, p)
        return p

    def _readout_site(self, site: int, i: int | None) -> np.ndarray:
        """The (B, l, 2, r) tensor that holds a slot's weight: its chain
        tensor with the centre moved onto it, or its loose vectors as (B, 1, 2, 1)."""
        if i is None:
            return self.loose[site][:, None, :, None]
        self._move_center(i)
        return self.tensors[i]

    def _project_reset(self, site: int, i: int | None, bit, p):
        """Project a slot onto bit, whose weight is p, and leave it loose as |0>.

        i is the slot's chain position, None if it is loose already. bit is
        one int for every lane, or an array of one bit per lane. On the
        chain the projected site is a bare matrix m on its two bonds. Its SVD
        u s vh, cut at SVD_FLOOR relative, folds u into the left neighbour,
        which stays a left isometry, and s vh into the right one, the new
        centre, so the bond between them shrinks to the rank actually used;
        at an end of the chain m folds into the one neighbour. A loose slot,
        or the chain's only site, keeps its amplitude's phase on |0>, as the
        chain keeps it in m.
        """
        v = self.loose[site]
        if i is None:
            amp = v[:, bit] if np.ndim(bit) == 0 else v[np.arange(len(bit)), bit]
            v[:, 0], v[:, 1] = amp / np.sqrt(p), 0.0
            return
        v[:, 0], v[:, 1] = 1.0, 0.0
        a = self.tensors[i]
        m = a[:, :, bit, :] if np.ndim(bit) == 0 else a[np.arange(len(bit)), :, bit]
        m = m / np.sqrt(p)[:, None, None]
        n, l, r = m.shape
        n_int = len(self.tensors)
        gone = i  # the ranks column that goes with the site
        if 0 < i < n_int - 1:
            u, s, vh = _robust_svd(m)
            # each lane's values past its own rank are zeroed
            keep = (s / np.maximum(s[:, :1], PROB_FLOOR) >= SVD_FLOOR).sum(axis=1)
            own = np.minimum(self.ranks[:, i], self.ranks[:, i + 1])
            keep = np.minimum(np.maximum(keep, 1), own)
            self.ranks[:, i + 1] = keep
            s = np.where(np.arange(s.shape[-1]) < keep[:, None], s, 0.0)
            width = int(keep.max())
            b = self.tensors[i - 1]
            self.tensors[i - 1] = (b.reshape(n, -1, l) @ u[..., :width]).reshape(
                b.shape[:-1] + (width,)
            )
            b = self.tensors[i + 1]
            self.tensors[i + 1] = (
                (s[..., :width, None] * vh[..., :width, :]) @ b.reshape(n, r, -1)
            ).reshape((n, width) + b.shape[-2:])
            self.center = i
        elif i < n_int - 1:  # the first site: l = 1
            b = self.tensors[1]
            self.tensors[1] = (m @ b.reshape(n, r, -1)).reshape((n, 1) + b.shape[-2:])
            self.center, gone = 0, 1
        elif n_int > 1:  # the last site: r = 1
            b = self.tensors[i - 1]
            self.tensors[i - 1] = (b.reshape(n, -1, l) @ m).reshape(b.shape[:-1] + (1,))
            self.center = i - 1
        else:  # the only site: m is its amplitude's phase, which stays on |0>
            v[:, 0] = m[:, 0, 0]
            self.center = 0
        del self.tensors[i], self._keys[i]
        self.ranks = np.delete(self.ranks, gone, axis=1)

    # -- entanglement telemetry -------------------------------------------

    def entropy(self, cut: int) -> np.ndarray:
        """Von Neumann entropy across the bond left of system site `cut`, one per lane left.

        An attached reference counts on the left of every cut. A lane with a
        null spectrum leaves first as failed.
        """
        if not 1 <= cut <= len(self.loose) - 1:
            raise MpsError(f"cut {cut} out of range")
        ic = bisect_left(self._keys, 2 * cut)
        if not 0 < ic < len(self.tensors):  # the whole chain lies on one side
            return _spectrum_entropy(np.ones((len(self.lanes), 1)))
        self._move_center(ic - 1)
        a = self.tensors[ic - 1]
        n, l, s, r = a.shape
        sv = _robust_svd(a.reshape(n, l * s, r))[1]
        total = np.sum(sv**2, axis=-1)
        null = total <= 0.0
        if null.any():
            text = "null state has no Schmidt spectrum"
            kept = self._retire(null, MpsError, [text] * int(null.sum()))
            sv, total = sv[kept], total[kept]
        return _spectrum_entropy((sv / np.sqrt(total)[..., None]) ** 2)

    # -- reference qubit ---------------------------------------------------

    def attach_reference(self, site: int) -> None:
        """Bell-pair a fresh reference site with `site` in every lane.

        The chain must be empty and the partner a loose |0>, as at the start
        of a run. The chain becomes [reference, partner] holding (|00> +
        |11>)/sqrt(2), the reference at order key -1, so it stays at the
        chain's left end. The reference is invisible to all site-indexed
        operations.
        """
        if self.tensors:
            raise MpsError("the reference attaches to an empty chain")
        self._int(site)  # range check
        if not (abs(self.loose[site][:, 1]) <= 1e-12).all():
            raise MpsError("reference partner must be a fresh |0> product site")
        n = len(self.lanes)
        ref = np.zeros((n, 1, 2, 2), dtype=complex)
        ref[:, 0, 0, 0] = ref[:, 0, 1, 1] = 1.0 / np.sqrt(2.0)
        partner = np.zeros((n, 2, 2, 1), dtype=complex)
        partner[:, 0, 0, 0] = partner[:, 1, 1, 0] = 1.0
        self.tensors, self._keys, self.center = [ref, partner], [_REF, 2 * site], 0
        self.ranks = np.tile([1, 2, 1], (n, 1))

    def reference_entropy(self) -> np.ndarray:
        """Von Neumann entropy of the reference's one-site reduced state, one per lane.

        It is exactly 0 for a lane whose bond right of the reference has own
        rank 1, whose reduced state has rank 1, rather than the roundoff of
        its eigenvalues.
        """
        if not self._has_ref():
            raise MpsError("no reference attached")
        self._move_center(0)
        a = self.tensors[0][:, 0]  # (B, 2, r): the reference's leg, then its right bond
        evals = np.clip(np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2)), 0.0, None)
        h = _spectrum_entropy(evals / evals.sum(axis=-1, keepdims=True))
        return np.where(self.ranks[:, 1] == 1, 0.0, h)

    # -- dense access ------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Full amplitude tensor of a one-lane state, shape (2,)*n over all
        sites: the reference first if attached, then the slots in slot order."""
        self._one_lane("to_dense")
        acc = np.ones((1, 1), dtype=complex)
        for t in self.tensors:
            acc = np.tensordot(acc, t[0], axes=(acc.ndim - 1, 0))
        acc, keys = acc[0, ..., 0], list(self._keys)
        for s in self._loose_slots():
            acc = np.multiply.outer(acc, self.loose[s, 0])
            keys.append(2 * s)
        return acc.transpose(np.argsort(keys))

    def amplitude(self, bits) -> complex:
        """<bits|psi> of a one-lane state without a reference."""
        self._one_lane("amplitude")
        bits = [int(b) for b in bits]
        if len(bits) != self.n_sites:
            raise MpsError("bitstring length mismatch")
        if self._has_ref():
            raise MpsError("amplitude undefined with a reference attached")
        vec = np.ones((1,), dtype=complex)
        for t, k in zip(self.tensors, self._keys):
            vec = vec @ t[0, :, bits[k // 2], :]
        amp = complex(vec[0])
        for s in self._loose_slots():
            amp *= complex(self.loose[s, 0, bits[s]])
        return amp


def _exact_split(theta: np.ndarray, rl: np.ndarray, rr: np.ndarray, center_left: bool):
    """The exact split (left, right) of swapped blocks theta (B, l, 2, 2, r) of own ranks rl, rr.

    It reads the swapped block as a matrix m with rows (l, s) and columns
    (r, s), so each lane's own rows and columns come first, with its
    padding zeroed (_own_part), and cuts it to the widest lane's bound
    2 min(rl, rr): past its own bound a lane's part of m is padding. With
    the centre on the left and every lane's rr <= rl, m is the left tensor
    and the identity the right one; with the centre on the right and every
    lane's rl <= rr, the identity is the left tensor and m the right one.
    Otherwise one stacked QR of m (an LQ for the centre on the left)
    splits it.
    """
    n, l, _, _, r = theta.shape
    own = _own_part(theta.reshape(n, l, 4, r), rl, rr)
    if own is not None:
        theta = own.reshape(theta.shape)
    m = theta.transpose(0, 1, 3, 4, 2).reshape(n, 2 * l, 2 * r)
    # a = q c puts the isometry q on a's rows: m's, or m^T's for the centre on the left
    a, side, other = (m.swapaxes(-1, -2), rr, rl) if center_left else (m, rl, rr)
    w = 2 * np.minimum(rl, rr).max()
    if (side <= other).all():  # a read-only identity: no kernel writes a tensor in place
        d = a.shape[-2]
        q, c = np.broadcast_to(np.eye(d, w, dtype=a.dtype), (n, d, w)), a[:, :w]
    else:
        q, c = np.linalg.qr(a)
        q, c = q[..., :w], c[:, :w]
    left, right = (c.swapaxes(-1, -2), q.swapaxes(-1, -2)) if center_left else (q, c)
    # the right tensor's columns are (r, s): put its physical leg in the middle
    return left.reshape(n, l, 2, w), right.reshape(n, w, r, 2).swapaxes(-1, -2)


def _own_part(t: np.ndarray, rl: np.ndarray, rr: np.ndarray) -> np.ndarray | None:
    """t (B, l, s, r) with each lane's entries past its own ranks rl, rr zeroed.

    None when no lane is padded there. Householder QR leaves rows that
    are exactly zero out of every reflector, so with the padding zeroed
    and a lane's own rows first, a rank-deficient lane completes its
    isometry inside its own ranks, as it would alone, and roundoff in
    the padding cannot tilt it.
    """
    l, r = t.shape[-3], t.shape[-1]
    if (rl == l).all() and (rr == r).all():
        return None
    rows, cols = np.arange(l) < rl[:, None], np.arange(r) < rr[:, None]
    return t * (rows[:, :, None, None] & cols[:, None, None, :])


def _born_pick(probs: np.ndarray, u: np.ndarray):
    """Each lane's first index at which the running sum of its probs exceeds its u,
    and that index's probability.

    probs (B, k) and u (B,); the last index is picked when no sum does.
    Picks and probabilities come as (B,) arrays.
    """
    hit = u[:, None] < probs.cumsum(axis=1)
    hit[:, -1] = True  # argmax takes the first True: the last index only when no sum exceeds u
    pick = hit.argmax(axis=1)
    return pick, probs[np.arange(len(pick)), pick]


def _born_failures(total) -> list:
    """The failure text of each Born total that is not 1."""
    return [
        "all Kraus outcomes numerically degenerate" if t < PROB_FLOOR
        else f"Born probabilities sum to {t}, state unnormalized"
        for t in total
    ]


def _spectrum_entropy(p: np.ndarray):
    """Von Neumann entropy of each row of a stack of probability spectra."""
    live = p > 1e-300
    h = -np.sum(np.where(live, p * np.log(np.where(live, p, 1.0)), 0.0), axis=-1)
    return np.maximum(h, 0.0) + 0.0
