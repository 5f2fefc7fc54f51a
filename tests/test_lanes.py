"""Lane states: the trajectories of estimate_probability and sample run as
the lanes of one MPS give each trajectory the weight and the record it gets
when run alone."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sebd import mps, sampler
from sebd.channels import NoiseModel
from sebd.cli import main
from sebd.gates import CNOT, H, S
from sebd.lightcone import Gate, build_lattice, compile_sebd, random_instance
from sebd.mps import MatrixProductState, MpsError, TruncationPolicy
from sebd.sampler import (
    RunConfig,
    TrajectoryRecord,
    _bits_by_coord,
    _block_weights,
    _lane_blocks,
    _trajectory_rng,
    _uniform_tables,
    estimate_probability,
    purification_run,
    sample,
)

from one_lane import OneLane, step

FAILED_RE = re.compile(r"(\d+) trajectories failed and were excluded")

LATTICES = (
    ("square", 2, 3), ("square", 2, 4), ("square", 3, 3), ("square", 3, 4), ("heavy-hex", 7, None),
)
NOISES = (
    ("depolarizing", "weak-tetrahedron"),
    ("dephasing", "projective"),  # projections often hit 0: lanes end mid-block
    ("amplitude-damping", "canonical"),
)
# cutoffs of 1e-3 and 1e-2 truncate for real, so the lanes keep different
# ranks; cutoff 0 keeps every value above the SVD_FLOOR of roundoff
POLICIES = (
    TruncationPolicy(chi_max=256, svd_cutoff=1e-12),
    TruncationPolicy(chi_max=256, svd_cutoff=1e-3),
    TruncationPolicy(chi_max=4, svd_cutoff=1e-2),
    TruncationPolicy(chi_max=256, svd_cutoff=1e-2, hard_fail_chi=2),
    TruncationPolicy(chi_max=256, svd_cutoff=0.0),
)


def one_lane_weights(cfg: RunConfig, target: dict) -> np.ndarray:
    """Each trajectory of cfg replayed alone, in a state of one lane, by its own loop.

    Its weight is the product of its projection probabilities, 0 once a
    projection falls below the floor, NaN when it fails.
    """
    eff = cfg.circuit
    out = []
    for index in range(cfg.n_trajectories):
        rng = OneLane(_trajectory_rng(cfg.master_seed, index))
        psi = MatrixProductState.new_product_state(eff.n_sites)
        weight = 1.0
        try:
            for ev in eff.events():
                if not step(psi, ev, cfg.policy, rng, []):
                    weight *= psi.project_onto(ev.i, target[ev.coord])[0]
        except MpsError:  # the lane left: failed, or silently at a projection below the floor
            weight = np.nan if psi.failed else 0.0
        out.append(weight)
    return np.array(out)


def one_lane_records(cfg: RunConfig, mid_entropy: bool) -> list:
    """Each trajectory of cfg replayed alone, in a state of one lane, by its
    own loop, read out by measurement and reset.

    Its peak bond is read after every two-qubit gate and every row-step,
    its mid-cut entropy after every row-step (with mid_entropy), and an
    MpsError ends it with the error's text.
    """
    eff = cfg.circuit
    out = []
    for index in range(cfg.n_trajectories):
        rng = OneLane(_trajectory_rng(cfg.master_seed, index))
        psi = MatrixProductState.new_product_state(eff.n_sites)
        z, m, entropies, chi, failed = {}, [], [], 1, None
        try:
            for row in eff.rows:
                for ev in row:
                    if not step(psi, ev, cfg.policy, rng, m):
                        z[ev.coord] = int(psi.measure_reset(ev.i, rng)[0])
                    elif isinstance(ev, Gate) and ev.j is not None:
                        chi = max(chi, psi.max_bond())
                chi = max(chi, psi.max_bond())
                if mid_entropy:
                    entropies.append(float(psi.entropy(eff.n_sites // 2)[0]))
        except MpsError as exc:
            failed = f"{type(exc).__name__}: {exc}"
        out.append(TrajectoryRecord(
            seed=index, z=z, m=tuple(int(q[0]) for q in m), entropies=tuple(entropies),
            chi_max_seen=chi, trunc_total=psi.trunc_log, failed=failed,
        ))
    return out


def config(lattice, noise, epsilon, policy, seed, k):
    kind, form = noise
    c = random_instance(build_lattice(*lattice), "ABCD", "fsim", NoiseModel(kind, epsilon), seed)
    eff = compile_sebd(c, form)
    return RunConfig(eff, policy=policy, n_trajectories=k, master_seed=seed + 1)


@given(
    lattice=st.sampled_from(LATTICES),
    noise=st.sampled_from(NOISES),
    epsilon=st.sampled_from((0.05, 0.2)),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 10_000),
    closed_form=st.booleans(),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_lane_weights_match_one_lane(lattice, noise, epsilon, policy, seed, closed_form, data):
    cfg = config(lattice, noise, epsilon, policy, seed, k=16)
    eff = cfg.circuit
    n = len(eff.coords())
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="target")
    target = _bits_by_coord(eff, bits)
    want = one_lane_weights(cfg, target)
    with pytest.MonkeyPatch.context() as patch:
        if closed_form:  # every thin stack of the 16 lanes takes the closed-form SVD
            patch.setattr(mps, "THIN_SVD_MIN_LANES", {1: 1, 2: 1})
        got = _block_weights(cfg, target, range(cfg.n_trajectories))
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


@given(
    lattice=st.sampled_from(LATTICES),
    noise=st.sampled_from(NOISES),
    epsilon=st.sampled_from((0.05, 0.3)),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 10_000),
    closed_form=st.booleans(),
    mid_entropy=st.booleans(),
)
@settings(max_examples=30, deadline=None)
# hard_fail_chi=2 fails some lanes: of the first, in a routing swap that runs
# after their gate's noise picks were drawn; of the second, while the others
# go on truncating for real, so each keeps its own discarded weight
@example(
    lattice=("square", 3, 4), noise=NOISES[1], epsilon=0.3, policy=POLICIES[3], seed=0,
    closed_form=False, mid_entropy=False,
)
@example(
    lattice=("square", 3, 3), noise=NOISES[0], epsilon=0.3, policy=POLICIES[3], seed=0,
    closed_form=False, mid_entropy=True,
)
# and of the third, 14 of 16 lanes fail in routing swaps whose ranks run past
# those the gate leaves: their peak chi is read as their gates leave them
@example(
    lattice=("square", 4, 6), noise=NOISES[0], epsilon=0.05,
    policy=TruncationPolicy(chi_max=256, svd_cutoff=0.1, hard_fail_chi=6), seed=0,
    closed_form=False, mid_entropy=False,
)
# chi_max=3 binds on some lanes' routing swaps and not on others': a lane
# whose exact bound exceeds its peak, which chi_max caps, takes the SVD,
# and the rest split exactly, each as it would alone (lane 14's
# trunc_total moved by 3e-9 when the choice was made for the whole block)
@example(
    lattice=("heavy-hex", 7, None), noise=NOISES[2], epsilon=0.2,
    policy=TruncationPolicy(chi_max=3, svd_cutoff=1e-3), seed=3,
    closed_form=False, mid_entropy=False,
)
def test_lane_records_match_one_lane(
    lattice, noise, epsilon, policy, seed, closed_form, mid_entropy
):
    cfg = config(lattice, noise, epsilon, policy, seed, k=16)
    want = one_lane_records(cfg, mid_entropy)
    with pytest.MonkeyPatch.context() as patch:
        if closed_form:
            patch.setattr(mps, "THIN_SVD_MIN_LANES", {1: 1, 2: 1})
        got = sample(cfg, mid_entropy=mid_entropy)
    for g, w in zip(got, want, strict=True):
        assert (g.seed, g.z, g.m, g.chi_max_seen) == (w.seed, w.z, w.m, w.chi_max_seen)
        assert (g.ok, g.failed) == (w.ok, w.failed)
        # a discarded singular value s carries an error of about eps * s_max,
        # so its weight s^2 one of about 2 * eps * s: the error of the sum
        # grows with the square root of the weight a truncating policy drops
        assert abs(g.trunc_total - w.trunc_total) <= 1e-20 + 1e-14 * np.sqrt(w.trunc_total)
        np.testing.assert_allclose(g.entropies, w.entropies, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 3001, 2**32 + 7, 2**62 + 1, 2**63 + 5, -1])
def test_uniform_tables_are_the_trajectory_streams(seed):
    for indices in (range(1), range(5), range(128, 131), [0, 7, 2**40]):
        for n in (0, 1, 3, 4, 5, 37):
            got = _uniform_tables(seed, indices, n)
            want = np.array([_trajectory_rng(seed, i).random(n) for i in indices])
            want = want.reshape(len(indices), n)
            assert got.shape == want.shape
            assert (got.view(np.uint64) == want.view(np.uint64)).all()


@given(
    k=st.integers(2, 12),
    cap=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_block_size_changes_nothing(k, cap, seed):
    cfg = config(("square", 3, 3), NOISES[0], 0.1, POLICIES[1], seed=seed, k=k)
    bits = [1, 0, 0, 1, 1, 0, 1, 0, 0]
    whole = estimate_probability(cfg, bits)
    assert whole[0] > 0.0
    with pytest.MonkeyPatch.context() as patch:
        # a cap of `cap` lanes splits the k trajectories another way
        patch.setattr(sampler, "LANE_BLOCK", cap)
        assert len(_lane_blocks(k)) == -(-k // cap)
        blocks = estimate_probability(cfg, bits)
    np.testing.assert_allclose(blocks, whole, rtol=1e-12, atol=0.0)


@given(k=st.integers(1, 5000), cap=st.integers(1, 1024))
@settings(max_examples=200, deadline=None)
def test_lane_blocks_split_evenly_under_the_cap(k, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "LANE_BLOCK", cap)
        blocks = _lane_blocks(k)
    assert [i for b in blocks for i in b] == list(range(k))
    sizes = [len(b) for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= cap
    assert len(blocks) == -(-k // cap)  # the fewest blocks that fit


def test_benchmark_square_3x3_runs_as_one_lane_state(tmp_path, monkeypatch):
    # the benchmark_square_3x3 workload's K = 250 is one block
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        "lattice: square\nlx_list: [3]\nly: 3\nschedule: ABCD\ngate_family: fsim\n"
        "noise_kind: depolarizing\nunravel_form: weak-tetrahedron\nepsilons: [0.05]\n"
        "chi_max: 256\nsvd_cutoff: 1e-12\nn_trajectories: 250\nn_bitstrings: 1\n"
        "reference: mpo\nseeds: [3]\n"
    )
    made = []
    build = MatrixProductState.__dict__["new_product_state"].__func__

    def spy(cls, n, bits=None, lanes=1):
        made.append(lanes)
        return build(cls, n, bits, lanes)

    monkeypatch.setattr(MatrixProductState, "new_product_state", classmethod(spy))
    assert main(["benchmark", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    assert made == [250]


def test_purification_runs_one_lane_states_of_one_trajectory(monkeypatch):
    # purification runs each trajectory as a block of its own: a state of one lane
    cfg = config(("square", 3, 3), NOISES[0], 0.1, POLICIES[0], seed=3, k=5)
    made, blocks = [], []
    build = MatrixProductState.__dict__["new_product_state"].__func__
    run_block = sampler._run_block

    def spy(cls, n, bits=None, lanes=1):
        made.append(lanes)
        return build(cls, n, bits, lanes)

    def spy_block(cfg, indices, readout, probe=None, reference=False):
        blocks.append(list(indices))
        return run_block(cfg, indices, readout, probe, reference)

    monkeypatch.setattr(MatrixProductState, "new_product_state", classmethod(spy))
    monkeypatch.setattr(sampler, "_run_block", spy_block)
    assert len(purification_run(cfg)) == len(cfg.circuit.rows)
    assert made == [1] * 5
    assert blocks == [[i] for i in range(5)]


def test_failed_lanes_counted_like_one_lane():
    # with hard_fail_chi=2 a few of the 40 trajectories need a bond of 3
    policy = TruncationPolicy(chi_max=256, svd_cutoff=1e-2, hard_fail_chi=2)
    cfg = config(("square", 3, 3), NOISES[0], 0.3, policy, seed=3, k=40)
    bits = [0, 1, 1, 0, 1, 0, 0, 1, 0]
    want = int(np.isnan(one_lane_weights(cfg, _bits_by_coord(cfg.circuit, bits))).sum())
    assert 0 < want < cfg.n_trajectories
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_probability(cfg, bits)
    counts = [int(m.group(1)) for w in caught if (m := FAILED_RE.search(str(w.message)))]
    assert counts == [want]


def test_lane_state_reads_like_one_lane_state():
    # what per-trajectory telemetry reads off a state: one float, int bonds
    cfg = config(("square", 3, 3), NOISES[0], 0.1, TruncationPolicy(chi_max=1), seed=5, k=12)
    eff = cfg.circuit
    psi = MatrixProductState.new_product_state(eff.n_sites, lanes=12)
    rng = sampler._LaneUniforms(np.full((12, eff.counts()["noise"]), 0.5))
    for ev in eff.events():
        if not step(psi, ev, cfg.policy, rng, []):
            break
    assert type(psi.trunc_log) is float and psi.trunc_log > 0.0
    assert all(type(d) is int for d in psi.bond_dims())
    # ranks holds each lane's own dims of the chain's bonds, within the padded ones
    chain = [t.shape[-3] for t in psi.tensors] + [1]
    assert psi.ranks.shape == (12, len(chain))
    assert (psi.ranks <= np.array(chain)).all()



def test_svd_fallback_retries_lane_by_lane(monkeypatch):
    # a stacked SVD that fails to converge is redone one lane at a time;
    # scipy's gesvd fallback takes only single matrices before scipy 1.15
    cfg = config(("square", 3, 3), NOISES[0], 0.1, POLICIES[1], seed=5, k=12)
    eff = cfg.circuit
    target = _bits_by_coord(eff, [1, 0, 0, 1, 1, 0, 1, 0, 0])
    want = _block_weights(cfg, target, range(12))
    svd = np.linalg.svd
    gesvd = scipy.linalg.svd
    calls = {"stacked": 0}

    def stacked_fails(a, *args, **kwargs):
        if a.ndim > 2:
            calls["stacked"] += 1
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    def single_only(a, *args, **kwargs):
        if a.ndim > 2:
            raise ValueError("expected a 2-D array")
        return gesvd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", stacked_fails)
    monkeypatch.setattr(scipy.linalg, "svd", single_only)
    got = _block_weights(cfg, target, range(12))
    assert calls["stacked"] > 0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _spectra(counts, n=6, seed=0):
    """One row per lane, descending: counts[b] values in [0.05, 1] above n - counts[b] below 1e-7.

    Under a cutoff of 1e-3 lane b keeps exactly counts[b] values; a count
    of 0 gives an all-zero row and None a NaN one. Six columns keep every
    sum a plain loop, so the slice and the mask branches add in the same
    order.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for c in counts:
        if c is None:
            rows.append(np.full(n, np.nan))
            continue
        big = np.sort(rng.uniform(0.05, 1.0, c))[::-1]
        small = np.sort(rng.uniform(0.0, 1e-7, n - c))[::-1] if c else np.zeros(n)
        rows.append(np.concatenate([big, small]))
    return np.array(rows)


@pytest.mark.parametrize("counts, policy", [
    ((3, 3, 3, 3), TruncationPolicy(svd_cutoff=1e-3)),  # every lane keeps 3: the slice
    ((1, 3, 5, 2), TruncationPolicy(svd_cutoff=1e-3)),  # keeps differ: the masks
    ((6, 3, 5, 4), TruncationPolicy(chi_max=3, svd_cutoff=1e-3)),  # chi_max binds on all
    ((6, 1, 5, 4), TruncationPolicy(chi_max=3, svd_cutoff=1e-3)),  # and on some
    ((2, 0, 2, 2), TruncationPolicy(svd_cutoff=1e-3)),  # an all-zero lane
    ((2, 0, 1, 2), TruncationPolicy(svd_cutoff=1e-3)),
    ((2, None, 2, 2), TruncationPolicy(svd_cutoff=1e-3)),  # a NaN lane keeps one too
    ((1, None, 1, 1), TruncationPolicy(svd_cutoff=1e-3)),
    ((1, 4, 3, 5), TruncationPolicy(svd_cutoff=1e-3, hard_fail_chi=3)),  # two lanes retire
    ((2, 4, 2, 2), TruncationPolicy(svd_cutoff=1e-3, hard_fail_chi=3)),  # the rest agree
])
def test_lane_truncate_is_one_lane_truncate_per_lane(counts, policy):
    s = _spectra(counts)
    psi = MatrixProductState.new_product_state(3, lanes=len(counts))
    for slot in range(3):  # a chain of three sites, so bonds 1 and 3 frame pos 1
        psi._join(slot)
    psi.ranks[:] = s.shape[1]  # no lane's own rank binds at pos 1
    # an all-zero block has no weight to renormalize: 0 / 0 in both branches
    with np.errstate(invalid="ignore"):
        got, kept = psi._truncate(s, policy, 1)
    row = 0
    for lane, spectrum in enumerate(s):
        # the lane replayed alone, in a state of one lane on the same chain
        one = MatrixProductState.new_product_state(3)
        for slot in range(3):
            one._join(slot)
        one.ranks[:] = s.shape[1]
        try:
            with np.errstate(invalid="ignore"):
                (want,), _ = one._truncate(spectrum[None], policy, 1)
        except mps.TruncationOverflow as exc:
            assert psi.failed[lane] == f"TruncationOverflow: {exc}"
            assert lane not in psi.lanes
            continue
        assert psi.lanes[row] == lane
        width = len(want)
        np.testing.assert_array_equal(got[row, :width], want)
        if spectrum.sum() > 0.0:  # an all-zero or NaN lane's padding is NaN as well
            assert not got[row, width:].any()
        assert psi.ranks[row, 2] == width
        np.testing.assert_equal(psi.discarded[lane], one.discarded[0])
        row += 1
    assert row == len(psi.lanes) == got.shape[0]
    assert (kept is None) == (row == len(counts))
    assert got.shape[1] == psi.ranks[:, 2].max()


KRAUS_SETS = (
    NoiseModel("depolarizing", 0.2).kraus("weak-tetrahedron"),
    NoiseModel("amplitude-damping", 0.3).kraus("canonical"),
    NoiseModel("amplitude-damping", 0.3).kraus("optimized"),
)


def _born_total(text: str) -> float:
    return float(re.search(r"sum to (\S+),", text).group(1))


class _Draws:
    """An rng that hands out the given uniforms in order; OneLane makes it
    one lane's."""

    def __init__(self, *uniforms):
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms)


@pytest.mark.parametrize("kraus", KRAUS_SETS, ids=lambda k: k.label)
@pytest.mark.parametrize("i_right", [False, True])
def test_joint_table_picks_like_two_site_draws(kraus, i_right):
    # lane b draws the uniforms (u1, u2) of a grid point; lane 0 is unnormalized
    grid = np.linspace(0.005, 0.995, 15)
    u = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    lanes, l, r = len(u), 2, 3
    rng = np.random.default_rng(11)
    theta = rng.normal(size=(lanes, l, 4, r)) + 1j * rng.normal(size=(lanes, l, 4, r))
    theta /= np.linalg.norm(theta.reshape(lanes, -1), axis=1)[:, None, None, None]
    theta[0] *= 1.5
    psi = MatrixProductState.new_product_state(2, lanes=lanes)
    (pick_i, pick_j), branch = psi._sample_pair(theta, kraus, sampler._LaneUniforms(u), i_right)
    assert list(psi.lanes) == list(range(1, lanes))  # lane 0 left: the branch's rows are lanes 1..
    left, right = (l, 2, 2 * r), (2 * l, 2, r)
    for lane, uniforms in enumerate(u):
        # the lane replayed alone: two one-site draws in a state of one lane
        one = MatrixProductState.new_product_state(2)
        draws = OneLane(_Draws(*uniforms))
        x, picks = theta[lane : lane + 1], []
        try:
            for view in ((right, left) if i_right else (left, right)):
                pick, x = one._sample_kraus(x.reshape((1,) + view), kraus, draws)
                picks.append(pick[0])
        except MpsError as exc:  # the same failure, with a total equal to roundoff
            assert lane == 0 and psi.failed[0].startswith("MpsError: Born probabilities sum to")
            assert abs(_born_total(psi.failed[0]) - _born_total(str(exc))) <= 1e-12
            continue
        row = lane - 1
        assert (pick_i[row], pick_j[row]) == tuple(picks)
        # the branch is normalized by the pair's probability: it agrees as well
        np.testing.assert_allclose(branch[row], x.reshape(l, 4, r), rtol=0, atol=1e-12)
    assert len(set(zip(pick_i.tolist(), pick_j.tolist()))) > 1


def _entangled_state(lanes):
    """Slots 0 and 1 entangled on the chain; slots 2 and 3 loose, off |0>."""
    psi = MatrixProductState.new_product_state(4, lanes=lanes)
    psi.apply_1q(0, H)
    psi.apply_2q(0, 1, CNOT, POLICIES[0])
    psi.apply_1q(2, H)
    psi.apply_1q(3, H @ S)
    return psi


def _set_nan(psi, row=...):
    """Every amplitude of one lane (row), or of every lane, becomes NaN."""
    for t in psi.tensors:
        t[row] = np.nan
    psi.loose[:, row] = np.nan


NAN_EVENTS = {  # event -> run it on site s
    "idle noise": lambda psi, s, rng: psi.apply_kraus(s, KRAUS_SETS[0], rng),
    "noisy gate": lambda psi, s, rng: psi.apply_2q(s, s + 1, CNOT, POLICIES[0], KRAUS_SETS[0], rng),
    "measurement": lambda psi, s, rng: psi.measure_reset(s, rng),
    "projection": lambda psi, s, rng: psi.project_onto(s, 0),
}


@pytest.mark.parametrize("site", [0, 2], ids=["chain", "loose"])
@pytest.mark.parametrize("event", list(NAN_EVENTS))
def test_nan_lane_leaves_the_state(event, site):
    # a NaN lane fails every Born total, probability floor and finiteness
    # check, so it leaves as failed before it can record a pick, a bit or a
    # probability; the other lanes run on unchanged
    run = NAN_EVENTS[event]
    table = np.random.default_rng(4).uniform(0.1, 0.9, (3, 16))
    clean, psi = _entangled_state(3), _entangled_state(3)
    _set_nan(psi, 1)
    want, got = (run(state, site, sampler._LaneUniforms(table)) for state in (clean, psi))
    assert psi.lanes.tolist() == [0, 2]
    assert psi.failed[1].startswith("MpsError: ")
    if not isinstance(want, tuple):
        want, got = (want,), (got,)
    for w, g in zip(want, got):
        np.testing.assert_allclose(g, w[[0, 2]], rtol=1e-12)
    # then every slot, chain or loose, reads out as in the clean state
    rng_clean, rng = sampler._LaneUniforms(table[:, 8:]), sampler._LaneUniforms(table[:, 8:])
    for s in range(4):
        clean.apply_1q(s, H)
        psi.apply_1q(s, H)
        bits = clean.measure_reset(s, rng_clean)
        assert psi.measure_reset(s, rng).tolist() == bits[[0, 2]].tolist()
    one = _entangled_state(1)
    _set_nan(one)
    with pytest.raises(MpsError):
        run(one, site, OneLane(_Draws(0.5, 0.5)))
    assert one.failed[0].startswith("MpsError: ")


NAN_SVDS = {  # a noiseless event whose first step is an SVD of the NaN lane's block
    "gate": lambda psi: psi.apply_2q(0, 1, CNOT, POLICIES[0]),
    # slot 2 joins the chain, a swap brings it next to slot 0, and one takes it back
    "routing swap": lambda psi: psi.apply_2q(0, 2, CNOT, POLICIES[0]),
}


@pytest.mark.parametrize("event", list(NAN_SVDS))
def test_nan_lane_passes_an_svd(event):
    # three lanes take stacked LAPACK, which cannot factor a NaN block: the
    # NaN lane gets NaN factors and leaves at its next check, as failed,
    # while the other lanes run on unchanged
    run = NAN_SVDS[event]
    clean, psi = _entangled_state(3), _entangled_state(3)
    _set_nan(psi, 1)
    run(clean)
    run(psi)
    assert psi.lanes.tolist() == [0, 1, 2] and not psi.failed
    table = np.random.default_rng(5).uniform(0.1, 0.9, (3, 4))
    rng_clean, rng = sampler._LaneUniforms(table), sampler._LaneUniforms(table)
    for s in range(4):
        bits = clean.measure_reset(s, rng_clean)
        assert psi.measure_reset(s, rng).tolist() == bits[[0, 2]].tolist()
    assert psi.lanes.tolist() == [0, 2]
    assert psi.failed[1] == "MpsError: measurement hit a numerically null branch"
    one = _entangled_state(1)
    _set_nan(one)
    run(one)
    with pytest.raises(MpsError):
        one.measure_reset(0, OneLane(_Draws(0.5)))
