import functools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corona_lab import (
    Chain,
    ConstructionError,
    HorizonTooSmall,
    PreconditionViolation,
    SparseSet,
    TorusElement,
    build_tree,
    constant_one,
    delta_one,
    fx_profile,
    generate_chain,
    limit_stage,
    min_sufficient_horizon,
    successor_witness,
)
from corona_lab import tree as tree_mod
from corona_lab.cli import DEFAULT_SCHEDULE
from corona_lab.partitions import FxProfile, n_of
from corona_lab.torus import TWO_PI, sorted_unique
from corona_lab.tree import ScheduleEntry


def _interval(X, j):
    """The j-th interval [n(X, j), n(X, j+1)) of the partition of X."""
    return range(n_of(X, j), n_of(X, j + 1))


def test_chain_minimal():
    chain = generate_chain(1, 200, [1])
    assert chain.depth == 1
    entry = chain.schedules[0][0]
    a = n_of(chain.levels[1], entry.block)
    b = n_of(chain.levels[1], entry.block + 1)
    inside = np.count_nonzero(
        (chain.levels[0].enumeration > a) & (chain.levels[0].enumeration < b)
    )
    assert inside + 1 >= entry.m


def test_chain_depth3_schedule_1_to_8():
    chain = generate_chain(3, 100_000, list(range(1, 9)))
    assert chain.depth == 3


@pytest.mark.parametrize(
    "hi, m, message",
    [
        ([2, 8], 1, "level 1 not contained in level 0"),  # past the last point
        ([2, 3, 6], 1, "level 1 not contained in level 0"),  # a gap inside
        ([0, 2], 1, "level 1 not contained in level 0"),  # before the first
        ([1, 2, 4, 6], 1, "level 1 not strictly sparser"),
        ([4, 6], 4, "block 0 at level 0 has 2 interior boundaries, need 4"),
        # every point but the last in level 0, the last one past its end
        ([2, 4, 6, 7], 1, "level 1 not contained in level 0"),
        # three intervals hold only two interior boundaries, so m = 3 does
        # not fit, as successor_witness finds
        ([4, 6], 3, "block 0 at level 0 has 2 interior boundaries, need 3"),
    ],
)
def test_chain_invariants_reject(hi, m, message):
    lo = SparseSet([1, 2, 4, 6])
    with pytest.raises(ConstructionError, match=message):
        Chain(levels=(lo, SparseSet(hi)), schedules=((ScheduleEntry(m=m, block=0),),))


@pytest.mark.parametrize(
    "m, block",
    [(0, 3), (-3, 3), (2, 60), (2, -1), (True, 3), (2, False)],
    ids=["m-0", "m-negative", "block-past-the-end", "block-negative", "m-bool", "block-bool"],
)
def test_chain_refuses_schedule_entries_it_cannot_honour(m, block):
    # a witness takes m >= 1 steps across its block, one of level 1's 49
    # intervals: blocks 0 ... 48
    lo, hi = SparseSet(np.arange(1, 100)), SparseSet(np.arange(2, 100, 2))
    entry = ScheduleEntry(m=m, block=block)
    with pytest.raises(ConstructionError, match=rf"transition 0: {re.escape(repr(entry))}"):
        Chain(levels=(lo, hi), schedules=((entry,),))
    # the last interval is a block like any other
    Chain(levels=(lo, hi), schedules=((ScheduleEntry(m=1, block=48),),))


def test_chain_depth0():
    chain = generate_chain(0, 50, [1])
    assert chain.depth == 0 and chain.schedules == ()


def test_chain_horizon_too_small():
    with pytest.raises(HorizonTooSmall) as exc:
        generate_chain(3, 20, [4, 5])
    need = exc.value.min_horizon
    assert need is not None
    generate_chain(3, need, [4, 5])
    with pytest.raises(HorizonTooSmall):
        generate_chain(3, need - 1, [4, 5])
    assert min_sufficient_horizon(3, [4, 5]) == need


# the minimal horizons of the CLI's schedules (32, 36, 40, 48)[:depth]
_CLI_MIN_HORIZONS = [35, 213, 782, 2409, 4977, 10113, 20385, 40929, 82017, 164193,
                     328545, 657249, 1314657, 2629473]


@pytest.mark.parametrize("depth, need", enumerate(_CLI_MIN_HORIZONS, start=1))
def test_min_sufficient_horizon_cli_schedule(depth, need):
    assert min_sufficient_horizon(depth, list(DEFAULT_SCHEDULE[:depth])) == need


def _array_chain(depth, horizon, m_schedule):
    """The chain built on arrays by trial, as generate_chain built it before
    its layout came from one recurrence: raises HorizonTooSmall where the
    horizon leaves no room."""
    if horizon < 4:
        raise HorizonTooSmall("horizon too small for any chain")
    levels = [SparseSet(np.arange(1, horizon, dtype=np.int64))]
    schedules = []
    region_pos = 1
    for _t in range(depth):
        pts = levels[-1].enumeration
        cur = int(np.searchsorted(pts, region_pos))
        if cur >= pts.size:
            raise HorizonTooSmall("no room before scheduled region")
        head = tree_mod._pair_merge(0, cur)
        scheduled, sched = [], []
        for m in m_schedule:
            cur += m + 1
            if cur >= pts.size:
                raise HorizonTooSmall("scheduled region does not fit")
            sched.append(ScheduleEntry(m=int(m), block=head.size + len(scheduled)))
            scheduled.append(cur)
        region_pos = int(pts[cur]) + 1
        tail = tree_mod._pair_merge(cur, pts.size - 1)
        kept = np.concatenate((head, np.array(scheduled, dtype=np.int64), tail))
        if kept.size < 2:
            raise HorizonTooSmall("too few intervals after merging")
        levels.append(SparseSet(pts[kept]))
        schedules.append(tuple(sched))
    return Chain(levels=tuple(levels), schedules=tuple(schedules))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    depth=st.integers(0, 4),
    schedule=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    data=st.data(),
)
def test_min_sufficient_horizon_is_least(depth, schedule, data):
    # the array construction succeeds exactly from the least horizon on,
    # and where it does, generate_chain's levels and schedules are its own
    need = min_sufficient_horizon(depth, schedule)
    horizons = {3, need // 2, need - 1, need, need + 1, data.draw(st.integers(3, need + 150))}
    for h in sorted(horizons):
        if h < need:
            with pytest.raises(HorizonTooSmall):
                _array_chain(depth, h, schedule)
            with pytest.raises(HorizonTooSmall) as exc:
                generate_chain(depth, h, schedule)
            assert exc.value.min_horizon == need
            assert str(exc.value) == f"horizon {h} too small; need >= {need}"
            continue
        want, got = _array_chain(depth, h, schedule), generate_chain(depth, h, schedule)
        assert got.schedules == want.schedules
        assert len(got.levels) == len(want.levels)
        for a, b in zip(got.levels, want.levels):
            assert a.elements.dtype == b.elements.dtype
            assert np.array_equal(a.elements, b.elements)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    depth=st.integers(0, 64),
    schedule=st.lists(st.integers(1, 64), min_size=1, max_size=5),
)
def test_min_sufficient_horizon_is_at_least_two_to_the_depth_plus_one(depth, schedule):
    # the bound by which generate_chain refuses a depth d whose 2^(d + 1)
    # reaches the horizon limit
    assert min_sufficient_horizon(depth, schedule) >= 2 ** (depth + 1)


def test_min_sufficient_horizon_rejects_bad_schedule():
    with pytest.raises(PreconditionViolation):
        min_sufficient_horizon(2, [3, 0])


@pytest.mark.parametrize(
    "depth, schedule, message",
    [
        (-1, [1], "depth must be >= 0"),
        (-3, [0], "depth must be >= 0"),
        # a chain with no scheduled block has nothing for siblings to diverge on
        (1, [], "nonempty schedule"),
        (2, [], "nonempty schedule"),
    ],
)
def test_chain_layout_refuses_bad_depth_or_schedule(depth, schedule, message):
    with pytest.raises(PreconditionViolation, match=message):
        min_sufficient_horizon(depth, schedule)
    with pytest.raises(PreconditionViolation, match=message):
        generate_chain(depth, 1000, schedule)


def _dense_witness(X_lo, X_hi, schedule):
    # one jump entry per sample, summed in index order
    jumps = np.zeros(X_lo.last + 1)
    lo_pts = X_lo.enumeration
    for entry in schedule:
        a, b = n_of(X_hi, entry.block), n_of(X_hi, entry.block + 1)
        jumps[lo_pts[(lo_pts > a) & (lo_pts < b)]] += np.pi / entry.m
    return np.mod(np.cumsum(jumps), TWO_PI)


@pytest.mark.parametrize("depth, horizon, schedule", [(1, 200, [1]), (3, 5000, [32, 36, 40]),
                                                      (2, 3000, [2, 7, 7])])
def test_successor_witness_matches_dense_cumsum(depth, horizon, schedule):
    chain = generate_chain(depth, horizon, schedule)
    for t in range(depth):
        lo, hi, sched = chain.levels[t], chain.levels[t + 1], chain.schedules[t]
        w = successor_witness(chain, t)
        want = _dense_witness(lo, hi, sched)
        assert np.array_equal(w.phases.view(np.int64), want.view(np.int64))
        assert w.run_phases.size == sum(e.m for e in sched) + 1


def test_successor_witness_single_jump():
    chain = generate_chain(1, 200, [1])
    w = successor_witness(chain, 0)
    entry = chain.schedules[0][0]
    blk = _interval(chain.levels[1], entry.block)
    assert delta_one(w, blk) == pytest.approx(2.0, abs=1e-12)
    # exactly one jump of -1 inside the block
    vals = w.values(np.arange(blk.start, blk.stop))
    jumps = vals[1:] / vals[:-1]
    nontrivial = np.abs(jumps - 1.0) > 1e-9
    assert nontrivial.sum() == 1
    assert jumps[nontrivial][0] == pytest.approx(np.exp(1j * np.pi), abs=1e-12)


def test_successor_witness_m4():
    chain = generate_chain(1, 400, [4])
    w = successor_witness(chain, 0)
    entry = chain.schedules[0][0]
    blk = _interval(chain.levels[1], entry.block)
    vals = w.values(np.arange(blk.start, blk.stop))
    jumps = vals[1:] / vals[:-1]
    nontrivial = np.abs(jumps - 1.0) > 1e-9
    assert nontrivial.sum() == 4
    assert np.allclose(jumps[nontrivial], np.exp(1j * np.pi / 4), atol=1e-12)
    # endpoint values 1 and exp(i pi); the block realizes distance 2
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[-1] == pytest.approx(np.exp(1j * np.pi), abs=1e-12)
    assert delta_one(w, blk) == pytest.approx(2.0, abs=1e-12)
    # per fine double-interval the distance is the single-jump size
    prof = fx_profile(w, chain.levels[0])
    assert prof.d.max() == pytest.approx(2 * np.sin(np.pi / 8), abs=1e-12)
    assert 2 * np.sin(np.pi / 8) == pytest.approx(0.76537, abs=1e-5)


def test_successor_witness_empty_schedule():
    chain = generate_chain(1, 200, [2])
    w = successor_witness(Chain(levels=chain.levels, schedules=((),)), 0)
    assert delta_one(w, range(w.horizon)) == 0.0


@pytest.mark.parametrize("depth", [0, 2])
def test_successor_witness_refuses_a_transition_outside_the_chain(depth):
    # -1 is not the last transition, and a chain of depth d has transitions 0 .. d-1
    chain = generate_chain(depth, 3000, [32])
    for t in (-1, depth):
        with pytest.raises(PreconditionViolation, match=f"no transition {t}$"):
            successor_witness(chain, t)


def test_z_variant_requires_nondecreasing_schedule():
    chain = generate_chain(1, 2000, [4, 2])
    with pytest.raises(PreconditionViolation, match="nondecreasing"):
        build_tree(chain, z_variant=True)
    build_tree(chain)


def _branch(chain, eps=1.5, j0=2):
    tree = build_tree(chain, eps=eps, j0=j0)
    labels = ["1" * k for k in range(1, chain.depth + 1)]
    return tree, [tree.nodes[l] for l in labels]


# The limit stage: sparsify_limit chooses the blocks, merge_limit glues the
# branch's elements along them, and limit_stage rechecks the glued element.


def test_sparsify_limit_single_input():
    X = SparseSet(np.arange(2, 40, 2))
    alpha = TorusElement(np.random.default_rng(0).uniform(0, 2 * np.pi, 40))
    with pytest.raises(PreconditionViolation, match="at least two elements"):
        limit_stage([alpha], [X])


def test_sparsify_limit_two_equal_levels():
    X0 = SparseSet(np.arange(1, 60))
    X1 = SparseSet(np.arange(2, 60, 2))
    alpha = constant_one(60)
    beta, x_inf, worst = limit_stage([alpha, alpha], [X0, X1])
    # nothing to wait for: the first point of X1 opens block 1
    assert x_inf.elements.tolist() == [2, 58] and worst == 0.0
    assert np.all(beta.phases == 0.0)


def test_sparsify_limit_branch_recheck():
    chain = generate_chain(3, 20000, [32, 36, 40])
    tree, alphas = _branch(chain, eps=0.15, j0=10)
    alphas = [constant_one(chain.horizon)] + alphas
    beta, x_inf, worst = limit_stage(alphas, list(chain.levels), eps=0.15, j0=10)
    assert worst < 1.0
    # independent brute-force recheck of both closeness conditions on beta,
    # from the pair of each level that crosses into the element's next block
    pts = x_inf.enumeration
    K = len(alphas)
    for n in range(K - 1):
        npts = chain.levels[n].enumeration
        diff = beta.mul(alphas[n].inverse())
        for j in range(npts.size - 2):
            a, b = int(npts[j]), int(npts[j + 1])
            if b < pts[n + 1]:
                continue
            k = max(n + 1, int(np.searchsorted(pts, a, side="right")) - 1)
            assert delta_one(diff, range(a, b)) < 1.0 / k
            assert delta_one(diff, [a, b]) < 1.0 / k


def _count_fx_profile(monkeypatch):
    calls = []
    profile = tree_mod.fx_profile

    def counted(*args, **kw):
        calls.append(args)
        return profile(*args, **kw)

    monkeypatch.setattr(tree_mod, "fx_profile", counted)
    return calls


def test_sparsify_limit_profiles_each_pair_once(monkeypatch):
    chain = generate_chain(2, 20000, [32, 36])
    _, alphas = _branch(chain, eps=0.15, j0=10)
    calls = _count_fx_profile(monkeypatch)
    limit_stage([constant_one(chain.horizon)] + alphas, list(chain.levels), eps=0.15, j0=10)
    # the three pairs n < k once each, then beta against the first two elements
    assert len(calls) == 3 + 2


def _unglued(alphas, x_inf):
    # each block copies its element as it is: the gluing constants dropped
    pts = x_inf.enumeration
    ends = [*pts[1 : len(alphas)], alphas[0].horizon]
    return TorusElement(np.concatenate(
        [a.phase_at(np.arange(lo, hi)) for a, lo, hi in zip(alphas, pts, ends)]
    ))


def test_sparsify_limit_checks_only_earlier_levels(monkeypatch):
    # beta is rechecked against element n from the pair of level n that
    # crosses into block n+1 on, so a wrong gluing constant is caught there
    chain = generate_chain(2, 2000, [32, 36, 40])
    _, alphas = _branch(chain, eps=0.1, j0=10)
    alphas = [constant_one(chain.horizon)] + alphas
    _, x_inf, _ = limit_stage(alphas, list(chain.levels))
    b1 = int(x_inf.elements[0])
    monkeypatch.setattr(tree_mod, "_merge_limit", _unglued)
    with pytest.raises(ConstructionError, match=f"element 0 in block 1: .* at point {b1 - 1}$"):
        limit_stage(alphas, list(chain.levels))


def test_sparsify_limit_incoherent_rejected():
    X0 = SparseSet(np.arange(1, 40))
    X1 = SparseSet(np.arange(2, 40, 2))
    rng = np.random.default_rng(1)
    a0 = constant_one(40)
    a1 = TorusElement(rng.uniform(0, 2 * np.pi, 40))
    with pytest.raises(PreconditionViolation):
        limit_stage([a0, a1], [X0, X1], eps=0.1, j0=2)


@pytest.mark.parametrize("horizon", [2000, 20000])
def test_limit_stage_at_the_tightest_coherence_tolerance(horizon):
    # eps is the tree's own tightest tail_max; the pairs are profiled in the
    # direction the tree certifies, so a tree that passes passes the stage
    eps = 0.09813534865483663
    chain = generate_chain(2, horizon, [32, 36, 40])
    tree = build_tree(chain, z_variant=True, eps=eps, j0=10)
    assert max(c["tail_max"] for c in tree.certificates if c["kind"] == "coherence") == eps
    branch = [tree.nodes[l] for l in ("", "1", "11")]
    _, _, worst = limit_stage(branch, chain.levels, eps=eps, j0=10)
    assert worst == pytest.approx(0.1963, abs=1e-4)


@pytest.mark.parametrize(
    "kept, pair", [(0, "inputs 0 and 1"), (3, "beta and input 0")], ids=["pairs", "recheck"]
)
def test_limit_stage_checks_the_union_bound(monkeypatch, kept, pair):
    # profiles without their endpoint terms, from call `kept` on: the first
    # three profile the pairs, the next ones beta.  Element 1 jumps at points
    # of level 0, whose intervals are single points, so there only the
    # endpoint terms bound a double window
    chain = generate_chain(2, 2000, [32, 36, 40])
    tree = build_tree(chain)
    branch = [tree.nodes[l] for l in ("", "1", "11")]
    calls = []

    def dropped_endpoints(alpha, X, profile=tree_mod.fx_profile):
        prof = profile(alpha, X)
        calls.append(alpha)
        if len(calls) <= kept:
            return prof
        no_entries = np.empty(0, dtype=np.int64), np.empty(0)
        return FxProfile(prof.windows, prof.double, prof.single, no_entries)

    monkeypatch.setattr(tree_mod, "fx_profile", dropped_endpoints)
    with pytest.raises(ConstructionError, match=f"^union bound exceeded by .* {pair} on level 0$"):
        limit_stage(branch, chain.levels)


def _dense_limit_stage(alphas, levels):
    """(beta, x_inf, worst) by the sparsify and recheck steps of limit_stage
    as they read one float per window of dense profiles, before profiles
    were sparse; the coherence and union-bound checks are left out."""

    def dense(prof):
        d_endpoints = np.zeros(prof.windows)
        d_endpoints[prof.endpoints[0]] = prof.endpoints[1]
        return prof.d_single, d_endpoints

    K = len(alphas)
    last_pts = levels[-1].elements
    bounds, prev = [], 0
    for k in range(1, K):
        th, last_bad = 1.0 / k, 0
        for n in range(k):
            d_single, d_endpoints = dense(fx_profile(alphas[n].mul(alphas[k].inverse()), levels[n]))
            bad = np.nonzero((d_single[:-1] >= th) | (d_endpoints >= th))[0]
            if bad.size:
                last_bad = max(last_bad, int(levels[n].enumeration[bad.max() + 1]))
        prev = int(last_pts[(last_pts > prev) & (last_pts > last_bad)][0])
        bounds.append(prev)
    bounds.append(int(last_pts[-1]))
    x_inf = SparseSet(np.asarray(bounds, dtype=np.int64))
    beta = tree_mod._merge_limit(alphas, x_inf)
    bounds, worst = x_inf.enumeration, 0.0
    for n in range(K - 1):
        d_single, d_endpoints = dense(fx_profile(beta.mul(alphas[n].inverse()), levels[n]))
        pts = levels[n].enumeration
        j = np.arange(np.searchsorted(pts, bounds[n + 1]) - 1, pts.size - 2)
        k = np.maximum(np.searchsorted(bounds, pts[j], side="right") - 1, n + 1)
        d = np.maximum(d_single[j], d_endpoints[j])
        assert not np.any(d >= 1.0 / k)
        worst = max(worst, float((d * k).max(initial=0.0)))
    return beta, x_inf, worst


def _branches(depth, horizon, z_variant):
    chain = generate_chain(depth, horizon, DEFAULT_SCHEDULE[:depth])
    tree = build_tree(chain, z_variant=z_variant)
    leaves = [l for l in tree.nodes if len(l) == depth]
    return chain, [[tree.nodes[leaf[:n]] for n in range(depth + 1)] for leaf in leaves]


@pytest.mark.parametrize(
    "depth, horizon, z_variant, all_branches",
    [(2, 20000, True, False), (3, 100000, False, True), (3, 100000, True, True)],
    ids=["verify-branch", "depth-3", "depth-3-z"],
)
def test_limit_stage_is_bitwise_the_dense_oracle(depth, horizon, z_variant, all_branches):
    # the sparse sparsify and recheck read only the profiles' entries; the
    # blocks, the glued element and worst are bitwise those of every window
    chain, branches = _branches(depth, horizon, z_variant)
    if not all_branches:
        branches = [branches[-1]]  # the all-ones branch, as verify checks it
    for branch in branches:
        beta, x_inf, worst = limit_stage(branch, chain.levels)
        want_beta, want_x, want_worst = _dense_limit_stage(branch, chain.levels)
        assert beta.starts.tobytes() == want_beta.starts.tobytes()
        assert beta.run_phases.tobytes() == want_beta.run_phases.tobytes()
        assert x_inf.elements.tolist() == want_x.elements.tolist()
        assert np.float64(worst).tobytes() == np.float64(want_worst).tobytes()


def test_limit_stage_skips_the_interval_at_the_truncation():
    # element 1 swings by 0.6 inside the last interval of level 0, which ends
    # at the truncation and is not rechecked; every other pair is 0.0 apart
    X0, X1 = SparseSet(np.array([4, 8, 12, 16])), SparseSet(np.array([8, 16]))
    alphas = [constant_one(17), TorusElement.from_runs([0, 13, 15], [0.0, 0.3, 0.6], 17)]
    beta, x_inf, worst = limit_stage(alphas, [X0, X1], eps=0.65, j0=0)
    assert x_inf.elements.tolist() == [8, 16] and worst == 0.0
    assert _dense_limit_stage(alphas, [X0, X1])[2] == 0.0


def test_limit_stage_refuses_a_j0_past_every_window():
    # verify's branch with a last element that is not coherent with the
    # root: a j0 past every window of the pair's profile certified it before
    chain = generate_chain(2, 20000, DEFAULT_SCHEDULE[:3])
    tree = build_tree(chain, z_variant=True)
    branch = [tree.nodes[l] for l in ("", "1", "11")]
    branch[-1] = branch[-1].mul(TorusElement.from_runs([0, 5000], [0.0, 3.0], 20000))
    with pytest.raises(PreconditionViolation, match="^inputs 0 and 2 not coherent"):
        limit_stage(branch, chain.levels, j0=10)
    with pytest.raises(
        PreconditionViolation,
        match="^j0=1000000000 leaves no window of a profile with 19998 windows$",
    ):
        limit_stage(branch, chain.levels, j0=10**9)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_profiles_and_the_limit_stage_scale_with_run_breaks():
    # at h = 2e6, level 0 has 2e6 points; a dense profile of it held 76 MB
    # and the limit stage peaked at 236 MB
    chain = generate_chain(2, 2_000_000, DEFAULT_SCHEDULE[:3])
    tree = build_tree(chain, z_variant=True)
    branch = [tree.nodes[l] for l in ("", "1", "11")]
    assert _traced_peak_mb(lambda: limit_stage(branch, chain.levels)) < 1.0
    peak = _traced_peak_mb(
        lambda: fx_profile(successor_witness(chain, 0), chain.levels[0]).union_excess()
    )
    assert peak < 0.1


def test_tree_keeps_the_witnesses_it_multiplies():
    chain = generate_chain(3, 5000, [32, 36, 40])
    tree = build_tree(chain)
    assert len(tree.witnesses) == chain.depth
    for t, w in enumerate(tree.witnesses):
        want = successor_witness(chain, t)
        assert w.starts.tobytes() == want.starts.tobytes() and w.horizon == want.horizon
        assert w.run_phases.tobytes() == want.run_phases.tobytes()
    assert "witnesses" not in tree.to_json()


def test_limit_stage_ignores_the_tolerance():
    # the thresholds are 1/k per block, whatever (eps, j0) the tree used
    chain = generate_chain(2, 2000, [32, 36, 40])
    results = set()
    for eps, j0 in [(0.1, 10), (0.1, 0), (0.1, 1), (0.3, 3), (1.5, 2), (0.1, 946)]:
        tree = build_tree(chain, eps=eps, j0=j0)
        branch = [tree.nodes[l] for l in ("", "1", "11")]
        beta, x_inf, worst = limit_stage(branch, chain.levels, eps=eps, j0=j0)
        results.add((tuple(x_inf.elements.tolist()), worst, beta.run_phases.tobytes()))
    assert len(results) == 1


def test_merge_limit_trivial_cases():
    X = SparseSet(np.array([10, 20, 39]))
    rng = np.random.default_rng(2)
    alpha = TorusElement(rng.uniform(0, 2 * np.pi, 40))
    merged = tree_mod._merge_limit([alpha], X)
    assert np.allclose(merged.values(np.arange(40)), alpha.values(np.arange(40)))
    merged = tree_mod._merge_limit([alpha, alpha, alpha], X)
    assert np.allclose(merged.values(np.arange(40)), alpha.values(np.arange(40)))


def test_merge_limit_block_proportionality():
    X = SparseSet(np.array([8, 16, 31]))
    rng = np.random.default_rng(3)
    alphas = [TorusElement(rng.uniform(0, 2 * np.pi, 32)) for _ in range(3)]
    merged = tree_mod._merge_limit(alphas, X)
    pts = X.enumeration
    for n in range(3):
        lo = int(pts[n])
        hi = int(pts[n + 1]) if n < 2 else 32
        idx = np.arange(lo, hi)
        ratio = merged.values(idx) / alphas[n].values(idx)
        # unimodular constant per block, exact in phase arithmetic
        assert np.allclose(np.abs(ratio), 1.0, atol=1e-12)
        assert np.abs(np.diff(ratio)).max() < 1e-12
        if n == 0:
            assert np.allclose(ratio, 1.0, atol=1e-12)


def _dense_merge_limit(alphas, x_inf, horizon):
    # the blocks filled one sample at a time
    pts = x_inf.enumeration
    K = len(alphas)
    out = np.zeros(horizon)
    gamma = 0.0
    for n in range(K):
        lo = int(pts[n])
        hi = int(pts[n + 1]) if n < K - 1 else horizon
        idx = np.arange(lo, min(hi, horizon))
        out[idx] = gamma + alphas[n].phase_at(idx)
        if n < K - 1:
            p = int(pts[n + 1])
            gamma = gamma + float(alphas[n].phase_at(p)) - float(alphas[n + 1].phase_at(p))
    return np.mod(out, TWO_PI)


def _merge_inputs(case):
    rng = np.random.default_rng(2 if case.startswith("trivial") else 3)
    if case == "trivial-one":
        return [TorusElement(rng.uniform(0, 2 * np.pi, 40))], SparseSet([10, 20, 39]), 40
    if case == "trivial-three":
        return [TorusElement(rng.uniform(0, 2 * np.pi, 40))] * 3, SparseSet([10, 20, 39]), 40
    if case == "proportional":
        alphas = [TorusElement(rng.uniform(0, 2 * np.pi, 32)) for _ in range(3)]
        return alphas, SparseSet([8, 16, 31]), 32
    chain = generate_chain(3, 20000, [32, 36, 40])
    _, alphas = _branch(chain, eps=0.15, j0=10)
    alphas = [constant_one(chain.horizon)] + alphas
    x_inf = limit_stage(alphas, list(chain.levels), eps=0.15, j0=10)[1]
    return alphas, x_inf, chain.horizon


@pytest.mark.parametrize("case", ["trivial-one", "trivial-three", "proportional", "tree-branch"])
def test_merge_limit_matches_dense_construction(case):
    alphas, x_inf, horizon = _merge_inputs(case)
    merged = tree_mod._merge_limit(alphas, x_inf)
    want = _dense_merge_limit(alphas, x_inf, horizon)
    assert np.array_equal(merged.phases.view(np.int64), want.view(np.int64))
    assert merged.run_phases.size <= sum(a.run_phases.size for a in alphas) + len(alphas)


def test_tree_depth1():
    chain = generate_chain(1, 3000, [32])
    tree = build_tree(chain)
    assert set(tree.nodes) == {"", "0", "1"}
    divs = [c for c in tree.certificates if c["kind"] == "divergence"]
    assert len(divs) == 1 and len(divs[0]["blocks"]) == 1


def _turning_witness(monkeypatch, theta):
    """Make every witness turn by theta at each of its jump points in place
    of pi/m; on a chain with one scheduled block of m = 32, that block's Δ
    is 2 sin(16 theta), its jumps 2 sin(theta / 2)."""
    real = tree_mod.successor_witness

    def witness(chain, t):
        w = real(chain, t)
        return TorusElement.from_runs(w.starts, np.arange(w.starts.size) * theta, w.horizon)

    monkeypatch.setattr(tree_mod, "successor_witness", witness)


def test_divergence_short_of_two_by_1e_6_fails(monkeypatch):
    # a turn of pi (1 - delta) over the block: Δ = 2 cos(pi delta / 2) = 2 - 1e-6
    chain = generate_chain(1, 3000, [32])
    _turning_witness(monkeypatch, np.pi / 32 * (1.0 - 2e-3 / np.pi))
    with pytest.raises(ConstructionError, match="divergence failed"):
        build_tree(chain)


def test_divergence_at_two_minus_its_tolerance_is_listed(monkeypatch):
    # bisect the turn down to the least that build_tree lists; its Δ reads
    # 2 - DIVERGENCE_TOL exactly, and the turn one ulp below fails
    chain = generate_chain(1, 3000, [32])
    lo, hi = np.pi / 32 * (1.0 - 2e-3 / np.pi), np.pi / 32
    while np.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        _turning_witness(monkeypatch, mid)
        try:
            build_tree(chain)
            hi = mid
        except ConstructionError:
            lo = mid
    _turning_witness(monkeypatch, hi)
    certs = build_tree(chain).certificates
    [[block]] = [c["blocks"] for c in certs if c["kind"] == "divergence"]
    assert block["delta"] == 2.0 - tree_mod.DIVERGENCE_TOL
    _turning_witness(monkeypatch, lo)
    with pytest.raises(ConstructionError, match="divergence failed"):
        build_tree(chain)


@pytest.mark.parametrize("excess, holds", [(0.5e-12, True), (2e-12, False)])
def test_jump_bound_slack_is_1e_12(monkeypatch, excess, holds):
    # node "1" jumps by bound + excess, bound = 2 sin(pi / 64) for m = 32
    chain = generate_chain(1, 3000, [32])
    bound = 2.0 * np.sin(np.pi / 64)
    _turning_witness(monkeypatch, 2.0 * np.arcsin((bound + excess) / 2.0))
    if not holds:
        with pytest.raises(ConstructionError, match="jump bound failed at node '1'"):
            build_tree(chain, z_variant=True)
        return
    tree = build_tree(chain, z_variant=True)
    [jump] = [c for c in tree.certificates if c["kind"] == "jump_bound" and c["node"] == "1"]
    assert jump["holds"] and jump["max_jump"] - jump["bound"] == pytest.approx(excess, abs=1e-13)


def test_tree_depth2_certificates():
    chain = generate_chain(2, 30000, [32, 36])
    tree = build_tree(chain, z_variant=True)
    assert len(tree.nodes) == 7
    coh = [c for c in tree.certificates if c["kind"] == "coherence"]
    div = [c for c in tree.certificates if c["kind"] == "divergence"]
    jmp = [c for c in tree.certificates if c["kind"] == "jump_bound"]
    assert all(c["holds"] for c in coh)
    assert all(c["blocks"] for c in div)
    assert all(c["holds"] for c in jmp)
    # independent recomputation of a divergence value from raw phases
    c = div[0]
    lvl = c["level"]
    s0 = tree.nodes[c["s0"]]
    s1 = tree.nodes[c["s1"]]
    diff = s0.mul(s1.inverse())
    blk = c["blocks"][0]["block"]
    iv0 = _interval(chain.levels[lvl + 1], blk)
    iv1 = _interval(chain.levels[lvl + 1], blk + 1)
    d = delta_one(diff, list(iv0) + [iv1.start])
    assert d >= 2.0 - 1e-9


def test_tree_coherence_transport():
    chain = generate_chain(2, 30000, [32, 36])
    tree = build_tree(chain)
    a0 = tree.nodes[""]
    a1 = tree.nodes["1"]
    a2 = tree.nodes["11"]
    X = chain.levels[0]
    p02 = fx_profile(a0.mul(a2.inverse()), X).d
    p01 = fx_profile(a0.mul(a1.inverse()), X).d
    p12 = fx_profile(a1.mul(a2.inverse()), X).d
    assert np.all(p02 <= p01 + p12 + 1e-12)


_TREE_CONFIGS = [(d, z) for d in (2, 3, 4) for z in (False, True)]


def _past_w0(chain):
    # the first window of level 0 past the jumps of the level-0 witness;
    # later witnesses still jump inside the tails of their levels
    w = successor_witness(chain, 0)
    return int(np.nonzero(fx_profile(w, chain.levels[0]).d)[0].max()) + 1


@pytest.mark.parametrize("tail", ["j0-10", "past-w0"])
@pytest.mark.parametrize("depth, z_variant", _TREE_CONFIGS)
def test_coherence_certificates_match_their_own_pairs(depth, z_variant, tail):
    # each certificate against the profile of its own pair's difference, and
    # bitwise against that of the first pair in node order with its key
    chain = generate_chain(depth, 5000, [32, 36, 40, 48][:depth])
    j0 = 10 if tail == "j0-10" else _past_w0(chain)
    tree = build_tree(chain, z_variant=z_variant, j0=j0)
    coh = [c for c in tree.certificates if c["kind"] == "coherence"]
    assert len(coh) == (depth - 1) * 2 ** (depth + 1) + 2

    def tail_of(s, t):
        diff = tree.nodes[s].mul(tree.nodes[t].inverse())
        return fx_profile(diff, chain.levels[len(s)]).d[j0:]

    for c in coh:
        d = tail_of(c["s"], c["t"])
        # a later pair with the key sums its witnesses in another order
        assert abs(c["tail_max"] - (d.max() if d.size else 0.0)) <= 1e-13
        assert c["holds"] == bool(np.all(d <= 0.1))
        # the first pair with the key (cut, t[cut:] without trailing zeros)
        cut = len(c["s"])
        s = "0" * cut
        d = tail_of(s, s + (c["t"][cut:].rstrip("0") or "0"))
        assert c["tail_max"] == (d.max() if d.size else 0.0)


def _count_rows(monkeypatch):
    # the rows of every batched circle_diameters call that build_tree makes
    rows = []
    diameters = tree_mod.circle_diameters

    def counted(phases, starts, ends):
        if np.ndim(phases) == 2:
            rows.append(np.shape(phases)[0])
        return diameters(phases, starts, ends)

    monkeypatch.setattr(tree_mod, "circle_diameters", counted)
    return rows


@pytest.mark.parametrize("depth, z_variant", [(0, False), (1, False)] + _TREE_CONFIGS)
def test_build_tree_profiles_each_difference_once(monkeypatch, depth, z_variant):
    chain = generate_chain(depth, 5000, [32, 36, 40, 48][: max(depth, 1)])
    profiles = _count_fx_profile(monkeypatch)
    rows = _count_rows(monkeypatch)
    build_tree(chain, z_variant=z_variant)
    # the difference of (t[:cut], t) is the inverse of "0" * cut + t[cut:], so
    # each cut profiles, in one batch, the 2^(depth - cut) distinct rows of
    # the nodes whose first cut bits are 0
    assert len(rows) == depth and sum(rows) == 2 ** (depth + 1) - 2
    assert rows == [2 ** (depth - cut) for cut in range(depth)]
    assert profiles == []


def test_build_tree_row_batches_change_no_certificate(monkeypatch):
    # one row per batch, as in a tree too deep for DIAMETER_CHUNK phases: the
    # 8 + 4 + 2 zero-prefix rows of cuts 0, 1 and 2; the jump bounds read
    # each node's own runs and profile no row
    chain = generate_chain(3, 5000, [32, 36, 40])
    want = json.dumps(build_tree(chain, z_variant=True).certificates)
    rows = _count_rows(monkeypatch)
    monkeypatch.setattr(tree_mod, "DIAMETER_CHUNK", 1)
    tree = build_tree(chain, z_variant=True)
    assert rows == [1] * 14
    assert json.dumps(tree.certificates) == want


def _grid_size(tree):
    # 0 and the witnesses' jump points: the cells of build_tree's rows
    starts = np.concatenate([[0], *(w.starts for w in tree.witnesses)])
    return sorted_unique(starts).size


@pytest.mark.parametrize("depth, z_variant", [(d, z) for d in (3, 4) for z in (False, True)])
def test_build_tree_three_row_batches_change_no_certificate(monkeypatch, depth, z_variant):
    # each batch of 3 rows starts at k0 = 0, 3, 6, ..., so cut c reads the
    # rows r = 0 mod 2^c from batch offset -k0 mod 2^c, which moves with k0
    chain = generate_chain(depth, 5000, [32, 36, 40, 48][:depth])
    tree = build_tree(chain, z_variant=z_variant)
    rows = _count_rows(monkeypatch)
    monkeypatch.setattr(tree_mod, "DIAMETER_CHUNK", 3 * _grid_size(tree))
    batched = build_tree(chain, z_variant=z_variant)
    assert json.dumps(batched.certificates) == json.dumps(tree.certificates)
    assert max(rows) <= 3 and sum(rows) == 2 ** (depth + 1) - 2


@pytest.mark.parametrize("one_row_batches", [False, True])
@pytest.mark.parametrize("horizon", ["5000", "min"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_jump_bounds_are_each_nodes_own(monkeypatch, depth, horizon, one_row_batches):
    # the batched jump maxima, bitwise against each node's own runs
    ms = [32, 36, 40, 48][:depth]
    h = min_sufficient_horizon(depth, ms) if horizon == "min" else int(horizon)
    if one_row_batches:
        monkeypatch.setattr(tree_mod, "DIAMETER_CHUNK", 1)
    tree = build_tree(generate_chain(depth, h, ms), z_variant=True)
    jmp = [c for c in tree.certificates if c["kind"] == "jump_bound"]
    assert [c["node"] for c in jmp] == list(tree.nodes)
    for c in jmp:
        assert np.float64(c["max_jump"]).tobytes() == _max_jump(tree.nodes[c["node"]]).tobytes()


def _pairwise_tree(chain, j0):
    """The tree's nodes, coherence tail maxes by key and jump maxima, built
    pair by pair: nodes by TorusElement.mul, and each distinct difference by
    mul, inverse and fx_profile from the first pair in node order with its
    key."""
    witnesses = [successor_witness(chain, t) for t in range(chain.depth)]
    nodes = {"": constant_one(chain.horizon)}
    for level in range(chain.depth):
        for label in [l for l in nodes if len(l) == level]:
            nodes[label + "0"] = nodes[label]
            nodes[label + "1"] = nodes[label].mul(witnesses[level])
    tails = {}
    for t, alpha in nodes.items():
        for cut in range(len(t)):
            key = (cut, t[cut:].rstrip("0"))
            if key not in tails:
                diff = nodes[t[:cut]].mul(alpha.inverse())
                d = fx_profile(diff, chain.levels[cut]).d[j0:]
                tails[key] = d.max() if d.size else 0.0
    jumps = {label: _max_jump(alpha) for label, alpha in nodes.items()}
    return nodes, tails, jumps


def _max_jump(alpha):
    """The largest jump |alpha(i + 1) - alpha(i)| of one node, from its own
    runs, as build_tree certified it node by node."""
    return np.abs(np.diff(np.exp(1j * alpha.run_phases))).max(initial=0.0)


@pytest.mark.parametrize("tail", ["0", "10", "past-w0"])
@pytest.mark.parametrize("depth, z_variant", [(d, z) for d in range(5) for z in (False, True)])
def test_build_tree_is_bitwise_the_pairwise_construction(depth, z_variant, tail):
    chain = generate_chain(depth, 5000, [32, 36, 40, 48][: max(depth, 1)])
    # a depth-0 tree has no witness to pass and no coherence pair to read j0
    j0 = int(tail) if tail != "past-w0" else _past_w0(chain) if depth else 0
    # an eps that every tail max here stays below, so every certificate holds
    eps = 1.99
    if depth == 0 and z_variant:
        # nor a schedule to bound its jumps by
        with pytest.raises(PreconditionViolation, match="no jump bound"):
            build_tree(chain, z_variant=True, eps=eps, j0=j0)
        return
    tree = build_tree(chain, z_variant=z_variant, eps=eps, j0=j0)
    nodes, tails, jumps = _pairwise_tree(chain, j0)
    assert list(tree.nodes) == list(nodes)
    for label, alpha in nodes.items():
        got = tree.nodes[label]
        assert np.array_equal(got.starts, alpha.starts) and got.horizon == alpha.horizon
        assert got.run_phases.tobytes() == alpha.run_phases.tobytes()
        # nodes that share an element share one object, as to_json expects
        if label:
            assert (got is tree.nodes[label[:-1]]) == label.endswith("0")
    certs = tree.certificates
    coh = [c for c in certs if "tail_max" in c]
    assert len(coh) == sum(len(t) for t in nodes)
    for c in coh:
        cut = len(c["s"])
        assert np.float64(c["tail_max"]).tobytes() == tails[cut, c["t"][cut:].rstrip("0")].tobytes()
    jmp = {c["node"]: c["max_jump"] for c in certs if "max_jump" in c}
    assert list(jmp) == (list(nodes) if z_variant else [])
    for label, max_jump in jmp.items():
        assert np.float64(max_jump).tobytes() == jumps[label].tobytes()


def test_tree_reads_no_dense_phases(monkeypatch):
    # nodes, witnesses and their products stay runs from construction to JSON
    def dense(element):
        raise AssertionError("dense phases built")

    monkeypatch.setattr(TorusElement, "phases", property(dense))
    chain = generate_chain(3, 5000, [32, 36, 40])
    tree = build_tree(chain, z_variant=True)
    tree.to_json()
    diff = tree.nodes["101"].mul(tree.nodes["1"].inverse())
    fx_profile(diff, chain.levels[1])


def test_tree_json():
    chain = generate_chain(1, 3000, [32])
    tree = build_tree(chain)
    doc = tree.to_json()
    assert doc["eps"] == 0.1 and len(doc["nodes"]) == 3
    assert all("kind" in c for c in doc["certificates"])


@functools.lru_cache(maxsize=None)
def _certificate_texts(depth, horizon):
    """Certificates of both variants at j0 = 0, 5 and 10, as JSON text."""
    chain = generate_chain(depth, horizon, DEFAULT_SCHEDULE[:depth])
    return [
        json.dumps(build_tree(chain, z_variant=z_variant, j0=j0).certificates)
        for z_variant in (False, True)
        for j0 in (0, 5, 10)
    ]


@pytest.mark.parametrize("depth", range(1, 7))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
@example(data=None)  # horizon 2^20
def test_certificates_do_not_depend_on_the_horizon(depth, data):
    # no horizon moves the layout, and past its last region every element is
    # constant, so each window added by a longer horizon has diameter 0
    least = min_sufficient_horizon(depth, list(DEFAULT_SCHEDULE[:depth]))
    assert least == (35, 213, 782, 2409, 4977, 10113)[depth - 1]
    horizon = 2**20 if data is None else data.draw(st.integers(least + 1, 2**20), "horizon")
    assert _certificate_texts(depth, horizon) == _certificate_texts(depth, least)
