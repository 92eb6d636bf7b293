import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corona_lab import (
    HorizonTooSmall,
    PreconditionViolation,
    SparseSet,
    TorusElement,
    TruncationExceeded,
    constant_one,
    delta_one,
    fx_profile,
    n_of,
)
from corona_lab.operators import BlockStructure
from corona_lab.partitions import FxProfile, break_windows
from corona_lab.torus import SLACK, circle_diameters
from corona_lab.tree import build_tree, generate_chain


def interval(X, j):
    """The j-th interval [n(X, j), n(X, j+1)) of the partition of X."""
    return range(n_of(X, j), n_of(X, j + 1))


def _sparse(d, d_single, d_endpoints):
    """The profile whose dense arrays are ``d``, ``d_single`` and
    ``d_endpoints``, with an entry at each nonzero (or NaN) window."""

    def entries(x):
        j = np.flatnonzero(x)
        return j, np.asarray(x, dtype=float)[j]

    return FxProfile(len(d), entries(d), entries(d_single), entries(d_endpoints))


def _endpoints(prof):
    """The endpoint distances of ``prof`` as one dense array."""
    out = np.zeros(prof.windows)
    out[prof.endpoints[0]] = prof.endpoints[1]
    return out


def _dense_profile(alpha, X):
    """The dense (d, d_single, d_endpoints) of ``alpha`` on ``X``, one float
    per window, as fx_profile filled them before its profiles were sparse."""
    pts = X.enumeration
    dense = []
    for span in (2, 1):
        d = np.zeros(pts.size - span)
        j, lo, hi = break_windows(alpha.starts, pts, span)
        d[j] = circle_diameters(np.exp(1j * alpha.run_phases), lo, hi)
        dense.append(d)
    d_endpoints = np.zeros(pts.size - 2)
    j = np.searchsorted(pts, alpha.starts[1:], side="left") - 1
    j = j[j < d_endpoints.size]
    v = np.exp(1j * alpha.run_phases)
    d_endpoints[j] = np.abs(v[alpha.run_index(pts[j])] - v[alpha.run_index(pts[j + 1])])
    return (*dense, d_endpoints)


def test_sparse_set_validation():
    with pytest.raises(PreconditionViolation):
        SparseSet(np.array([5]))
    with pytest.raises(PreconditionViolation):
        SparseSet(np.array([3, 3, 5]))
    with pytest.raises(PreconditionViolation):
        SparseSet(np.array([-1, 2]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SparseSet([1.5, 2.7]), "elements must be integers"),
        (lambda: SparseSet(np.array([True, False])), "elements must be integers"),
        (lambda: BlockStructure((1.5, 2)), "block sizes must be integers"),
        (lambda: TorusElement.from_runs([0, 1.5], [0.0, 1.0], 4), "run starts must be integers"),
        (lambda: TorusElement.from_runs([0, 1], [0.0, 1.0], 3.7), "horizon must be an integer"),
        (lambda: generate_chain(1, 3000.7, [32]), "horizon must be an integer"),
        (lambda: generate_chain(1.0, 3000, [32]), "depth must be an integer"),
    ],
    ids=["sparse-set", "sparse-set-bool", "block-sizes", "run-starts", "element-horizon",
         "chain-horizon", "chain-depth"],
)
def test_integer_arguments_are_refused_not_truncated(build, message):
    with pytest.raises(PreconditionViolation, match=message):
        build()


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: build_tree(generate_chain(1, 3000, [32]), j0=2.5), "j0 must be an integer"),
        (lambda: build_tree(generate_chain(1, 3000, [32]), eps=True), "eps must be a number"),
        (lambda: _sparse(np.zeros(3), np.zeros(4), np.zeros(3)).in_fx(0.1, 2.5),
         "j0 must be an integer"),
        (lambda: _sparse(np.zeros(3), np.zeros(4), np.zeros(3)).in_fx(0.1, True),
         "j0 must be an integer"),
    ],
    ids=["tree-j0", "tree-eps-bool", "in-fx-j0", "in-fx-j0-bool"],
)
def test_tolerance_refuses_non_integer_j0_and_bool_eps(check, message):
    with pytest.raises(PreconditionViolation, match=message):
        check()


@pytest.mark.parametrize("elements", [[2, 5, 9], [0, 3]])
def test_enumeration_is_one_read_only_array(elements):
    given = np.array(elements)
    X = SparseSet(given)
    pts = X.enumeration
    assert X.enumeration is pts and not pts.flags.writeable
    assert pts.tolist() == sorted({0, *elements})
    with pytest.raises(ValueError):
        pts[0] = 1
    # elements is a view of the same buffer, not a second copy
    assert np.shares_memory(X.elements, pts) and not X.elements.flags.writeable
    assert X.elements.tolist() == elements
    # the set owns its buffer: the caller's array stays writeable, and
    # writing to it leaves the set as it was
    assert given.flags.writeable
    given[:] = 7
    assert X.elements.tolist() == elements and pts.tolist() == sorted({0, *elements})


def test_enumeration_prepends_zero():
    X = SparseSet(np.array([2, 5, 9]))
    assert n_of(X, 0) == 0
    assert n_of(X, 1) == 2
    assert n_of(X, 2) == 5
    Y = SparseSet(np.array([0, 3]))
    assert n_of(Y, 0) == 0 and n_of(Y, 1) == 3
    evens = SparseSet(np.arange(2, 20, 2))
    for j in range(1, 9):
        assert n_of(evens, j) == 2 * j


def test_intervals():
    X = SparseSet(np.array([2, 5, 9]))
    assert interval(X, 0) == range(0, 2)
    assert interval(X, 1) == range(2, 5)
    assert interval(X, 2) == range(5, 9)
    # adjacency and covering
    ivs = [interval(X, j) for j in range(X.num_intervals)]
    for a, b in zip(ivs, ivs[1:]):
        assert a.stop == b.start
    covered = [i for iv in ivs for i in iv]
    assert covered == list(range(9))


def test_truncation_errors():
    X = SparseSet(np.array([2, 5]))
    with pytest.raises(TruncationExceeded):
        n_of(X, 3)
    with pytest.raises(TruncationExceeded):
        n_of(X, -1)


def test_coarsen_delta_domination_fuzz():
    # coarse-interval distance dominates each constituent fine interval
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = np.sort(rng.permutation(np.arange(1, 60))[:20])
        X = SparseSet(xs)
        keep = np.sort(rng.permutation(xs.size)[: xs.size // 2])
        Y = SparseSet(xs[keep]) if keep.size >= 2 else X
        alpha = TorusElement(rng.uniform(0, 2 * np.pi, 64))
        xpts = X.enumeration
        for j in range(Y.num_intervals):
            coarse = interval(Y, j)
            # the X-intervals that make up the Y-interval
            ks = np.nonzero((xpts[:-1] >= coarse.start) & (xpts[1:] <= coarse.stop))[0]
            assert xpts[ks[0]] == coarse.start and xpts[ks[-1] + 1] == coarse.stop
            for k in ks:
                assert delta_one(alpha, coarse) >= delta_one(alpha, interval(X, k)) - 1e-12


def test_fx_profile_constant():
    X = SparseSet(np.array([3, 6, 9, 12]))
    prof = fx_profile(constant_one(20), X)
    assert np.all(prof.d == 0.0)
    assert prof.in_fx(0.0, 0)


def test_fx_profile_matches_brute_force():
    rng = np.random.default_rng(1)
    alpha = TorusElement(rng.uniform(0, 2 * np.pi, 40))
    X = SparseSet(np.array([2, 7, 11, 20, 33]))
    prof = fx_profile(alpha, X)
    pts = X.enumeration
    for j in range(pts.size - 2):
        d = delta_one(alpha, range(int(pts[j]), int(pts[j + 2])))
        assert prof.d[j] == pytest.approx(d, abs=1e-12)
    # split/joint consistency (union bound instance)
    d_endpoints = _endpoints(prof)
    for j in range(pts.size - 2):
        assert prof.d_single[j] <= prof.d[j] + 1e-12
        assert prof.d_single[j + 1] <= prof.d[j] + 1e-12
        assert d_endpoints[j] <= prof.d[j] + 1e-12
        assert (
            prof.d[j]
            <= prof.d_single[j] + prof.d_single[j + 1] + d_endpoints[j] + 1e-12
        )


@st.composite
def _runs_and_points(draw, phase=st.sampled_from([0.0, 1.0, 2.5, np.pi])):
    # a step function with few runs and a sparse set within its horizon;
    # by default phases from a small set, so runs apart from each other can
    # repeat one
    horizon = draw(st.integers(2, 300))
    inner = draw(st.sets(st.integers(1, horizon - 1), max_size=12))
    starts = [0, *sorted(inner)]
    phases = draw(st.lists(phase, min_size=len(starts), max_size=len(starts)))
    alpha = TorusElement.from_runs(starts, phases, horizon)
    points = draw(st.sets(st.integers(0, horizon), min_size=2, max_size=60))
    return alpha, SparseSet(np.array(sorted(points)))


@settings(max_examples=300, deadline=None)
@given(_runs_and_points())
def test_split_endpoints_match_dense_formula(case):
    # only pairs with a run start between their points are computed
    alpha, X = case
    pts = X.enumeration
    v = np.exp(1j * alpha.run_phases)[alpha.run_index(pts[:-1])]
    dense = np.abs(v[:-1] - v[1:])
    got = _endpoints(fx_profile(alpha, X))
    assert got.dtype == dense.dtype and got.tobytes() == dense.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_runs_and_points())
# one-sample windows, and a break one sample into the second window
@example(case=(TorusElement.from_runs([0, 2, 3], [0.0, np.pi, 1.0], 6), SparseSet(np.arange(1, 7))))
# breaks at the first point of X, at its last point and past it
@example(case=(TorusElement.from_runs([0, 3], [0.0, np.pi], 8), SparseSet(np.array([3, 5, 8]))))
@example(case=(TorusElement.from_runs([0, 5], [0.0, 2.5], 8), SparseSet(np.array([2, 5]))))
@example(case=(TorusElement.from_runs([0, 7], [1.0, 2.5], 9), SparseSet(np.array([2, 5]))))
# one run, with points at 0 and at the horizon
@example(case=(TorusElement.from_runs([0], [2.5], 9), SparseSet(np.array([0, 4, 9]))))
@example(case=(TorusElement.from_runs([0, 1, 8], [0.0, 1.0, np.pi], 9), SparseSet(np.array([0, 1, 8, 9]))))
def test_break_windows_match_every_window(case):
    # the profile from the windows that meet a break, against every window
    # of the dense phases; the windows found are exactly those meeting two runs
    alpha, X = case
    pts = X.enumeration
    dense = np.repeat(alpha.run_phases, np.diff(alpha.starts, append=alpha.horizon))
    prof = fx_profile(alpha, X)
    for span, got in ((2, prof.d), (1, prof.d_single)):
        s, e = pts[:-span], pts[span:]
        want = circle_diameters(np.exp(1j * dense), s, e)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        j, lo, hi = break_windows(alpha.starts, pts, span)
        meets = np.nonzero(alpha.run_index(s) != alpha.run_index(e - 1))[0]
        assert j.tolist() == meets.tolist()
        assert lo.tolist() == alpha.run_index(s[j]).tolist()
        assert hi.tolist() == (alpha.run_index(e[j] - 1) + 1).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_runs_and_points(phase=st.floats(0.0, 2 * np.pi)))
def test_profiles_meet_the_union_bound(case):
    # Δ_{I∪J} <= Δ_I + Δ_J + Δ_{i0 j0} on every double window of the profile
    alpha, X = case
    assert fx_profile(alpha, X).union_excess() <= SLACK


def test_union_excess_is_the_largest_excess():
    # entry 1 is 0.5 above 0.25 + 0.25 + 0.5; entries 0 and 2 are below theirs
    prof = _sparse(
        d=np.array([0.5, 1.5, 0.0]),
        d_single=np.array([0.25, 0.25, 0.25, 0.0]),
        d_endpoints=np.array([0.5, 0.5, 0.0]),
    )
    assert prof.union_excess() == 0.5
    below = _sparse(np.array([0.5]), np.array([0.25, 0.25]), np.array([0.5]))
    assert below.union_excess() == -0.5
    assert _sparse(np.zeros(0), np.zeros(1), np.zeros(0)).union_excess() == -np.inf
    # a window without an entry adds its 0.0, above every negative excess
    # (window 2 here; windows 0 and 1 read -0.5 and -0.25)
    gap = _sparse(
        np.array([0.5, 0.0, 0.0]), np.array([0.25, 0.25, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])
    )
    assert gap.single[0].tolist() == [0, 1] and gap.union_excess() == 0.0


def test_in_fx_refuses_a_j0_past_every_window():
    # a verdict on no window would hold for any element, certifying nothing
    prof = _sparse(np.array([0.0, 0.0, 1.5]), np.zeros(4), np.zeros(3))
    assert prof.in_fx(0.1, 0) is False and prof.in_fx(0.1, 2) is False
    for j0 in (3, 10**9):
        with pytest.raises(
            PreconditionViolation, match=f"^j0={j0} leaves no window of a profile with 3 windows$"
        ):
            prof.in_fx(0.1, j0)
    with pytest.raises(PreconditionViolation, match="with 0 windows"):
        _sparse(np.zeros(0), np.zeros(1), np.zeros(0)).in_fx(1.0, 0)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _nan_for(alpha, value):
    """alpha with its runs of phase ``value`` made NaN, set past the
    constructor, which refuses a non-finite phase: a profile's NaN path."""
    ph = np.where(alpha.run_phases == value, np.nan, alpha.run_phases)
    ph.setflags(write=False)
    object.__setattr__(alpha, "run_phases", ph)
    return alpha


# phase 5.0 stands for NaN (see _nan_for)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_runs_and_points(phase=st.sampled_from([0.0, 1.0, 2.5, np.pi, 5.0])))
# no window: the excess is -inf
@example(case=(TorusElement.from_runs([0, 3], [0.0, np.pi], 8), SparseSet(np.array([0, 5]))))
# no run break: every window is 0.0, and so is the excess
@example(case=(TorusElement.from_runs([0], [2.5], 9), SparseSet(np.array([2, 4, 9]))))
# a NaN phase propagates to the excess
@example(case=(TorusElement.from_runs([0, 3], [0.0, 5.0], 8), SparseSet(np.array([2, 4, 8]))))
def test_sparse_profile_matches_the_dense_oracle(case):
    # the dense views, the endpoint entries, the union excess and every
    # in_fx verdict bitwise those of one float per window
    alpha, X = case
    alpha = _nan_for(alpha, 5.0)
    d, d_single, d_endpoints = _dense_profile(alpha, X)
    prof = fx_profile(alpha, X)
    assert prof.windows == d.size
    assert _same_bits(prof.d, d) and _same_bits(prof.d_single, d_single)
    assert not prof.d.flags.writeable and not prof.d_single.flags.writeable
    for j, v in (prof.double, prof.single, prof.endpoints):
        assert j.size == v.size and np.all(np.diff(j) > 0)
    assert _same_bits(_endpoints(prof), d_endpoints)
    want = (d - (d_single[:-1] + d_single[1:] + d_endpoints)).max(initial=-np.inf)
    assert _same_bits(prof.union_excess(), want)
    for j0 in range(d.size):
        for eps in (0.0, 0.5, 1.0, 1.99):
            assert prof.in_fx(eps, j0) == bool(np.all(d[j0:] <= eps))


def test_fx_profile_horizon_guard():
    X = SparseSet(np.array([5, 50]))
    with pytest.raises(HorizonTooSmall) as exc:
        fx_profile(constant_one(10), X)
    assert exc.value.min_horizon == 50


def test_subset_profile_domination_fuzz():
    # sparser Y gives pointwise-larger membership obstructions: any alpha flat
    # along Y double-intervals is flat along X double-intervals they contain
    rng = np.random.default_rng(2)
    for _ in range(20):
        xs = np.sort(rng.permutation(np.arange(1, 80))[:30])
        X = SparseSet(xs)
        keep = np.unique(np.append(rng.permutation(xs.size)[: xs.size // 3], xs.size - 1))
        if keep.size < 2:
            continue
        Y = SparseSet(xs[keep])
        alpha = TorusElement(rng.uniform(0, 2 * np.pi, 128))
        px = fx_profile(alpha, X)
        py = fx_profile(alpha, Y)
        assert px.d.max() <= py.d.max() + 1e-12


def test_json():
    X = SparseSet(np.array([2, 5, 9]))
    assert json.loads(json.dumps(X.to_json())) == {"elements": [2, 5, 9]}
