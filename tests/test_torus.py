import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corona_lab import (
    IndexOutOfRange,
    PreconditionViolation,
    TorusElement,
    constant_one,
    delta_one,
    delta_set,
)
from corona_lab.partitions import SparseSet, fx_profile
from corona_lab.torus import (
    DIAMETER_CHUNK,
    FUZZ_CHUNK,
    TWO_PI,
    RunList,
    circle_diameters,
    fuzz_lij,
    ranked_subsets,
    sorted_unique,
)

SLACK = 1e-12


def rand_elem(rng, h=16):
    return TorusElement(rng.uniform(0, 2 * np.pi, size=h))


def delta_pair(alpha, beta, i, j):
    """|alpha(i) conj(alpha(j)) - beta(i) conj(beta(j))|: the distance over
    the pair {i, j}."""
    return delta_set(alpha, beta, (i, j))


def test_delta_pair_identity():
    one = constant_one(4)
    assert delta_pair(one, one, 0, 3) == 0.0


def test_delta_pair_quarter_turn():
    # alpha = (1, i), beta = 1: |alpha(0) conj(alpha(1)) - 1| = |-i - 1| = sqrt(2)
    alpha = TorusElement([0.0, np.pi / 2])
    beta = constant_one(2)
    assert delta_pair(alpha, beta, 0, 1) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_delta_pair_constant_multiple_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rand_elem(rng), rand_elem(rng)
        c = rng.uniform(0, 2 * np.pi)
        ca = a.mul(TorusElement.from_runs([0], [c], a.horizon))
        assert delta_pair(ca, b, 1, 5) == pytest.approx(
            delta_pair(a, b, 1, 5), abs=1e-12
        )


def test_delta_pair_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rand_elem(rng), rand_elem(rng)
        v = delta_pair(a, b, 2, 9)
        assert 0.0 <= v <= 2.0 + SLACK
        assert v == delta_pair(b, a, 2, 9)


def test_delta_set_singleton_zero():
    rng = np.random.default_rng(2)
    a, b = rand_elem(rng), rand_elem(rng)
    assert delta_set(a, b, [7]) == 0.0


def test_delta_set_antipodal_arc():
    # alpha(k) = exp(i k pi/4): indices 0 and 4 are antipodal
    alpha = TorusElement(np.arange(5) * np.pi / 4)
    assert delta_set(alpha, constant_one(5), range(5)) == pytest.approx(2.0, abs=1e-12)


def test_delta_one_is_value_diameter():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rand_elem(rng)
        I = sorted(rng.permutation(16)[:5].tolist())
        v = a.values(I)
        brute = max(abs(x - y) for x in v for y in v)
        assert delta_one(a, I) == pytest.approx(brute, abs=1e-12)
        assert delta_set(a, constant_one(16), I) == pytest.approx(brute, abs=1e-12)


def test_delta_set_monotone():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a, b = rand_elem(rng), rand_elem(rng)
        I = sorted(rng.permutation(16)[:4].tolist())
        J = sorted(set(I) | set(rng.permutation(16)[:4].tolist()))
        assert delta_set(a, b, I) <= delta_set(a, b, J) + SLACK


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_middle_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
    I = sorted(rng.permutation(16)[:4].tolist())
    assert delta_set(a, c, I) <= delta_set(a, b, I) + delta_set(b, c, I) + SLACK


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_index_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b = rand_elem(rng), rand_elem(rng)
    i, j, k = rng.permutation(16)[:3].tolist()
    assert delta_pair(a, b, i, k) <= delta_pair(a, b, i, j) + delta_pair(a, b, j, k) + SLACK


def test_lij_fuzz_small():
    assert fuzz_lij(5000, seed=11) == 0


def _fuzz_lij_reference(n, seed, slack, horizon=16, set_size=3):
    # the same draws from one generator, case by case: each pick is popped
    # from a list of the indices left, a point of J in I reads I's phase,
    # and each distance comes from its own circle_diameters call
    k = set_size
    rng = np.random.default_rng(seed)
    pa = rng.uniform(0.0, 2 * np.pi, size=(n, 2 * k))
    pb = rng.uniform(0.0, 2 * np.pi, size=(n, 2 * k))
    ranks = [rng.random((n, k)), rng.random((n, k))]
    gamma = pa - pb
    for case in range(n):
        points = []
        for u in ranks:
            left = list(range(horizon))
            points += [left.pop(int(x * (horizon - q))) for q, x in enumerate(u[case])]
        phase = {}
        for r, i in enumerate(points):
            gamma[case, r] = phase.setdefault(i, gamma[case, r])

    def delta(cols):
        starts = np.arange(n) * len(cols)
        return circle_diameters(np.exp(1j * gamma[:, cols].ravel()), starts, starts + len(cols))

    lhs = delta(list(range(2 * k)))
    rhs = delta(list(range(k))) + delta(list(range(k, 2 * k))) + delta([0, k])
    return int(np.sum(lhs > rhs + slack))


@pytest.mark.parametrize("slack", [SLACK, -0.25, -0.5, -1.0])
@pytest.mark.parametrize(
    "seed, horizon, set_size", [(0, 16, 3), (7, 8, 4), (3, 6, 2), (5, 4, 1), (9, 6, 6)]
)
def test_lij_fuzz_matches_four_diameter_reference(monkeypatch, slack, seed, horizon, set_size):
    # a negative slack counts near-tight cases, so the counts are not all 0
    from corona_lab import torus

    monkeypatch.setattr(torus, "SLACK", slack)
    # at horizon 8 and set_size 4, slack -0.25 meets about one case in 6,000
    n = 20_000 if (horizon, set_size) == (8, 4) else 3000
    want = _fuzz_lij_reference(n, seed, slack, horizon, set_size)
    assert fuzz_lij(n, seed=seed, horizon=horizon, set_size=set_size) == want
    # with I and J the whole horizon, lhs = Delta_I <= rhs - Delta_I, so only
    # the widest slack meets near-tight cases
    assert want > 0 or slack > 0 or (set_size == horizon and slack > -1.0)


@pytest.mark.parametrize("slack", [SLACK, -0.25, -0.5, -1.0])
@pytest.mark.parametrize(
    "chunk, n", [(1, 3000), (7, 3000), (2048, 3000), (None, 2 * FUZZ_CHUNK + 1)]
)
def test_lij_fuzz_chunks_keep_the_cases(monkeypatch, slack, chunk, n):
    # each stream starts where the one-shot draw left the previous one, so a
    # stream offset off by one draw changes the near-tight counts
    from corona_lab import torus

    monkeypatch.setattr(torus, "SLACK", slack)
    if chunk is not None:
        monkeypatch.setattr(torus, "FUZZ_CHUNK", chunk)
    assert fuzz_lij(n, seed=4) == _fuzz_lij_reference(n, 4, slack)


def test_lij_fuzz_memory_does_not_grow_with_n():
    def peak(n):
        tracemalloc.start()
        try:
            fuzz_lij(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(100_000)
    # holding all 100_000 cases at once took about 83 MB
    assert large < 8e6 and abs(large - small) < 1e6


@pytest.mark.parametrize(
    "n, horizon, set_size",
    [(200, 2, 3), (10, 16, 0), (10, 0, 3), (-1, 16, 3)],
)
def test_lij_fuzz_rejects_bad_shapes(n, horizon, set_size):
    # set_size > horizon used to read J's points into the I block
    with pytest.raises(PreconditionViolation):
        fuzz_lij(n, horizon=horizon, set_size=set_size)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 10, "set_size": True},
        {"n": True},
        {"n": 10, "seed": True},
        {"n": 2.5},
        {"n": 10, "seed": -1},
        {"n": 10, "horizon": 2**53 + 1},
    ],
)
def test_lij_fuzz_refuses_bad_arguments(kwargs):
    # set_size=True used to index the points as a boolean mask and count
    # 9 violations in 10 cases; 2^53 is the widest exact rank draw
    with pytest.raises(PreconditionViolation):
        fuzz_lij(**kwargs)


def test_lij_fuzz_memory_does_not_grow_with_horizon():
    tracemalloc.start()
    try:
        assert fuzz_lij(2000, horizon=2**40) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_lij_fuzz_of_no_cases():
    assert fuzz_lij(0) == 0


def test_ranked_subsets_follow_the_case_law():
    n, h = 200_000, 16
    rng = np.random.default_rng(1)
    I = ranked_subsets(rng.random((3, n)), h)
    J = ranked_subsets(rng.random((3, n)), h)
    assert I.min() >= 0 and I.max() < h
    assert np.all((I[0] != I[1]) & (I[0] != I[2]) & (I[1] != I[2]))

    def within_4_sigma(counts, p):
        return np.all(np.abs(counts / n - p) < 4 * np.sqrt(p * (1 - p) / n))

    # |I n J| of two independent uniform 3-subsets of 16 is hypergeometric:
    # C(3, m) C(13, 3 - m) / C(16, 3)
    meet = (I[:, None] == J[None]).sum(axis=(0, 1))
    assert within_4_sigma(np.bincount(meet, minlength=4), np.array([286, 234, 39, 1]) / 560)
    assert within_4_sigma(np.bincount(I[0], minlength=h), 1 / h)
    # every ordered triple is equally likely: chi-square over 16 * 15 * 14 cells
    a, b, c = np.unravel_index(np.arange(h**3), (h, h, h))
    counts = np.bincount((I[0] * h + I[1]) * h + I[2], minlength=h**3)
    cells = counts[(a != b) & (a != c) & (b != c)]
    expected = n / cells.size
    chi2 = ((cells - expected) ** 2).sum() / expected
    assert chi2 < cells.size - 1 + 4 * np.sqrt(2 * (cells.size - 1))


@pytest.mark.parametrize("horizon", [3, 16, 2**40, 2**53])
def test_ranked_subsets_take_every_rank_of_a_double(horizon):
    # the largest double below 1 takes the last rank left, 0 the first
    top = np.full((3, 1), 1 - 2**-53)
    assert ranked_subsets(top, horizon)[:, 0].tolist() == [horizon - 1, horizon - 2, horizon - 3]
    assert ranked_subsets(np.zeros((3, 1)), horizon)[:, 0].tolist() == [0, 1, 2]


def test_index_set_invariants():
    # an index set is any iterable of naturals: order and repeats do not matter
    rng = np.random.default_rng(9)
    a, b = rand_elem(rng), rand_elem(rng)
    assert delta_set(a, b, (3, 1, 2, 3)) == delta_set(a, b, [1, 2, 3])
    assert delta_set(a, b, iter(range(4))) == delta_set(a, b, range(4))
    assert delta_set(a, b, np.array([3, 1, 2])) == delta_set(a, b, [1, 2, 3])
    with pytest.raises(IndexOutOfRange):
        delta_set(a, b, (-1, 2))


@pytest.mark.parametrize("I", [[2.7, 5], ["3"], [True, 2], np.array([1.0, 2.0])])
def test_index_set_refuses_what_it_would_truncate(I):
    # [2.7, 5] was read as [2, 5], "3" as 3 and True as 1
    rng = np.random.default_rng(9)
    with pytest.raises(PreconditionViolation):
        delta_set(rand_elem(rng), rand_elem(rng), I)


def test_tail_conventions():
    # past the horizon the last phase repeats; a negative index is refused
    a = TorusElement([0.1, 0.2])
    assert a.phase_at(10) == pytest.approx(0.2)
    with pytest.raises(IndexOutOfRange):
        a.phase_at(-1)


def test_group_structure():
    rng = np.random.default_rng(6)
    a = rand_elem(rng)
    prod = a.mul(a.inverse())
    assert delta_set(prod, constant_one(16), range(16)) == pytest.approx(0.0, abs=1e-12)


def test_json_roundtrip():
    a = TorusElement([0.5, 1.5, 2.5])
    doc = json.loads(json.dumps(a.to_json(), default=RunList.tolist))
    assert doc["horizon"] == 3 and doc["tail"] == "constant"
    b = TorusElement(doc["phases"])
    assert np.array_equal(a.phases, b.phases)


def test_circle_diameters_match_pairwise_reference():
    rng = np.random.default_rng(7)
    phases = rng.uniform(0, 2 * np.pi, 3000)
    phases[200:210] = 1.5  # repeated phases
    phases[300:302] = [0.0, np.pi]  # the exact antipodal pair
    # one window longer than one batch holds, whose farthest pair lies in
    # rows past the first batch
    phases[1500:2600] = rng.uniform(0, 0.5, 1100)
    phases[[2550, 2560]] = [2.0, 2.0 + np.pi]
    assert DIAMETER_CHUNK // 1100 < 2550 - 1500
    windows = [(5, 5), (7, 8), (200, 210), (195, 215), (300, 302), (1500, 2600)]
    # many windows of one length
    starts = rng.integers(0, 3000 - 40, 2000)
    assert starts.size > 2 * (DIAMETER_CHUNK // 40**2)
    windows += [(int(s), int(s) + 40) for s in starts]
    windows += [(int(s), int(s) + int(n)) for s, n in
                zip(rng.integers(0, 2900, 300), rng.integers(0, 70, 300))]
    windows = [windows[k] for k in rng.permutation(len(windows))]
    lo, hi = np.array(windows).T
    diam = circle_diameters(np.exp(1j * phases), lo, hi)
    for (s, e), d in zip(windows, diam):
        v = np.exp(1j * phases[s:e])
        ref = float(np.abs(v[:, None] - v[None, :]).max()) if e > s else 0.0
        assert d == ref
    assert diam[windows.index((300, 302))] == 2.0
    assert diam[windows.index((1500, 2600))] == abs(np.exp(2j) - np.exp(1j * (2.0 + np.pi)))
    assert diam[windows.index((200, 210))] == 0.0


class _CountingNumpy:
    """numpy, with the size of every ``abs`` argument recorded: in
    :func:`circle_diameters` that is one batch of pairwise distances; and
    the size of every ``exp`` argument."""

    def __init__(self):
        self.sizes = []
        self.exp_sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, x):
        self.sizes.append(np.size(x))
        return np.abs(x)

    def exp(self, x):
        self.exp_sizes.append(np.size(x))
        return np.exp(x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 24), st.integers(0, 16)),
    chunk=st.sampled_from([24, 25, 97, 600]),
)
def test_circle_diameters_rows_are_one_row_calls(seed, shape, chunk):
    # batches cross window and row boundaries when the chunk is small
    from corona_lab import torus

    rng = np.random.default_rng(seed)
    R, N, W = shape
    # repeated and antipodal phases besides arbitrary ones
    phases = np.where(
        rng.random((R, N)) < 0.5,
        rng.choice([0.0, -0.0, 1.0, 2.5, np.pi, TWO_PI], (R, N)),
        rng.uniform(0, TWO_PI, (R, N)),
    )
    lo, hi = np.sort(rng.integers(0, N + 1, (2, W)), axis=0)
    want = np.array([circle_diameters(np.exp(1j * row), lo, hi) for row in phases])
    counting = _CountingNumpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "DIAMETER_CHUNK", chunk)
        mp.setattr(torus, "np", counting)
        got = circle_diameters(np.exp(1j * phases), lo, hi)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # no window is longer than 24 samples, so every batch fits in the chunk
    assert all(size <= chunk for size in counting.sizes)
    # leading axes are rows too
    stacked = circle_diameters(np.exp(1j * phases[None]), lo, hi)
    assert stacked.shape == (1, *want.shape) and stacked.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 30), st.integers(0, 12)),
    chunk=st.sampled_from([1, 7, 97, DIAMETER_CHUNK]),
)
def test_circle_diameters_measure_each_unordered_pair_once(seed, shape, chunk):
    # rows * L(L - 1)/2 distances for a window of L >= 2 samples, where the
    # full pairwise block takes rows * L^2; no exponential: values come in
    from corona_lab import torus

    rng = np.random.default_rng(seed)
    R, N, W = shape
    values = np.exp(1j * rng.uniform(0, TWO_PI, (R, N)))
    lo, hi = np.sort(rng.integers(0, N + 1, (2, W)), axis=0)
    counting = _CountingNumpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "DIAMETER_CHUNK", chunk)
        mp.setattr(torus, "np", counting)
        circle_diameters(values, lo, hi)
    L = hi - lo
    assert sum(counting.sizes) == R * int(np.sum(L * (L - 1) // 2))
    assert all(size <= chunk for size in counting.sizes)
    assert counting.exp_sizes == []


def test_circle_diameters_refuse_phases():
    with pytest.raises(PreconditionViolation, match="unit values"):
        circle_diameters(np.array([0.0, np.pi]), [0], [2])


_INT64S = st.lists(st.integers(-8, 40) | st.integers(-(2**63), 2**63 - 1), max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64))


def _int64s(*xs):
    return np.array(xs, dtype=np.int64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=_INT64S)
@example(x=_int64s())
@example(x=_int64s(5, 5, 5))
@example(x=_int64s(5, 1, 5, 5, -3, 1, 2**63 - 1, -(2**63)))
# the merge of TorusElement.mul: two sorted start arrays concatenated, as
# np.union1d(a, b) is np.unique of their concatenation
@example(x=_int64s(0, 3, 7, 0, 3, 7))  # equal
@example(x=_int64s(0, 1, 2, 5, 9, 2**63 - 1))  # disjoint
@example(x=_int64s(0, 2, 4, 6, 8, 1, 3, 5, 7))  # interleaved
def test_sorted_unique_is_np_unique(x):
    got, ref = sorted_unique(x), np.unique(x)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_phases_normalized_and_frozen():
    a = TorusElement([-np.pi, 3 * np.pi])
    assert np.all(a.phases >= 0) and np.all(a.phases < 2 * np.pi)
    with pytest.raises(ValueError):
        a.phases[0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", ["phases", "runs"])
def test_a_non_finite_phase_is_refused(bad, build):
    # a NaN phase built, and an infinite one built NaN with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolation, match="finite"):
            if build == "phases":
                TorusElement([0.5, bad, 0.0])
            else:
                TorusElement.from_runs([0, 2], [0.5, bad], 4)


def test_circle_diameters_on_step_functions():
    # long constant runs, single-sample steps, a -0.0/0.0 boundary and a dense
    # random stretch; constant windows are skipped, the rest go pairwise
    rng = np.random.default_rng(8)
    phases = np.concatenate([
        np.full(300, 1.25),
        rng.uniform(0, 2 * np.pi, 5),  # single-sample steps
        np.full(200, 4.0),
        [-0.0] * 40 + [0.0] * 40,
        rng.uniform(0, 2 * np.pi, 150),  # dense
        np.full(100, 1.25),
    ])
    n, zero = phases.size, 545  # phases[505:545] are -0.0, [545:585] are 0.0
    assert str(phases[zero - 1]) == "-0.0" and str(phases[zero]) == "0.0"
    windows = [(s, s + L) for L in (0, 1, 2, 3, 5, 8, 40) for s in range(0, n - L + 1, 3)]
    windows += [(0, n), (290, 320), (505, 585), (zero, zero + 1), (580, 680)]
    lo, hi = np.array(windows).T
    diam = circle_diameters(np.exp(1j * phases), lo, hi)
    for (s, e), d in zip(windows, diam):
        v = np.exp(1j * phases[s:e])
        assert d == (np.abs(v[:, None] - v[None, :]).max() if e > s else 0.0)
        if e - s < 2 or np.all(phases[s:e] == phases[s]):
            assert d == 0.0
    assert diam[windows.index((505, 585))] == 0.0


# The run form against dense references: one phase per sample, each
# operation written as the per-sample float operations it stands for.

_PHASES = st.floats(-20, 20) | st.sampled_from([0.0, -0.0, np.pi, -np.pi, TWO_PI, 1.0])


@st.composite
def _step_functions(draw):
    """(dense phases, run starts, run phases) of a random step function."""
    horizon = draw(st.integers(1, 500))
    cuts = draw(st.sets(st.integers(1, max(1, horizon - 1)), max_size=39))
    starts = [0, *sorted(c for c in cuts if c < horizon)]
    phases = draw(st.lists(_PHASES, min_size=len(starts), max_size=len(starts)))
    dense = np.repeat(np.array(phases), np.diff(starts, append=horizon))
    return dense, starts, phases


def _endpoints(prof):
    # the endpoint distances of the profile as one dense array
    out = np.zeros(prof.windows)
    out[prof.endpoints[0]] = prof.endpoints[1]
    return out


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _dense_at(dense, idx):
    # past the horizon the last phase repeats
    return dense[np.minimum(idx, dense.size - 1)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    f=_step_functions(),
    g=_step_functions(),
    picks=st.lists(st.integers(0, 505), max_size=20),
    points=st.sets(st.integers(0, 500), max_size=30),
)
@example(
    f=(np.array([0.0, -0.0, -0.0, 1.0]), [0, 1, 3], [0.0, -0.0, 1.0]),
    g=(np.array([-0.0, 0.0, 2.0]), [0, 1, 2], [-0.0, 0.0, 2.0]),
    picks=[0, 1, 2, 3, 4, 5],
    points={1, 2},
)
def test_run_form_is_bitwise_the_dense_form(f, g, picks, points):
    dense_f, starts, phases = f
    ref = np.mod(dense_f, TWO_PI)
    a = TorusElement.from_runs(starts, phases, dense_f.size)
    for elem in (a, TorusElement(dense_f)):
        assert _same_bits(elem.phases, ref)
        # the phases the tracer reads: read-only, one per index
        assert elem.phases.ndim == 1 and elem.phases.size == elem.horizon == ref.size
        with pytest.raises(ValueError):
            elem.phases[0] = 1.0
    assert callable(TorusElement.__post_init__)
    assert np.all(np.diff(a.starts) > 0)
    assert not np.any(a.run_phases[1:] == a.run_phases[:-1])

    b = TorusElement(g[0])
    ref_b = np.mod(g[0], TWO_PI)
    h = np.arange(max(a.horizon, b.horizon))
    want = np.mod(_dense_at(ref, h) + _dense_at(ref_b, h), TWO_PI)
    assert _same_bits(a.mul(b).phases, want)
    assert _same_bits(a.inverse().phases, np.mod(-ref, TWO_PI))

    idx = np.array(picks, dtype=int)
    assert _same_bits(a.phase_at(idx), _dense_at(ref, idx))

    # windows up to the horizon, which is always a point
    X = SparseSet(np.array(sorted({p % (a.horizon + 1) for p in points} | {0, a.horizon})))
    pts = X.enumeration
    prof = fx_profile(a, X)
    assert _same_bits(prof.d, circle_diameters(np.exp(1j * ref), pts[:-2], pts[2:]))
    assert _same_bits(prof.d_single, circle_diameters(np.exp(1j * ref), pts[:-1], pts[1:]))
    assert _same_bits(
        _endpoints(prof),
        np.abs(np.exp(1j * ref[pts[:-2]]) - np.exp(1j * ref[pts[1:-1]])),
    )


def test_level0_split_profile_matches_dense_diameters():
    # every sample is a point of X, so every single interval holds one
    # sample, and runs of 1-3 samples change phase at many of them
    rng = np.random.default_rng(3)
    horizon = 4000
    starts = np.cumsum(np.concatenate(([0], rng.integers(1, 4, size=horizon))))
    starts = starts[starts < horizon]
    run_phases = rng.uniform(0.0, 2 * TWO_PI, size=starts.size)
    a = TorusElement.from_runs(starts, run_phases, horizon)
    assert a.starts.size == starts.size > horizon // 3
    ref = np.repeat(np.mod(run_phases, TWO_PI), np.diff(starts, append=horizon))
    pts = np.arange(horizon + 1)
    prof = fx_profile(a, SparseSet(pts[1:]))
    assert _same_bits(prof.d, circle_diameters(np.exp(1j * ref), pts[:-2], pts[2:]))
    assert _same_bits(prof.d_single, circle_diameters(np.exp(1j * ref), pts[:-1], pts[1:]))
    assert _same_bits(
        _endpoints(prof),
        np.abs(np.exp(1j * ref[pts[:-2]]) - np.exp(1j * ref[pts[1:-1]])),
    )
