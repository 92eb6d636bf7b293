import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize_scalar

from corona_lab import (
    BlockStructure,
    ConstructionError,
    PreconditionViolation,
    TorusElement,
    WitnessNotFound,
    ad_sandwich,
    build_tent_unit,
    constant_one,
    epsilon_witness,
    hyp_check,
    power_gap,
    projection_unit,
    quasi_unitary_residual,
    tensor_unit,
    weak_sandwich,
)
from corona_lab.weak_units import HYP_K_MAX, PositiveUnit


@pytest.fixture(scope="module")
def tent12():
    return build_tent_unit(12, 0.25)


def test_tent_invariants_exact(tent12):
    inv = tent12.check_invariants(tol=0.0)
    assert inv["ok"]
    assert inv["interlock"] == 0.0 and inv["far_products"] == 0.0


def test_tent_count2():
    u = build_tent_unit(2, 0.5)
    p1, p2 = u.partial_sums()
    assert np.all(p2[p1 > 0] == 1.0)


def test_adjacent_tents_overlap(tent12):
    u = tent12
    for i in range(u.count - 1):
        assert np.max(u.rs[i] * u.rs[i + 1]) > 0.0


def test_power_gap_projection_zero():
    proj = projection_unit(BlockStructure((2, 3)))
    for k in range(1, 6):
        assert power_gap(proj.spectrum(0), k) == 0.0


def test_power_gap_full_interval_analytic():
    assert power_gap(None, 1, continuous_range=(0, 1)) == pytest.approx(0.25, abs=1e-12)
    assert power_gap(None, 4, continuous_range=(0, 1)) == pytest.approx(
        4**4 / 5**5, abs=1e-12
    )
    # independent calculus oracle: numeric maximization of t^k (1 - t)
    for k in range(1, 10):
        res = minimize_scalar(
            lambda t: -(t**k) * (1 - t), bounds=(0, 1), method="bounded",
            options={"xatol": 1e-14},
        )
        assert power_gap(None, k, continuous_range=(0, 1)) == pytest.approx(
            -res.fun, abs=1e-10
        )


def test_power_gap_monotone_in_k(tent12):
    # tent 3 ramps through all of [0, 1]
    gaps = [power_gap(tent12.rs[3], k, continuous_range=(0.0, 1.0)) for k in range(1, 12)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_power_gap_rejects_non_contraction():
    with pytest.raises(PreconditionViolation):
        power_gap(np.array([0.5, 1.7]), 2)
    # a NaN in the spectrum or at either end of the range used to pass the
    # range checks, returning nan or 0.0
    with pytest.raises(PreconditionViolation):
        power_gap(np.array([0.5, np.nan]), 2)
    for bounds in [(0.0, np.nan), (np.nan, 1.0)]:
        with pytest.raises(PreconditionViolation):
            power_gap(None, 2, continuous_range=bounds)


def test_power_gap_rejects_other_shapes():
    # a spectrum is 1-D; a square array is not read as a matrix
    with pytest.raises(PreconditionViolation):
        power_gap(np.eye(3), 2)
    with pytest.raises(PreconditionViolation):
        power_gap(np.zeros(0), 2)


def test_unit_refuses_other_shapes():
    with pytest.raises(PreconditionViolation):
        PositiveUnit(rs=np.zeros((2, 3, 3)))
    with pytest.raises(PreconditionViolation):
        PositiveUnit(rs=np.zeros(3))
    with pytest.raises(PreconditionViolation):
        PositiveUnit(rs=np.zeros((2, 0)))  # no coordinates


def test_epsilon_witness_projection_unit():
    proj = projection_unit(BlockStructure((2, 2, 2)))
    out = epsilon_witness(proj, 0, 2, 0.05)
    assert out["norms"]["k"] == 1
    assert out["norms"]["corner"] >= 1 - 0.05
    assert out["norms"]["defect"] < 0.05


def test_epsilon_witness_tent_adjacent(tent12):
    out = epsilon_witness(tent12, 4, 5, 0.1)
    n = out["norms"]
    assert n["norm_a"] == pytest.approx(1.0, abs=1e-9)
    assert n["corner"] >= 0.9 - 1e-9
    assert n["defect"] < 0.1


def test_epsilon_witness_large_eps(tent12):
    out = epsilon_witness(tent12, 0, 3, 2.0)
    assert out["norms"]["norm_a"] == pytest.approx(1.0, abs=1e-9)


def test_epsilon_witness_refuses_a_nan_eps():
    # NaN used to fail the search for k, a WitnessNotFound: a failed hypothesis
    with pytest.raises(PreconditionViolation, match="eps"):
        epsilon_witness(build_tent_unit(4, 0.25), 0, 1, float("nan"))


def test_epsilon_witness_failure_mode():
    # a unit that never reaches norm one has no witness
    weak = PositiveUnit(rs=np.full((3, 4), 0.2))
    with pytest.raises(WitnessNotFound):
        epsilon_witness(weak, 0, 2, 0.1)


def test_quasi_unitary_constant(tent12):
    rep = quasi_unitary_residual(constant_one(12), tent12, 2)
    assert rep["tail_norm"] == 0.0


def test_quasi_unitary_decay():
    unit = build_tent_unit(50, 0.25)
    phases = np.cumsum(1.0 / (np.arange(50) + 1.0) ** 2)
    alpha = TorusElement(phases)
    prev = None
    for N in (5, 15, 30):
        rep = quasi_unitary_residual(alpha, unit, N)
        assert rep["tail_norm"] <= rep["bound"] + 1e-12
        if prev is not None:
            assert rep["tail_norm"] <= prev + 1e-12
        prev = rep["tail_norm"]


def test_quasi_unitary_alternating_negative_control():
    unit = build_tent_unit(20, 0.25)
    alpha = TorusElement(np.pi * np.arange(20))
    rep = quasi_unitary_residual(alpha, unit, 5)
    assert rep["eps_N"] == pytest.approx(4.0, abs=1e-12)
    assert rep["tail_norm"] >= 0.5  # does not vanish as N grows


def test_weak_sandwich_constant(tent12):
    rep = weak_sandwich(constant_one(12), tent12, [2, 5, 8], eps_probe=0.05)
    assert rep["delta"] == 0.0
    assert rep["achieved"] == pytest.approx(0.0, abs=1e-12)
    assert rep["sampled_max"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("I", [[2.5, 5], ["2", 5], [True, 5]])
def test_weak_sandwich_refuses_non_integer_indices(tent12, I):
    with pytest.raises(PreconditionViolation):
        weak_sandwich(constant_one(12), tent12, I)


def test_weak_sandwich_fuzz(tent12):
    rng = np.random.default_rng(0)
    for run in range(10):
        alpha = TorusElement(rng.uniform(0, 2 * np.pi, 12))
        I = sorted(rng.permutation(12)[:4].tolist())
        rep = weak_sandwich(alpha, tent12, I, eps_probe=0.05, seed=run)
        assert rep["achieved"] >= rep["delta"] - rep["lower_slack"] - 1e-9
        assert rep["sampled_max"] <= 2 * rep["delta"] + 1e-9


def test_weak_sandwich_projection_reduces_to_blockwise():
    # the projection-unit path reproduces the block-operator values exactly
    rng = np.random.default_rng(1)
    blocks = BlockStructure((2, 1, 3, 2, 2))
    proj = projection_unit(blocks)
    for run in range(5):
        alpha = TorusElement(rng.uniform(0, 2 * np.pi, 5))
        I = [0, 2, 4]
        weak = weak_sandwich(alpha, proj, I, eps_probe=0.05, seed=run)
        strong = ad_sandwich(alpha, blocks, I, samples=0, seed=run)
        assert weak["delta"] == pytest.approx(strong["delta"], abs=1e-12)
        assert weak["achieved"] == pytest.approx(strong["lower_witness"], abs=1e-12)


def test_hyp_check_modes(tent12):
    blocks = BlockStructure((2, 2, 2, 2))
    assert hyp_check(projection_unit(blocks), "HypA")["holds"]
    weak = hyp_check(tent12, "HypWeak", eps=0.1)
    assert weak["holds"] and weak["k_max"] == HYP_K_MAX
    # a zero r_i is a projection, but every corner r_i A r_j with it is zero
    rs = projection_unit(blocks).rs.copy()
    rs[1] = 0.0
    rep = hyp_check(PositiveUnit(rs=rs), "HypA")
    assert not rep["holds"]
    assert rep["failures"][0] == {"kind": "zero_corner", "i": 0, "j": 1}
    assert all(f["kind"] == "zero_corner" and 1 in (f["i"], f["j"]) for f in rep["failures"])
    # tents are not projections
    rep = hyp_check(tent12, "HypA")
    assert not rep["holds"]


def test_hyp_check_tests_every_pair():
    # a zero r_7 makes every corner r_i A r_7 and r_7 A r_j zero
    rs = projection_unit(BlockStructure((1,) * 8)).rs.copy()
    rs[7] = 0.0
    rep = hyp_check(PositiveUnit(rs=rs), "HypA")
    assert not rep["holds"]
    expected = [(i, 7) for i in range(7)] + [(7, j) for j in range(8)]
    assert [(f["kind"], f["i"], f["j"]) for f in rep["failures"]] == [
        ("zero_corner", i, j) for i, j in expected
    ]
    # r_7 = 0.95: corners (i, 7) reach 0.95^k, first below 0.9 at k = 3, and
    # (7, 7) reaches 0.95^(2k), first below at k = 2
    rs = rs.copy()
    rs[7] = 0.95
    rep = hyp_check(PositiveUnit(rs=rs), "HypWeak", eps=0.1)
    assert [(f["i"], f["j"], f["k"]) for f in rep["failures"]] == [
        (i, j, 2 if i == j == 7 else 3) for i, j in expected
    ]


def _increasing_projection_qs(count, dq=3):
    """Diagonals of the projections onto the first min(n, dq) coordinates."""
    return [(np.arange(dq) < n).astype(float) for n in range(1, count + 1)]


def test_tensor_unit_identity_qs():
    blocks = BlockStructure((2, 2, 2))
    proj = projection_unit(blocks)
    out = tensor_unit(proj, [np.ones(2)] * proj.count)
    for i in range(proj.count):
        assert np.array_equal(out.rs[i], np.kron(proj.rs[i], np.ones(2)))


def test_tensor_unit_matches_dense_kron():
    # oracle: the diagonal of kron(diag p_n, diag q_n), differenced in n
    proj = projection_unit(BlockStructure((1, 2, 1)))
    for unit, qs in (
        (proj, _increasing_projection_qs(3)),
        (build_tent_unit(3, 0.5), [np.ones(3)] * 3),
    ):
        out = tensor_unit(unit, qs)
        tops = [np.zeros(unit.dim * 3)] + [
            np.diag(np.kron(np.diag(unit.rs[:n].sum(axis=0)), np.diag(q)))
            for n, q in enumerate(qs, 1)
        ]
        assert out.rs.shape == (unit.count, unit.dim * 3)
        for i in range(unit.count):
            assert np.allclose(out.rs[i], tops[i + 1] - tops[i], rtol=0.0, atol=1e-15)
    # entries in [0, 1] and nondecreasing, but q_2 q_1 != q_1: no unit
    fractional = [np.array([0.5, 0.0, 0.25]), np.array([1.0, 0.0, 0.5]), np.ones(3)]
    with pytest.raises(ConstructionError):
        tensor_unit(proj, fractional)


def test_tensor_unit_invariants():
    blocks = BlockStructure((1, 2, 1))
    proj = projection_unit(blocks)
    out = tensor_unit(proj, _increasing_projection_qs(proj.count))
    assert out.check_invariants(tol=0.0)["ok"]
    assert hyp_check(out, "HypA")["holds"]


def test_tensor_unit_rejects_decreasing_qs():
    proj = projection_unit(BlockStructure((1, 1)))
    qs = [np.ones(2), np.zeros(2)]
    with pytest.raises(PreconditionViolation):
        tensor_unit(proj, qs)


@pytest.mark.parametrize(
    "qs",
    [
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])],  # decreasing in one entry
        [np.array([0.0, 0.5]), np.array([1.0, 1.5])],  # above 1
        [np.array([-0.5, 0.0]), np.zeros(2)],  # below 0
        [np.array([np.nan, 0.0]), np.ones(2)],  # not a number
        [np.zeros(2), np.ones(3)],  # ragged
        [np.zeros((2, 2)), np.eye(2)],  # matrices, not diagonals
        [np.zeros(0), np.zeros(0)],  # empty
        [np.ones(2)],  # one q too few
    ],
    ids=["one-entry", "above-1", "below-0", "nan", "ragged", "matrix",
         "empty", "short"],
)
def test_tensor_unit_rejects_bad_qs(qs):
    proj = projection_unit(BlockStructure((1, 1)))
    with pytest.raises(PreconditionViolation):
        tensor_unit(proj, qs)


# Each bound of the unit layer, at its value and one ulp past it.


def _next_up(x):
    return float(np.nextafter(x, np.inf))


@pytest.mark.parametrize("past", [False, True], ids=["at-tol", "ulp-above"])
def test_check_invariants_at_its_tolerance(past):
    t = 1e-12
    d = _next_up(t) if past else t
    # p_1 = -d: only the order deviation is nonzero
    inv = PositiveUnit(rs=np.array([[-d]])).check_invariants(tol=t)
    assert (inv["order"], inv["interlock"], inv["far_products"]) == (d, 0.0, 0.0)
    assert inv["ok"] is not past
    # p_1 = d, p_2 = 0: only the interlock deviation |p_2 p_1 - p_1| = d
    inv = PositiveUnit(rs=np.array([[d], [-d]])).check_invariants(tol=t)
    assert (inv["order"], inv["interlock"], inv["far_products"]) == (0.0, d, 0.0)
    assert inv["ok"] is not past


@pytest.mark.parametrize("past", [False, True], ids=["at-tol", "ulp-above"])
def test_check_invariants_far_products_at_its_tolerance(past):
    # r_0 = 1, r_1 = 0, r_2 = c: p_3 = 1 + 2^-40 exactly, so order and
    # interlock read 2^-40 and only the far product r_0 r_2 = c moves
    t = 2.0**-40
    c = _next_up(t) if past else t
    inv = PositiveUnit(rs=np.array([[1.0], [0.0], [c]])).check_invariants(tol=t)
    assert (inv["order"], inv["interlock"], inv["far_products"]) == (t, t, c)
    assert inv["ok"] is not past


def test_hyp_a_projection_bound_at_1e_9():
    # |x^2 - x| is exactly 1e-9 at x = 1e-9 + 1e-18, and above it one ulp up
    rs = projection_unit(BlockStructure((2, 2))).rs.copy()
    x = 1e-9 + 1e-18
    assert abs(x * x - x) == 1e-9
    rs[1, 0] = x
    assert hyp_check(PositiveUnit(rs=rs.copy()), "HypA")["holds"]
    rs[1, 0] = _next_up(x)
    assert abs(rs[1, 0] ** 2 - rs[1, 0]) > 1e-9
    rep = hyp_check(PositiveUnit(rs=rs), "HypA")
    assert rep["failures"] == [{"kind": "not_projection", "i": 1}]


def test_hyp_weak_corner_at_one_minus_eps():
    # one r_0 = 0.99: its smallest corner M_8 M_8 is P, and 1 - (1 - P) == P
    rs = np.full((1, 1), 0.99)
    m8 = (rs**HYP_K_MAX).max(axis=1)
    P = float(m8[0] * m8[0])
    assert 1.0 - (1.0 - P) == P
    assert hyp_check(PositiveUnit(rs=rs), "HypWeak", eps=1.0 - P)["holds"]
    # the corner one ulp below 1 - eps
    rep = hyp_check(PositiveUnit(rs=rs), "HypWeak", eps=1.0 - _next_up(P))
    assert rep["failures"] == [{"kind": "small_corner", "i": 0, "j": 0, "k": HYP_K_MAX}]


# Refused inputs: units, grid steps and HypWeak tolerances that cannot mean
# what they would claim.


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_refuses_non_finite_entries(bad):
    rs = np.full((3, 4), 0.5)
    rs[1, 2] = bad
    with pytest.raises(PreconditionViolation, match="finite"):
        PositiveUnit(rs=rs)


def test_unit_keeps_its_own_copy_of_the_rows():
    # the unit froze the caller's own array, so a later write to it raised
    rs = np.full((3, 4), 0.5)
    unit = PositiveUnit(rs=rs)
    rs[1, 0] = 0.25
    assert rs.flags.writeable and rs[1, 0] == 0.25
    assert unit.rs[1, 0] == 0.5 and not unit.rs.flags.writeable


def test_check_invariants_is_false_on_a_nan_deviation():
    # NaN rows set past the constructor's check still read "ok": False
    unit = PositiveUnit(rs=np.zeros((3, 4)))
    object.__setattr__(unit, "rs", np.full((3, 4), np.nan))
    inv = unit.check_invariants()
    assert not inv["ok"]
    assert all(np.isnan(inv[k]) for k in ("order", "interlock", "far_products"))


@pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -0.25])
def test_tent_unit_refuses_a_grid_step_not_finite_and_positive(step):
    with pytest.raises(PreconditionViolation, match="grid_step"):
        build_tent_unit(12, step)


@pytest.mark.parametrize("count", [2.5, 12.0, True])
def test_tent_unit_refuses_a_count_that_is_no_integer(count):
    # the profiles are broadcast over np.arange(count + 1), which would read
    # 2.5 as 3 tents
    with pytest.raises(PreconditionViolation, match="count"):
        build_tent_unit(count, 0.25)


@pytest.mark.parametrize("eps", [np.nan, 0.0, -0.1, 1.0, 1.5, 5.0])
def test_hyp_weak_refuses_an_eps_outside_0_1(tent12, eps):
    # the tent's corners reach 1 at every power, so any eps >= 0 would hold
    with pytest.raises(PreconditionViolation, match=r"\(0, 1\)"):
        hyp_check(tent12, "HypWeak", eps=eps)


# The rewrite against the loop forms it replaced: every result bit for bit.


def _loop_invariants(rs, tol):
    devs = {"order": 0.0, "interlock": 0.0, "far_products": 0.0}
    prev = None
    for n in range(rs.shape[0] + 1):
        pn = rs[:n].sum(axis=0)
        devs["order"] = max(devs["order"], float(max(-pn.min(), pn.max() - 1.0, 0.0)))
        if prev is not None:
            d = pn * prev - prev
            devs["interlock"] = max(devs["interlock"], float(np.abs(d).max()))
        prev = pn
    for i in range(rs.shape[0]):
        for j in range(i + 2, rs.shape[0]):
            d = rs[i] * rs[j]
            devs["far_products"] = max(devs["far_products"], float(np.abs(d).max()))
    devs["ok"] = all(v <= tol for k, v in devs.items() if k != "ok")
    return devs


def _loop_tent_rs(count, grid_step):
    x = np.arange(int(np.floor(2.0 * count / grid_step)) + 1) * grid_step
    return np.diff(np.stack([np.clip(2.0 * n - x, 0.0, 1.0) for n in range(count + 1)]), axis=0)


def _loop_projection_rs(blocks):
    rs = np.zeros((blocks.num_blocks, blocks.dim))
    off = blocks.offsets
    for i in range(blocks.num_blocks):
        rs[i, off[i] : off[i + 1]] = 1.0
    return rs


def _loop_tensor_rs(rs, qs):
    tops = np.stack([np.kron(rs[:n].sum(axis=0), q) for n, q in enumerate(qs, 1)])
    return np.diff(tops, axis=0, prepend=0.0)


def _loop_hyp(rs, mode, eps):
    failures = []
    if mode == "HypA":
        for i in range(rs.shape[0]):
            r = rs[i]
            if np.abs(r * r - r).max() > 1e-9:
                failures.append({"kind": "not_projection", "i": i})
        M = rs.max(axis=1)
        for i, j in zip(*np.nonzero(M[:, None] * M[None, :] <= 1e-12)):
            failures.append({"kind": "zero_corner", "i": int(i), "j": int(j)})
    else:
        M = np.stack([(rs**k).max(axis=1) for k in range(1, HYP_K_MAX + 1)])
        small = M[:, :, None] * M[:, None, :] < 1.0 - eps
        for i, j in zip(*np.nonzero(small.any(axis=0))):
            k = int(np.argmax(small[:, i, j])) + 1
            failures.append({"kind": "small_corner", "i": int(i), "j": int(j), "k": k})
    return {"mode": mode, "holds": not failures, "failures": failures, "k_max": HYP_K_MAX}


def _loop_quasi(alpha, rs, N):
    idx = np.arange(rs.shape[0] - 1)
    vals = alpha.values(idx) * alpha.values(idx + 1).conj()
    c = 2.0 * (np.real(vals) - 1.0)
    sel = idx > N
    if not np.any(sel):
        return {"tail_norm": 0.0, "eps_N": 0.0, "bound": 0.0}
    s = np.zeros(rs.shape[1])
    for i in idx[sel]:
        s += c[i] * rs[i] * rs[i + 1]
    eps_N = float(np.abs(c[sel]).max())
    return {"tail_norm": float(np.abs(s).max()), "eps_N": eps_N, "bound": 3.0 * eps_N}


def _bits(d):
    """``d`` with each float as its hex text, so -0.0 and 0.0 differ."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in d.items()}


def _same_array(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_ENTRIES = st.sampled_from([0.0, 0.1, 0.5, 1.0, -0.25, 1.5, -0.0])
_ORACLE = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def _units(draw):
    count, dim = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    return draw(arrays(np.float64, (count, dim), elements=_ENTRIES))


@_ORACLE
@given(rs=_units(), tol=st.sampled_from([0.0, 1e-12, 0.25, 1.0]))
def test_check_invariants_is_the_loop_form(rs, tol):
    out = PositiveUnit(rs=rs).check_invariants(tol=tol)
    assert _bits(out) == _bits(_loop_invariants(rs, tol))


@_ORACLE
@given(rs=_units(), eps=st.sampled_from([0.05, 0.1, 0.5, 0.75, 0.99]))
def test_hyp_check_is_the_loop_form(rs, eps):
    unit = PositiveUnit(rs=rs)
    for mode in ("HypA", "HypWeak"):
        rep = hyp_check(unit, mode, eps=eps)
        assert rep == _loop_hyp(rs, mode, eps)
        assert all(type(v) is int for f in rep["failures"] for k, v in f.items() if k != "kind")


@_ORACLE
@given(
    rs=_units(),
    phases=st.lists(st.sampled_from([0.0, 0.3, 1.0, np.pi, 5.5]), min_size=9, max_size=9),
    N=st.integers(-2, 9),
)
def test_quasi_unitary_residual_is_the_loop_form(rs, phases, N):
    alpha = TorusElement(np.array(phases))
    out = quasi_unitary_residual(alpha, PositiveUnit(rs=rs), N)
    assert _bits(out) == _bits(_loop_quasi(alpha, rs, N))


@_ORACLE
@given(
    rs=_units(),
    steps=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=9, max_size=9),
    dq=st.integers(1, 4),
)
def test_tensor_unit_is_the_loop_form(rs, steps, dq):
    # q_n: nondecreasing in n, entry by entry, with entries in [0, 1]
    qs = np.minimum(np.cumsum(np.outer(steps[: rs.shape[0]], np.ones(dq)), axis=0), 1.0)
    want = _loop_tensor_rs(rs, qs)
    if _loop_invariants(want, 1e-9)["ok"]:
        assert _same_array(tensor_unit(PositiveUnit(rs=rs), list(qs)).rs, want)
    else:
        with pytest.raises(ConstructionError):
            tensor_unit(PositiveUnit(rs=rs), list(qs))


@_ORACLE
@given(
    count=st.integers(2, 9),
    grid_step=st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0]),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=9),
)
def test_constructors_are_the_loop_forms(count, grid_step, sizes):
    assert _same_array(build_tent_unit(count, grid_step).rs, _loop_tent_rs(count, grid_step))
    blocks = BlockStructure(tuple(sizes))
    assert _same_array(projection_unit(blocks).rs, _loop_projection_rs(blocks))
