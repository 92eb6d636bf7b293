"""The verdict record, and the package's verdicts on non-finite input."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from corona_lab import (
    BlockStructure,
    ConstructionError,
    CoronaLabError,
    PositiveUnit,
    SparseSet,
    TorusElement,
    build_tent_unit,
    build_tree,
    epsilon_witness,
    fx_profile,
    generate_chain,
    hyp_check,
    limit_stage,
    quasi_unitary_residual,
    stratify,
)
from corona_lab.verdicts import Verdict, require
from corona_lab.operators import RESIDUAL_TOL
from corona_lab.weak_units import QUASI_UNITARY_SLACK

_SENSES = ["<=", "<", ">=", ">"]


@pytest.mark.parametrize("sense", _SENSES)
@pytest.mark.parametrize("field", ["value", "bound", "slack"])
def test_a_nan_verdict_does_not_hold(sense, field):
    verdict = Verdict("x", 1.0, 1.0, 0.5, sense=sense)._replace(**{field: math.nan})
    assert verdict.holds is False


@pytest.mark.parametrize(
    "sense, value, holds",
    [
        # value <= bound + slack, as the jump bound reads max_jump <= bound + 1e-12
        ("<=", 1.0 + 1e-12, True),
        ("<=", float(np.nextafter(1.0 + 1e-12, 2.0)), False),
        ("<", 1.0 + 1e-12, False),
        ("<", float(np.nextafter(1.0 + 1e-12, 0.0)), True),
        # value >= bound - slack, as a divergence block reads d >= 2.0 - DIVERGENCE_TOL
        (">=", 1.0 - 1e-12, True),
        (">=", float(np.nextafter(1.0 - 1e-12, 0.0)), False),
        (">", 1.0 - 1e-12, False),
        (">", float(np.nextafter(1.0 - 1e-12, 2.0)), True),
    ],
)
def test_a_verdict_is_its_sites_comparison_at_the_edge(sense, value, holds):
    assert Verdict("x", value, 1.0, 1e-12, sense=sense).holds is holds


def test_holds_is_a_python_bool_and_passes_reads_arrays():
    # _emit writes a bool only if it is True or False, not numpy's bool
    assert Verdict("x", np.float64(0.5), np.float64(1.0)).holds is True
    values = np.array([0.5, 1.0, np.nan, 2.0, -np.inf])
    assert Verdict("x", values, 1.0).passes().tolist() == [True, True, False, False, True]
    bounds = np.array([1.0, 0.5, 1.0, 3.0, 0.0])
    assert Verdict("x", values, bounds, sense=">=").passes().tolist() == [
        False, True, False, False, False]


def test_require_raises_the_sites_error_with_its_message():
    held = Verdict("x", 0.5, 1.0, where="w")
    assert require(held, ConstructionError, "{value}") is held
    with pytest.raises(ConstructionError, match=r"^x failed at \('a', 'b'\): nan > 1.0$"):
        require(Verdict("x", math.nan, 1.0, where=("a", "b")), ConstructionError,
                "{name} failed at {where}: {value} > {bound}")


# Each export that gives a verdict, with one numeric input planted: a call
# returns the verdict, or True where success is its only verdict.  A
# non-finite input must raise a CoronaLabError or give a verdict that is
# false; any input gives a Python bool or a CoronaLabError.

_PLANTED = [math.nan, math.inf, -math.inf, float("1e400"), 1e-320, -0.0]
_SEED = 20260422


def _planted(array, at, value):
    out = np.array(array, dtype=complex if np.iscomplexobj(array) else float)
    out.flat[at % out.size] = value
    return out


_M = np.random.default_rng(3).standard_normal((6, 6)) / 4
_PHASES = np.linspace(0.0, 3.0, 40)
_X = SparseSet(np.arange(4, 40, 4))
_TENT = build_tent_unit(4, 0.25)
_CHAIN = generate_chain(2, 400, [4, 5, 6])
_ALPHA = TorusElement(1.0 / (np.arange(4) + 1.0))


def _unit(value, at):
    return PositiveUnit(_planted(_TENT.rs, at, value))


def _branch(eps=1.5, j0=2, at=None, value=None):
    # the limit stage of a branch of one tree, at its own eps and j0, with a
    # phase of one element planted when ``at`` is given
    tree = build_tree(_CHAIN, eps=1.5, j0=2)
    alphas = [tree.nodes[label] for label in ("", "1", "11")]
    if at is not None:
        alphas[at % 3] = TorusElement(_planted(alphas[at % 3].phase_at(np.arange(400)), at, value))
    return limit_stage(alphas, _CHAIN.levels, eps=eps, j0=j0)


def _stratified(m):
    # the stratification's verdict as the CLI forms it: a NaN in a
    # near-diagonal block reaches no tail norm, only the residual
    w = stratify(m, BlockStructure((1,) * 6))
    residual = Verdict("residual", w.reconstruction_residual(m), 0.0, RESIDUAL_TOL)
    return residual.holds and w.tail_bound_ok()


def _quasi_unitary(alpha, unit, N):
    q = quasi_unitary_residual(alpha, unit, N)
    return Verdict("q", q["tail_norm"], q["bound"], QUASI_UNITARY_SLACK).holds


_CALLS = {
    "stratify-entry": lambda v, at: _stratified(_planted(_M, at, v)),
    "in_fx-phase": lambda v, at: fx_profile(
        TorusElement(_planted(_PHASES, at, v)), _X).in_fx(0.1, 0),
    "in_fx-eps": lambda v, at: fx_profile(TorusElement(_PHASES), _X).in_fx(v, at % 8),
    "in_fx-j0": lambda v, at: fx_profile(TorusElement(_PHASES), _X).in_fx(0.1, v),
    "union-phase": lambda v, at: fx_profile(
        TorusElement(_planted(_PHASES, at, v)), _X).union_bound().holds,
    "invariants-unit": lambda v, at: _unit(v, at).check_invariants()["ok"],
    "invariants-tol": lambda v, at: _TENT.check_invariants(tol=v)["ok"],
    "hyp-unit": lambda v, at: hyp_check(_unit(v, at), ("HypA", "HypWeak")[at % 2])["holds"],
    "hyp-eps": lambda v, at: hyp_check(_TENT, "HypWeak", eps=v)["holds"],
    "quasi-unitary-alpha": lambda v, at: _quasi_unitary(
        TorusElement(_planted(_ALPHA.phase_at(np.arange(4)), at, v)), _TENT, 1),
    "quasi-unitary-unit": lambda v, at: _quasi_unitary(_ALPHA, _unit(v, at), 1),
    "quasi-unitary-N": lambda v, at: _quasi_unitary(_ALPHA, _TENT, v),
    "epsilon-witness-eps": lambda v, at: bool(epsilon_witness(_TENT, at % 4, 1, v)),
    "epsilon-witness-index": lambda v, at: bool(epsilon_witness(_TENT, v, at % 4, 0.1)),
    "epsilon-witness-unit": lambda v, at: bool(epsilon_witness(_unit(v, at), 1, 1, 0.1)),
    "build-tree-eps": lambda v, at: all(
        c.get("holds", True) for c in build_tree(_CHAIN, eps=v).certificates),
    "build-tree-j0": lambda v, at: all(
        c.get("holds", True) for c in build_tree(_CHAIN, j0=v).certificates),
    "limit-stage-eps": lambda v, at: bool(_branch(eps=v)),
    "limit-stage-j0": lambda v, at: bool(_branch(j0=v)),
    "limit-stage-alpha": lambda v, at: bool(_branch(at=at, value=v)),
}


@seed(_SEED)
@settings(max_examples=150, deadline=None)
@given(call=st.sampled_from(sorted(_CALLS)), value=st.sampled_from(_PLANTED),
       at=st.integers(0, 10**6))
def test_non_finite_input_gives_no_true_verdict(call, value, at):
    print(f"hypothesis seed {_SEED}: {call} with {value!r} at {at}")
    try:
        verdict = _CALLS[call](value, at)
    except CoronaLabError:
        return
    assert type(verdict) is bool
    assert math.isfinite(value) or verdict is False
