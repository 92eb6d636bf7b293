"""Sparse subsets of the naturals and the interval partitions they induce.

A sparse set X yields enumerators n(X, j) (the j-th element of {0} ∪ X) and
half-open intervals I(X, j) = [n(X, j), n(X, j+1)).  Profiles of a torus
element over consecutive double intervals are the finite-horizon membership
evidence for the subgroup of sequences that flatten out along X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooSmall, PreconditionViolation, TruncationExceeded, as_int
from .torus import TorusElement, circle_diameters, sorted_unique


@dataclass(frozen=True)
class SparseSet:
    """Strictly increasing finite truncation of an infinite subset of ℕ.
    ``enumeration``, {0} ∪ X in increasing order, is one read-only buffer that
    the set owns; ``elements`` is a view of it, past any prepended 0."""

    elements: np.ndarray

    def __post_init__(self):
        el = np.asarray(self.elements)
        if el.ndim != 1 or el.size < 2:
            raise PreconditionViolation("need at least 2 elements")
        if el.dtype.kind not in "iu":
            raise PreconditionViolation("elements must be integers")
        el = el.astype(np.int64, copy=False)
        if el[0] < 0:
            raise PreconditionViolation("elements must be naturals")
        if np.any(np.diff(el) <= 0):
            raise PreconditionViolation("elements must be strictly increasing")
        pts = np.concatenate(([0], el)) if el[0] else el.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "enumeration", pts)
        object.__setattr__(self, "elements", pts[pts.size - el.size :])

    @property
    def num_points(self) -> int:
        return int(self.enumeration.size)

    @property
    def num_intervals(self) -> int:
        return self.num_points - 1

    @property
    def last(self) -> int:
        return int(self.elements[-1])

    def __len__(self):
        return int(self.elements.size)

    def to_json(self) -> dict:
        return {"elements": self.elements.tolist()}


def n_of(X: SparseSet, j: int) -> int:
    """The j-th point of the enumeration of {0} ∪ X."""
    pts = X.enumeration
    if j < 0 or j >= pts.size:
        raise TruncationExceeded(f"j={j} beyond truncation ({pts.size} points)")
    return int(pts[j])


def check_tolerance(eps: float, j0: int) -> None:
    """Reject a tolerance (eps, j0) unless j0 is a natural and eps a number
    in [0, 2), not bools (a negative j0 would count from the end of a
    profile).  No diameter exceeds 2, so an eps of 2 or more would make every
    coherence certificate hold whatever the elements."""
    if as_int(j0, "j0") < 0:
        raise PreconditionViolation(f"j0 must be >= 0, got {j0}")
    if isinstance(eps, (bool, np.bool_)):
        raise PreconditionViolation(f"eps must be a number, got {eps!r}")
    if not 0.0 <= eps < 2.0:
        raise PreconditionViolation(
            f"eps must be >= 0 and below 2, the largest diameter, got {eps}"
        )


@dataclass(frozen=True)
class FxProfile:
    """Double-interval profile of a torus element against a sparse set.

    ``d[j]`` is the distance to constant-one over I(X,j) ∪ I(X,j+1),
    ``d_single[j]`` over I(X,j) and ``d_endpoints[j]`` between the points
    n(X,j) and n(X,j+1).  The (eps, j0) verdict is a finite-horizon proxy
    only: it says nothing about the limit condition past the truncation.
    """

    d: np.ndarray
    d_single: np.ndarray
    d_endpoints: np.ndarray

    def in_fx(self, eps: float, j0: int) -> bool:
        """Whether ``d[j0:] <= eps``, after ``check_tolerance(eps, j0)``."""
        check_tolerance(eps, j0)
        return bool(np.all(self.d[j0:] <= eps))

    def union_excess(self) -> float:
        """The largest ``d[j] - (d_single[j] + d_single[j+1] + d_endpoints[j])``,
        -inf on a profile with no window.

        A double window is I(X,j) ∪ I(X,j+1) and the endpoint pair is the
        first point of each interval, so the union bound
        Δ_{I∪J} <= Δ_I + Δ_J + Δ_{i0 j0} makes every term at most 0, up to
        rounding."""
        rhs = self.d_single[:-1] + self.d_single[1:] + self.d_endpoints
        return float((self.d - rhs).max(initial=-np.inf))


def break_windows(grid: np.ndarray, pts: np.ndarray, span: int):
    """The windows [pts[j], pts[j + span]) that meet two cells or more of a
    step function whose cells start at ``grid`` (increasing, from 0), as
    ``(j, lo, hi)``: the window indices in increasing order, the cell holding
    each window's first index and one past the cell holding its last, the
    cell windows that :func:`circle_diameters` takes.

    A window meets two cells only if a break b of ``grid`` has
    pts[j] < b < pts[j + span], so each break picks at most ``span`` windows,
    found by two binary searches; every other window lies in one cell and
    has diameter 0.  The cost follows the breaks, not the points."""
    b = grid[1:]
    first = np.searchsorted(pts, b, side="right") - span
    last = np.minimum(np.searchsorted(pts, b, side="left") - 1, pts.size - span - 1)
    j = first[:, None] + np.arange(span)
    j = sorted_unique(j[(j >= 0) & (j <= last[:, None])])
    lo = np.searchsorted(grid, pts[j], side="right") - 1
    hi = np.searchsorted(grid, pts[j + span] - 1, side="right")
    return j, lo, hi


def fx_profile(alpha: TorusElement, X: SparseSet) -> FxProfile:
    """All double-interval distances of ``alpha`` to one, computable at horizon.

    Each window's distance is the diameter of the runs of ``alpha`` that it
    meets, and only the windows that :func:`break_windows` finds meet two
    runs; every other entry is 0.0.  So a profile costs O(runs * log h)
    besides filling its dense arrays, and an endpoint distance is computed
    only for a pair of points with a run start between them."""
    pts = X.enumeration
    if int(pts[-1]) > alpha.horizon:
        raise HorizonTooSmall(
            f"sparse set ends at {int(pts[-1])} past horizon {alpha.horizon}",
            min_horizon=int(pts[-1]),
        )
    d = _window_diameters(alpha, pts, 2)
    d_single = _window_diameters(alpha, pts, 1)
    # pair j = (pts[j], pts[j + 1]) spans two runs only if a run starts in
    # (pts[j], pts[j + 1]]; every other pair lies in one run and keeps 0.0
    d_endpoints = np.zeros(pts.size - 2)
    j = np.searchsorted(pts, alpha.starts[1:], side="left") - 1
    j = j[j < d_endpoints.size]
    # one exp per run, not per point
    v = np.exp(1j * alpha.run_phases)
    d_endpoints[j] = np.abs(v[alpha.run_index(pts[j])] - v[alpha.run_index(pts[j + 1])])
    return FxProfile(d=d, d_single=d_single, d_endpoints=d_endpoints)


def _window_diameters(alpha: TorusElement, pts: np.ndarray, span: int) -> np.ndarray:
    """The diameters of ``alpha`` on every window [pts[j], pts[j + span]),
    the runs of ``alpha`` taken as the cells."""
    d = np.zeros(pts.size - span)
    j, lo, hi = break_windows(alpha.starts, pts, span)
    d[j] = circle_diameters(alpha.run_phases, lo, hi)
    return d
