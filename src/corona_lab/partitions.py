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
from .torus import SLACK, TorusElement, circle_diameters, sorted_unique
from .verdicts import Verdict


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
    j = as_int(j, "j")
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
    """Double-interval profile of a torus element against a sparse set, as
    sparse lists.

    ``windows`` counts the double windows I(X,j) ∪ I(X,j+1), which is also
    the count of endpoint pairs (n(X,j), n(X,j+1)); there is one single
    window I(X,j) more.  ``double``, ``single`` and ``endpoints`` each hold
    ``(j, value)``: increasing distinct window indices and the distance to
    constant-one on those windows (on the pair, for an endpoint entry).
    Every window that meets a run break has an entry, and every window
    without one is 0.0.  The (eps, j0) verdict is a finite-horizon proxy
    only: it says nothing about the limit condition past the truncation.
    """

    windows: int
    double: tuple
    single: tuple
    endpoints: tuple

    @property
    def d(self) -> np.ndarray:
        """The double-window distances as one read-only dense array, built
        on request for the benchmark's tracer; the package reads only the
        entries."""
        return _dense(self.windows, *self.double)

    @property
    def d_single(self) -> np.ndarray:
        """The single-window distances as one read-only dense array, as
        :attr:`d`."""
        return _dense(self.windows + 1, *self.single)

    def in_fx(self, eps: float, j0: int) -> bool:
        """Whether every double window from j0 on is within eps, after
        ``check_tolerance(eps, j0)``; a j0 that leaves no window is refused,
        as a verdict on no window would certify nothing."""
        check_tolerance(eps, j0)
        if j0 >= self.windows:
            raise PreconditionViolation(
                f"j0={j0} leaves no window of a profile with {self.windows} windows"
            )
        j, v = self.double
        # the windows past j0 without an entry are 0.0, within any eps
        return Verdict("coherence", float(v[np.searchsorted(j, j0) :].max(initial=0.0)), eps).holds

    def union_excess(self) -> float:
        """The largest ``d[j] - (s[j] + s[j+1] + e[j])`` over the double
        windows j, with d, s and e the double, single and endpoint
        distances, -inf on a profile with no window.

        A double window is I(X,j) ∪ I(X,j+1) and the endpoint pair is the
        first point of each interval, so the union bound
        Δ_{I∪J} <= Δ_I + Δ_J + Δ_{i0 j0} makes every term at most 0, up to
        rounding.  Only the windows with an entry are evaluated; each other
        window's term is 0.0 - (0.0 + 0.0 + 0.0), the initial max."""
        n = self.windows
        (dj, dv), (sj, sv), (ej, ev) = self.double, self.single, self.endpoints
        # single window j is the first half of double window j, the second of j - 1
        first, second = sj < n, sj > 0
        at = sorted_unique(np.concatenate((dj, sj[first], sj[second] - 1, ej)))

        def on(j, v):
            out = np.zeros(at.size)
            out[np.searchsorted(at, j)] = v
            return out

        rhs = on(sj[first], sv[first]) + on(sj[second] - 1, sv[second]) + on(ej, ev)
        excess = on(dj, dv) - rhs
        return float(excess.max(initial=0.0 if at.size < n else -np.inf))

    def union_bound(self, where=None) -> Verdict:
        """The union bound as a verdict: :meth:`union_excess` at most 0,
        within ``SLACK``."""
        return Verdict("union bound", self.union_excess(), 0.0, SLACK, where)


def _dense(size: int, j: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``size`` zeros with ``v`` at ``j``, read-only."""
    out = np.zeros(size)
    out[j] = v
    out.setflags(write=False)
    return out


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
    runs, so only those get an entry; every other window is 0.0.  An
    endpoint distance is computed only for a pair of points with a run
    start between them.  So a profile costs O(runs * log h), whatever the
    number of points, and one exponential per run, which the single
    windows, the double windows and the endpoint pairs share."""
    pts = X.enumeration
    if int(pts[-1]) > alpha.horizon:
        raise HorizonTooSmall(
            f"sparse set ends at {int(pts[-1])} past horizon {alpha.horizon}",
            min_horizon=int(pts[-1]),
        )
    # pair j = (pts[j], pts[j + 1]) spans two runs only if a run starts in
    # (pts[j], pts[j + 1]]; two run starts can fall in one pair
    j = sorted_unique(np.searchsorted(pts, alpha.starts[1:], side="left") - 1)
    j = j[j < pts.size - 2]
    v = np.exp(1j * alpha.run_phases)
    endpoints = j, np.abs(v[alpha.run_index(pts[j])] - v[alpha.run_index(pts[j + 1])])
    return FxProfile(
        windows=pts.size - 2,
        double=_window_diameters(alpha.starts, v, pts, 2),
        single=_window_diameters(alpha.starts, v, pts, 1),
        endpoints=endpoints,
    )


def _window_diameters(starts: np.ndarray, values: np.ndarray, pts: np.ndarray, span: int):
    """``(j, diameters)``: the windows [pts[j], pts[j + span]) that meet a
    run break of a step function whose runs start at ``starts`` and hold the
    unit ``values``, and its diameters on them, the runs taken as the
    cells."""
    j, lo, hi = break_windows(starts, pts, span)
    return j, circle_diameters(values, lo, hi)
