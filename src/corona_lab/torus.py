"""Pseudometric calculus on finite-horizon unimodular sequences.

A sequence is stored as phases, one per run of equal values, so every
represented value has modulus one by construction.  The distance between two
sequences over a finite index set is the largest deviation of their relative
phases over pairs of indices; against the constant-one sequence it is the
diameter of the value set on those indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import prod

import numpy as np

from .errors import IndexOutOfRange, PreconditionViolation, as_int
from .verdicts import Verdict

TWO_PI = 2.0 * np.pi

#: default slack for floating-point inequality checks
SLACK = 1e-12

#: most pairwise distances :func:`circle_diameters` holds at once (one batch)
DIAMETER_CHUNK = 1 << 20

#: most cases :func:`fuzz_lij` draws and checks at once (one chunk)
FUZZ_CHUNK = 2048
#: length of the sequences :func:`fuzz_lij` draws, and the size of its index sets
FUZZ_HORIZON, FUZZ_SET_SIZE = 16, 3


class RunList:
    """A list of floats held as its runs: ``runs`` is the pair (values,
    counts) of lists, each value standing ``count`` times in turn.  The
    CLI's emitter formats each run once; :meth:`tolist` builds the plain
    list, which is how ``json.dumps(doc, default=RunList.tolist)`` reads
    it."""

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        self.runs = (values.tolist(), counts.tolist())

    def tolist(self) -> list:
        return list(chain.from_iterable(map(repeat, *self.runs)))


@dataclass(frozen=True, init=False, eq=False)
class TorusElement:
    """Finite-horizon sequence of points on the unit circle, stored as a step
    function: run k holds the phase ``run_phases[k]``, reduced mod 2π, from
    index ``starts[k]`` up to the next start (the last run up to
    ``horizon``).  ``starts[0]`` is 0, and neighbouring runs differ bitwise.

    ``TorusElement(phases)`` takes one phase per index and :meth:`from_runs`
    takes runs; both give the same phase per index.  Past the horizon the
    last phase repeats; a negative index raises :class:`IndexOutOfRange`.
    """

    starts: np.ndarray
    run_phases: np.ndarray
    horizon: int

    def __init__(self, phases):
        ph = np.asarray(phases, dtype=float)
        if ph.ndim != 1 or ph.size < 1:
            raise PreconditionViolation("phases must be a 1-D array of length >= 1")
        self._assign(np.arange(ph.size), ph, ph.size)

    @classmethod
    def from_runs(cls, starts, phases, horizon: int) -> "TorusElement":
        """The element with phase ``phases[k]`` from index ``starts[k]`` up to
        the next start; ``starts`` increases strictly from 0 and stays below
        ``horizon``."""
        element = cls.__new__(cls)
        element._assign(starts, phases, horizon)
        return element

    def _assign(self, starts, phases, horizon) -> None:
        starts = np.asarray(starts)
        if starts.size and starts.dtype.kind not in "iu":
            raise PreconditionViolation("run starts must be integers")
        object.__setattr__(self, "starts", starts.astype(np.int64, copy=False))
        object.__setattr__(self, "run_phases", np.asarray(phases, dtype=float))
        object.__setattr__(self, "horizon", as_int(horizon, "horizon"))
        self.__post_init__()

    def __post_init__(self):
        """Check the runs, reduce their phases mod 2π, refuse a non-finite
        one, and merge neighbouring runs that became bitwise equal."""
        starts = self.starts
        if (
            starts.ndim != 1
            or starts.shape != self.run_phases.shape
            or starts.size < 1
            or starts[0] != 0
            or starts[-1] >= self.horizon
            or np.any(starts[1:] <= starts[:-1])
        ):
            raise PreconditionViolation(
                "runs must start at 0 and increase strictly below the horizon"
            )
        with np.errstate(invalid="ignore"):  # an infinite phase reduces to NaN
            ph = np.mod(self.run_phases, TWO_PI)
        if not np.isfinite(ph).all():
            raise PreconditionViolation("phases must be finite")
        bits = ph.view(np.int64)
        keep = np.concatenate(([True], bits[1:] != bits[:-1]))
        starts, ph = starts[keep], ph[keep]
        starts.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "run_phases", ph)

    @cached_property
    def phases(self) -> np.ndarray:
        """One phase per index below the horizon, read-only; built on the
        first request."""
        ph = np.repeat(self.run_phases, np.diff(self.starts, append=self.horizon))
        ph.setflags(write=False)
        return ph

    def run_index(self, indices) -> np.ndarray:
        """The run holding each index: the last run past the horizon, and -1
        below 0."""
        return np.searchsorted(self.starts, indices, side="right") - 1

    def phase_at(self, indices) -> np.ndarray:
        """Phases at the given indices; past the horizon the last phase
        repeats."""
        idx = np.asarray(indices, dtype=int)
        if idx.size and idx.min() < 0:
            raise IndexOutOfRange("negative index")
        return self.run_phases[self.run_index(idx)]

    def values(self, indices) -> np.ndarray:
        return np.exp(1j * self.phase_at(indices))

    # --- group structure (pointwise multiplication on the circle) ---

    def mul(self, other: "TorusElement") -> "TorusElement":
        """The pointwise product: its runs start where a run of either
        factor starts, merged by :func:`sorted_unique`."""
        starts = sorted_unique(np.concatenate((self.starts, other.starts)))
        return TorusElement.from_runs(
            starts,
            self.phase_at(starts) + other.phase_at(starts),
            max(self.horizon, other.horizon),
        )

    def inverse(self) -> "TorusElement":
        return TorusElement.from_runs(self.starts, -self.run_phases, self.horizon)

    # --- serialization ---

    def to_json(self) -> dict:
        counts = np.diff(self.starts, append=self.horizon)
        return {
            "horizon": self.horizon,
            "phases": RunList(self.run_phases, counts),
            "tail": "constant",
        }


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of the integer array ``a`` in increasing order, as
    ``np.unique(a)`` gives them, by one sort and a neighbour mask.

    Under numpy 2.4 ``np.unique`` of integers goes through a hash table:
    merging 470 + 470 sorted int64 run starts takes about 110 µs with
    ``np.union1d`` and 12 µs by sorting (2,000 + 2,000: 520 against 35 µs).
    """
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def constant_one(horizon: int) -> TorusElement:
    """The zero-phase sequence of the given horizon."""
    return TorusElement.from_runs([0], [0.0], horizon)


def as_indices(I) -> np.ndarray:
    """The index set ``I``, any iterable of integers, as a sorted array of
    its distinct entries; a float, a bool or a string is refused with
    :class:`PreconditionViolation`, not truncated or parsed."""
    return np.asarray(sorted({as_int(i, "index") for i in I}), dtype=int)


def delta_set(alpha: TorusElement, beta: TorusElement, I) -> float:
    """Max of |alpha(i) conj(alpha(j)) - beta(i) conj(beta(j))| over all pairs
    drawn from the indices ``I``: the diameter of gamma = alpha * conj(beta)
    on ``I``."""
    idx = as_indices(I)
    gamma = alpha.phase_at(idx) - beta.phase_at(idx)
    return float(circle_diameters(np.exp(1j * gamma), [0], [gamma.size])[0])


def delta_one(alpha: TorusElement, I) -> float:
    """Distance to the constant-one sequence; the value-set diameter on ``I``."""
    return delta_set(alpha, constant_one(1), I)


def circle_diameters(values, starts, ends) -> np.ndarray:
    """Diameter of {values[..., k] : s <= k < e} for every window [s, e), in
    each row of the unit values ``values`` (complex, shape (..., N)); the
    result has shape (..., number of windows).  Callers pass
    ``np.exp(1j * phases)``, so each exponential is taken once however many
    windows read it.

    Every distance Delta_I of the package is such a diameter, because
    |alpha(i) conj(alpha(j)) - beta(i) conj(beta(j))| = |gamma(i) - gamma(j)|
    with gamma = alpha * conj(beta).

    Constant windows are filtered out by the caller, not here: the window
    finder :func:`~corona_lab.partitions.break_windows` passes only windows
    that meet a run break.  A constant window still gets 0.0 from the
    pairwise maximum, and a window of one sample or none keeps 0.0.  The
    windows are short, so distances are computed pairwise, grouped by window
    length L (the lengths found by :func:`sorted_unique`): each unordered
    pair a < b of a window once, as |v_a - v_b|, which is bitwise
    |v_b - v_a|, in batches of at most :data:`DIAMETER_CHUNK` distances over
    all rows (or pairs of one row of one window, where that has more).  A
    maximum does not depend on the order of its terms, so each row's
    diameters are bitwise those of a call on that row alone.
    """
    values = np.asarray(values)
    if values.dtype.kind != "c":
        raise PreconditionViolation("circle_diameters takes unit values exp(1j * phases)")
    rows = values.reshape(prod(values.shape[:-1]), values.shape[-1])
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends - starts
    diam = np.zeros((rows.shape[0], starts.size))
    for L in sorted_unique(lengths[lengths > 1]):
        win = np.nonzero(lengths == L)[0]
        # v[k] holds sample k of each line, one line per (window, row), so
        # the distances of many short lines are reduced along their first axis
        v = rows.T[starts[win] + np.arange(L)[:, None]].reshape(L, -1)
        d = np.zeros(v.shape[1])
        a, b = _pairs(int(L))
        # a batch holds every pair of whole lines while they fit, else some
        # pairs of one line
        per = max(1, DIAMETER_CHUNK // a.size)
        for w0 in range(0, d.size, per):
            lines, dw = slice(w0, w0 + per), d[w0 : w0 + per]
            for p0 in range(0, a.size, DIAMETER_CHUNK):
                pa, pb = a[p0 : p0 + DIAMETER_CHUNK], b[p0 : p0 + DIAMETER_CHUNK]
                np.maximum(dw, np.abs(v[pa, lines] - v[pb, lines]).max(axis=0), out=dw)
        diam[:, win] = d.reshape(win.size, rows.shape[0]).T
    return diam.reshape(values.shape[:-1] + (starts.size,))


@lru_cache(maxsize=64)
def _pairs(L: int):
    """The unordered pairs a < b of ``range(L)``, as ``np.triu_indices(L, 1)``,
    read-only, since every call for L shares them."""
    pairs = np.triu_indices(L, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def fuzz_lij(n: int, seed: int = 0) -> int:
    """Vectorized fuzz of the union bound; returns the number of violations.

    It backs acceptance criterion 3; ``verify`` checks the bound on the
    lab's own profiles instead, by
    :meth:`~corona_lab.partitions.FxProfile.union_excess`.

    Each of the ``n`` cases draws two sequences pa, pb of
    :data:`FUZZ_HORIZON` phases uniform on [0, 2π), and two independent
    uniform ordered :data:`FUZZ_SET_SIZE`-subsets I, J of their indices:
    the first entries of an argsort of uniform doubles.  gamma = pa - pb
    read at I's points, then J's, gives Delta_{I u J}, Delta_I and Delta_J
    by one :func:`circle_diameters` call, and Delta_{i0 j0} from the first
    point of each.  Cases are streamed in chunks of at most
    :data:`FUZZ_CHUNK`; the four streams of ``SeedSequence(seed).spawn(4)``
    are read case by case, so the count does not depend on the chunk size.
    """
    n, seed = as_int(n, "n"), as_int(seed, "seed")
    if n < 0 or seed < 0:
        raise PreconditionViolation(f"need n >= 0 and seed >= 0, got n={n}, seed={seed}")
    g_pa, g_pb, g_i, g_j = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(4))
    h, k = FUZZ_HORIZON, FUZZ_SET_SIZE
    violations = 0
    for c0 in range(0, n, FUZZ_CHUNK):
        c = min(FUZZ_CHUNK, n - c0)
        gamma = g_pa.uniform(0.0, TWO_PI, (c, h)) - g_pb.uniform(0.0, TWO_PI, (c, h))
        I = g_i.random((c, h)).argsort(axis=1)[:, :k]
        J = g_j.random((c, h)).argsort(axis=1)[:, :k]
        # row r holds gamma at I's points, then J's, of case r
        v = np.exp(1j * np.take_along_axis(gamma, np.hstack((I, J)), axis=1))
        d_union, d_i, d_j = circle_diameters(v, [0, 0, k], [2 * k, k, 2 * k]).T
        rhs = d_i + d_j + np.abs(v[:, 0] - v[:, k])
        violations += int(np.sum(~Verdict("union bound", d_union, rhs, SLACK).passes()))
    return violations
