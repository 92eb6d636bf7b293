"""Finite-depth coherent binary trees of torus sequences.

A chain of nested sparse sets provides, at each level transition, scheduled
blocks coarse enough to contain many finer intervals.  Successor witnesses
rotate slowly across those blocks: each one flattens out against the finer
level while swinging through antipodal values inside every scheduled block of
the coarser level.  The chain fixes the tree: its height is the chain's
depth, and each level's witness is read from that transition's levels and
scheduled blocks.  The tree multiplies witnesses along branches; every
ancestor pair carries a coherence certificate, every sibling pair a
divergence certificate, each a dict as the JSON document holds it, with a
``"kind"`` of ``"coherence"``, ``"divergence"`` or ``"jump_bound"``.
:func:`limit_stage` glues a coherent branch into one element above all of
it, the step the construction takes at a limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConstructionError, HorizonTooSmall, PreconditionViolation, as_int
from .partitions import SparseSet, break_windows, check_tolerance, fx_profile, n_of
from .torus import DIAMETER_CHUNK, SLACK, TWO_PI, TorusElement, circle_diameters, sorted_unique

DIVERGENCE_TOL = 1e-9

#: horizons must be below 2^HORIZON_BITS: numpy's arange refuses lengths
#: that round to 2^60 int64 samples, and no memory holds a chain that long
HORIZON_BITS = 59


@dataclass(frozen=True)
class ScheduleEntry:
    """One scheduled block: the coarse interval ``block`` holds >= m+1 fine
    intervals, i.e. m interior boundaries for the witness to jump at."""

    m: int
    block: int


@dataclass(frozen=True)
class Chain:
    """Nested levels X_0 ⊇ X_1 ⊇ ... with per-transition block schedules.
    Construction raises ConstructionError unless each level holds the next
    (one binary search of its points), which is strictly sparser, and each
    scheduled block holds m + 1 intervals of the finer level, the m interior
    boundaries that :func:`successor_witness` needs."""

    levels: tuple
    schedules: tuple  # schedules[t] is a tuple of ScheduleEntry for X_t -> X_{t+1}

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def horizon(self) -> int:
        return self.levels[0].last + 1

    def __post_init__(self):
        for t in range(self.depth):
            lo, hi = self.levels[t], self.levels[t + 1]
            at = np.searchsorted(lo.elements, hi.elements)
            # the last point is the largest: past the lower level's, it has no match
            if at[-1] == len(lo) or not np.array_equal(lo.elements[at], hi.elements):
                raise ConstructionError(f"level {t + 1} not contained in level {t}")
            if len(hi) >= len(lo):
                raise ConstructionError(f"level {t + 1} not strictly sparser")
            for entry in self.schedules[t]:
                interior = _interior(lo.enumeration, hi, entry.block).size
                if interior < entry.m:
                    raise ConstructionError(
                        f"block {entry.block} at level {t} has {interior} "
                        f"interior boundaries, need {entry.m}"
                    )

    def min_jump_m(self) -> int:
        """The least m of the chain's schedules; a depth-0 chain has none."""
        ms = [e.m for sched in self.schedules for e in sched]
        if not ms:
            raise PreconditionViolation("a depth-0 chain has no schedule, so no jump bound")
        return min(ms)


def _interior(pts: np.ndarray, X_hi: SparseSet, block: int) -> np.ndarray:
    """The points of the increasing ``pts`` strictly inside the interval
    ``block`` of ``X_hi``, as a slice found by two binary searches."""
    a, b = n_of(X_hi, block), n_of(X_hi, block + 1)
    return pts[np.searchsorted(pts, a, side="right") : np.searchsorted(pts, b)]


def _pair_merge(cur: int, end: int) -> np.ndarray:
    """Indices of the points kept when points cur..end are merged in pairs,
    always keeping ``end``."""
    if cur >= end:
        return np.empty(0, dtype=np.int64)
    return np.append(np.arange(cur + 2, end, 2), end)


def _region_starts(depth: int, m_schedule):
    """The chain's layout, which no horizon changes: the schedule's entries
    (none at depth 0, where no transition reads them) and, for t = 0..depth,
    the index c_t in level t's enumeration where transition t's scheduled
    region starts.

    Transition t keeps the pair-merged head of points 1..c_t, which is
    (c_t - 1) // 2 + 1 points, one point per block end, at
    c_t + cumsum(m + 1), and the pair-merged tail.  Below the next region
    lie 0, the head and the block ends, so c_0 = 1 and
    c_{t+1} = 2 + (c_t - 1) // 2 + len(schedule).
    """
    if as_int(depth, "depth") < 0:
        raise PreconditionViolation("depth must be >= 0")
    if depth == 0:
        return [], [1]
    ms = [as_int(m, "a schedule entry") for m in m_schedule]
    if not ms:
        raise PreconditionViolation("a chain of depth >= 1 needs a nonempty schedule")
    if min(ms) < 1:
        raise PreconditionViolation("schedule entries must be >= 1")
    starts = [1]
    for _ in range(depth):
        starts.append(2 + (starts[-1] - 1) // 2 + len(ms))
    return ms, starts


def min_sufficient_horizon(depth: int, m_schedule) -> int:
    """Smallest horizon for which :func:`generate_chain` succeeds, worked
    out from point counts alone, so that finding it allocates no horizon.

    Transition t needs its last block end e_t = c_t + sum(m + 1) below the
    n_t points of level t, and keeps c_{t+1} - 1 points up to e_t and
    (n_t - e_t) // 2 points past it, so the least n_t follows from the
    least n_{t+1}, backwards from the last transition; n_0 is the horizon.
    """
    ms, starts = _region_starts(depth, m_schedule)
    span = sum(m + 1 for m in ms)
    need = 0  # least point count after the last transition
    for t in reversed(range(depth)):
        tail = max(need - starts[t + 1], 0)
        need = starts[t] + span + max(1, 2 * tail)
    return max(4, need)


def generate_chain(depth: int, horizon: int, m_schedule) -> Chain:
    """Build a nested chain with the same block schedule at every transition,
    laid out by the recurrence of :func:`_region_starts`.

    The scheduled regions of distinct transitions occupy disjoint stretches of
    the horizon, so witnesses of distinct levels never jump at the same point.
    A horizon of 2^59 or more is refused, and with it every depth whose least
    horizon is that large: with the schedule of the CLI, every depth past 51.
    """
    horizon = as_int(horizon, "horizon")
    if horizon >= 1 << HORIZON_BITS:
        raise PreconditionViolation(f"horizon {horizon} must be below 2^{HORIZON_BITS}")
    # past its region's start, each transition needs its blocks (at least two
    # points each) and twice what the next needs past its own, so depth d >= 1
    # needs a horizon of at least 5 * 2^(d - 1) - 1 >= 2^(d + 1)
    if as_int(depth, "depth") + 1 >= HORIZON_BITS:
        raise PreconditionViolation(
            f"depth {depth} needs a horizon of at least 2^{depth + 1}, "
            f"and horizons must be below 2^{HORIZON_BITS}"
        )
    need = min_sufficient_horizon(depth, m_schedule)
    if need >= 1 << HORIZON_BITS:
        raise PreconditionViolation(
            f"depth {depth} needs horizon {need}; horizons must be below 2^{HORIZON_BITS}"
        )
    if horizon < need:
        raise HorizonTooSmall(
            f"horizon {horizon} too small; need >= {need}", min_horizon=need
        )
    ms, starts = _region_starts(depth, m_schedule)
    ends = np.cumsum([m + 1 for m in ms], dtype=np.int64)
    levels = [SparseSet(np.arange(1, horizon, dtype=np.int64))]
    schedules = []
    for c in starts[:-1]:
        pts = levels[-1].enumeration
        head = _pair_merge(0, c)
        tail = _pair_merge(c + int(ends[-1]), pts.size - 1)
        levels.append(SparseSet(pts[np.concatenate((head, c + ends, tail))]))
        schedules.append(
            tuple(ScheduleEntry(m=m, block=head.size + k) for k, m in enumerate(ms))
        )
    return Chain(levels=tuple(levels), schedules=tuple(schedules))


def successor_witness(chain: Chain, t: int) -> TorusElement:
    """The witness of transition t of ``chain``, 0 <= t < depth, read from
    levels t and t + 1 and schedule t: constant on the intervals of level t,
    it jumps by pi/m at each interior boundary of each scheduled block of
    level t + 1, which has at least m of them (``Chain`` checks that when it
    is built), and is constant elsewhere."""
    if not 0 <= as_int(t, "transition") < chain.depth:
        raise PreconditionViolation(f"a chain of depth {chain.depth} has no transition {t}")
    X_lo, X_hi, schedule = chain.levels[t], chain.levels[t + 1], chain.schedules[t]
    interiors = [_interior(X_lo.enumeration, X_hi, entry.block) for entry in schedule]
    # the phase is the running sum of the jumps in index order; the samples
    # between jumps would only add 0.0, which changes no sum
    points = sorted_unique(np.concatenate([np.empty(0, dtype=np.int64), *interiors]))
    jumps = np.zeros(points.size)
    for entry, interior in zip(schedule, interiors):
        jumps[np.searchsorted(points, interior)] += np.pi / entry.m
    return TorusElement.from_runs(
        np.append(0, points), np.append(0.0, np.cumsum(jumps)), X_lo.last + 1
    )


def limit_stage(alphas, levels, eps: float = 0.1, j0: int = 10):
    """One element above a coherent branch: the step of the construction at
    a limit stage.

    ``alphas[n]`` is the branch's element at level ``levels[n]``, the levels
    nested and ending at one point.  Returns ``(beta, x_inf, worst)``:

    1. Block boundaries, chosen greedily left to right from the last level,
       so sparse that inside block k every fine interval and endpoint pair
       of every earlier level is (1/k)-close between the k-th and the
       earlier element.
    2. ``beta``, which on block k is the k-th element times a unimodular
       constant fixed by agreement with the previous block's element at the
       block's left boundary; the first constant is one.
    3. An exhaustive recheck of ``beta`` itself: for every n, every interval
       and endpoint pair of level n from the pair crossing into block n+1
       on, short of the last (which ends at the truncation), is closer than
       1/k between ``beta`` and ``alphas[n]``, k being the pair's block.
       ``worst`` is the largest distance times k.

    Steps 1 and 3 read the profiles' sparse entries only, since a pair
    without one is 0.0 apart, so the stage costs O(runs * log h), whatever
    the number of level points.

    The coherence of each pair n < k at (eps, j0) is checked first, on the
    difference ``alphas[n] * alphas[k]^-1`` that :func:`build_tree`
    certifies.  A failed recheck raises :class:`ConstructionError` naming
    the element and the block, and so does a pair or recheck profile whose
    :meth:`~corona_lab.partitions.FxProfile.union_excess` is above ``SLACK``,
    naming the union bound.
    """
    K = len(alphas)
    if K < 2 or K != len(levels):
        raise PreconditionViolation("need at least two elements, one per level")
    # one profile per pair n < k, in the direction the tree certifies
    profiles = {}
    for k in range(1, K):
        for n in range(k):
            diff = alphas[n].mul(alphas[k].inverse())
            prof = profiles[n, k] = fx_profile(diff, levels[n])
            _check_union_bound(prof, f"inputs {n} and {k}", n)
            if not prof.in_fx(eps, j0):
                raise PreconditionViolation(
                    f"inputs {n} and {k} not coherent at eps={eps}, j0={j0}"
                )
    x_inf = _sparsify_limit(profiles, levels)
    beta = _merge_limit(alphas, x_inf)
    bounds = x_inf.enumeration
    worst = 0.0
    for n in range(K - 1):
        prof = fx_profile(beta.mul(alphas[n].inverse()), levels[n])
        _check_union_bound(prof, f"beta and input {n}", n)
        pts = levels[n].enumeration
        # pairs j (and intervals j) from the one crossing into block n+1 on,
        # short of the last, each in the block of its left point, the
        # crossing pair in n+1; a pair without an entry is 0.0 apart on both
        # counts, within every 1/k and adding 0.0 to the initial max
        first = np.searchsorted(pts, bounds[n + 1]) - 1
        (sj, sv), (ej, ev) = prof.single, prof.endpoints
        s = (sj >= first) & (sj < prof.windows)
        e = ej >= first
        j = sorted_unique(np.concatenate((sj[s], ej[e])))
        d_single, d_endpoints = np.zeros(j.size), np.zeros(j.size)
        d_single[np.searchsorted(j, sj[s])] = sv[s]
        d_endpoints[np.searchsorted(j, ej[e])] = ev[e]
        k = np.maximum(np.searchsorted(bounds, pts[j], side="right") - 1, n + 1)
        d = np.maximum(d_single, d_endpoints)
        bad = np.nonzero(d >= 1.0 / k)[0]
        if bad.size:
            at = bad[0]
            raise ConstructionError(
                f"limit stage failed for element {n} in block {int(k[at])}: "
                f"distance {float(d[at])} >= 1/{int(k[at])} at point {int(pts[j[at]])}"
            )
        worst = max(worst, float((d * k).max(initial=0.0)))
    return beta, x_inf, worst


def _check_union_bound(prof, pair: str, level: int) -> None:
    """Raise :class:`ConstructionError` unless ``prof`` meets the union bound
    on every window, within ``SLACK``; a NaN excess fails too."""
    excess = prof.union_excess()
    if not excess <= SLACK:
        raise ConstructionError(
            f"union bound exceeded by {excess} on the profile of {pair} on level {level}"
        )


def _sparsify_limit(profiles, levels) -> SparseSet:
    """Greedy block boundaries b_1 < ... < b_{K-1} from the last level: b_k
    lies past every interval and endpoint pair of an earlier level n that is
    not (1/k)-close in ``profiles[n, k]``.  The last point closes the last
    block."""
    K = len(levels)
    last_pts = levels[-1].elements
    bounds = []
    prev = 0
    for k in range(1, K):
        th = 1.0 / k
        last_bad = 0
        for n in range(k):
            prof = profiles[n, k]
            (sj, sv), (ej, ev) = prof.single, prof.endpoints
            bad = np.concatenate((sj[(sv >= th) & (sj < prof.windows)], ej[ev >= th]))
            if bad.size:
                last_bad = max(last_bad, int(levels[n].enumeration[bad.max() + 1]))
        # the first point of the last level past both prev and last_bad
        at = np.searchsorted(last_pts, max(prev, last_bad), side="right")
        if at == last_pts.size:
            raise HorizonTooSmall(
                f"no boundary candidate for block {k} within horizon"
            )
        prev = int(last_pts[at])
        bounds.append(prev)
    final = int(last_pts[-1])
    if final <= prev:
        raise HorizonTooSmall("horizon exhausted before the final block")
    bounds.append(final)
    return SparseSet(np.asarray(bounds, dtype=np.int64))


def _merge_limit(alphas, x_inf: SparseSet) -> TorusElement:
    """Block n of ``x_inf`` copies ``alphas[n]`` (the last block up to the
    horizon) up to a unimodular constant fixed by agreement, at the block's
    left boundary, with the previous block's element; the first constant is
    one."""
    K = len(alphas)
    pts = x_inf.enumeration
    horizon = max(a.horizon for a in alphas)
    starts, phases = [], []
    gamma = 0.0
    for n in range(K):
        lo = int(pts[n])
        hi = min(int(pts[n + 1]) if n < K - 1 else horizon, horizon)
        if lo < hi:
            # the runs of alphas[n] that meet [lo, hi), shifted by gamma
            r0, r1 = alphas[n].run_index([lo, hi - 1])
            starts += [[lo], alphas[n].starts[r0 + 1 : r1 + 1]]
            phases.append(gamma + alphas[n].run_phases[r0 : r1 + 1])
        if n < K - 1:
            p = int(pts[n + 1])
            gamma = gamma + float(alphas[n].phase_at(p)) - float(alphas[n + 1].phase_at(p))
    return TorusElement.from_runs(np.concatenate(starts), np.concatenate(phases), horizon)


@dataclass(frozen=True)
class CoherenceTree:
    """``nodes`` maps each label, a string of 0s and 1s whose length is its
    level, to its element; ``witnesses[t]`` is the chain's witness of
    transition t, which the tree multiplies in at level t."""

    nodes: dict
    witnesses: tuple
    certificates: tuple
    eps: float
    j0: int
    z_variant: bool

    def to_json(self) -> dict:
        """The tree as a JSON document.  A node ``s + "0"`` holds the element
        of ``s``, and nodes that hold one element share one document."""
        docs = {}
        for alpha in self.nodes.values():
            if id(alpha) not in docs:
                docs[id(alpha)] = alpha.to_json()
        return {
            "eps": self.eps,
            "j0": self.j0,
            "z_variant": self.z_variant,
            "nodes": {label: docs[id(alpha)] for label, alpha in self.nodes.items()},
            "certificates": list(self.certificates),
        }


def build_tree(
    chain: Chain,
    z_variant: bool = False,
    eps: float = 0.1,
    j0: int = 10,
) -> CoherenceTree:
    """Grow the full binary tree over the chain, as deep as the chain, and
    verify every certificate; any failure aborts with the failing pair
    identified.  The z-variant needs each schedule's m nondecreasing, so
    consecutive jump sizes shrink along the construction, and certifies a
    jump bound at every node.

    Every element of the tree is a sum of witnesses, so its runs start on
    one grid: 0 and the witnesses' jump points.  A node's row of phases over
    the grid's cells is its label's bits: row r holds the node with a 1 at
    position k where bit k of r is set, so ``s + "0"`` shares the row of s,
    and witness k doubles the rows, row r + 2^k being mod(row r + w_k), the
    float step of :meth:`TorusElement.mul`.

    The coherence difference of an ancestor pair (t[:cut], t) is the product
    of the inverse witnesses where t has a 1 past cut: the inverse of row(t)
    with its low cut bits cleared.  So each cut profiles every 2^cut-th row,
    as mod(mod(-z)), the float steps of :meth:`TorusElement.inverse` and of
    a product with the root, on the windows past j0 that meet a grid break,
    and t reads the profile of row(t) >> cut: 2^(depth+1) - 2 rows for the
    2^(depth+1)(depth-1) + 2 certificates.
    """
    check_tolerance(eps, j0)
    if z_variant and any(
        [e.m for e in sched] != sorted(e.m for e in sched) for sched in chain.schedules
    ):
        raise PreconditionViolation("z-variant requires a nondecreasing jump schedule")
    depth, horizon = chain.depth, chain.horizon
    # level depth - 1, the sparsest that a certificate profiles, has n - 2 windows
    windows = chain.levels[depth - 1].num_points - 2
    if depth and j0 >= windows:
        raise PreconditionViolation(
            f"j0={j0} leaves no window on level {depth - 1}, which has {windows}"
        )
    witnesses = [successor_witness(chain, t) for t in range(depth)]
    grid = sorted_unique(np.concatenate([[0], *(w.starts for w in witnesses)]))

    # R[r]: the phases, on the grid's cells, of the nodes with 1s at r's set bits
    R = np.zeros((1, grid.size))
    for w in witnesses:
        R = np.concatenate((R, np.mod(R + w.phase_at(grid), TWO_PI)))
    elements = [TorusElement.from_runs(grid, phases, horizon) for phases in R]
    # level by level, lexicographic within a level
    labels = ["".join(b) for level in range(depth + 1) for b in product("01", repeat=level)]
    nodes = {label: elements[int("0" + label[::-1], 2)] for label in labels}

    # ancestor coherence, profiled against the ancestor's own level in batches
    # of at most DIAMETER_CHUNK phases, which bounds the memory of deep trees
    per = max(1, DIAMETER_CHUNK // grid.size)
    tail_maxes = [[] for _ in range(depth)]
    for cut in range(depth):
        j, lo, hi = break_windows(grid, chain.levels[cut].enumeration, 2)
        # the tail's other windows meet no break, and their 0.0 is the initial max
        lo, hi = lo[j >= j0], hi[j >= j0]
        Z = R[:: 1 << cut]
        for k0 in range(0, len(Z), per):
            # two reductions, as in root.mul(z.inverse()): a tiny z has mod(-z) = 2π
            diff = np.mod(np.mod(-Z[k0 : k0 + per], TWO_PI), TWO_PI)
            tail_maxes[cut] += circle_diameters(diff, lo, hi).max(axis=1, initial=0.0).tolist()

    certs = []
    for label_t in nodes:
        r = int("0" + label_t[::-1], 2)
        for cut in range(len(label_t)):
            label_s = label_t[:cut]
            tail_max = tail_maxes[cut][r >> cut]
            # d[j0:] <= eps exactly when its max is, also for an empty or NaN tail
            holds = bool(tail_max <= eps)
            certs.append({
                "kind": "coherence",
                "s": label_s,
                "t": label_t,
                "eps": eps,
                "j0": j0,
                "tail_max": tail_max,
                "holds": holds,
            })
            if not holds:
                raise ConstructionError(
                    f"coherence failed for {label_s!r} < {label_t!r}: "
                    f"tail max {tail_max} > {eps}"
                )
    # sibling divergence over the scheduled blocks of the next level: the
    # siblings differ by the level's witness, so each Δ is its block diameter
    level_blocks = []
    for lvl, w in enumerate(witnesses):
        pts = chain.levels[lvl + 1].enumeration
        sched = chain.schedules[lvl]
        at = np.asarray([entry.block for entry in sched], dtype=np.int64)
        deltas = circle_diameters(
            w.run_phases, w.run_index(pts[at]), w.run_index(pts[at + 1] - 1) + 1
        )
        level_blocks.append([
            {"block": entry.block, "m": entry.m, "delta": float(d)}
            for entry, d in zip(sched, deltas)
            if d >= 2.0 - DIVERGENCE_TOL
        ])
    # the first 2^depth - 1 labels are those above the leaves
    for label in labels[: (1 << depth) - 1]:
        lvl = len(label)
        blocks = level_blocks[lvl]
        certs.append({
            "kind": "divergence",
            "s0": label + "0",
            "s1": label + "1",
            "level": lvl,
            "blocks": blocks,
        })
        if not blocks:
            raise ConstructionError(
                f"divergence failed for siblings of {label!r} at level {lvl}"
            )
    if z_variant:
        bound = 2.0 * float(np.sin(np.pi / (2.0 * chain.min_jump_m())))
        for label, alpha in nodes.items():
            max_jump = float(np.abs(np.diff(np.exp(1j * alpha.run_phases))).max(initial=0.0))
            certs.append({
                "kind": "jump_bound",
                "node": label,
                "i0": 0,
                "max_jump": max_jump,
                "bound": bound,
                "holds": max_jump <= bound + 1e-12,
            })
            if max_jump > bound + 1e-12:
                raise ConstructionError(
                    f"jump bound failed at node {label!r}: {max_jump} > {bound}"
                )
    return CoherenceTree(
        nodes=nodes,
        witnesses=tuple(witnesses),
        certificates=tuple(certs),
        eps=eps,
        j0=j0,
        z_variant=z_variant,
    )
