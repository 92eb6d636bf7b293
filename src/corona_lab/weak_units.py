"""Positive approximate units and the witness machinery built on them.

The unit is a finite sequence of positive contractions r_i whose partial sums
p_n satisfy p_{n+1} p_n = p_n; consequently r_i r_j = 0 once |i - j| >= 2.
Every unit here is diagonal: each r_i is a sampled nonnegative function on a
grid of coordinates, such as the piecewise-linear tent model, a block
indicator or its tensor with coordinate projections (the stable case).  The
ambient algebra is the full matrix algebra on those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    PreconditionViolation,
    WitnessNotFound,
    as_int,
)
from .operators import BlockStructure, op_norm, sampled_norm
from .torus import TorusElement, as_indices, delta_one

PLATEAU_TOL = 1e-12

#: highest power k of the corners that :func:`hyp_check` tests for HypWeak
HYP_K_MAX = 8

#: random ambient elements :func:`weak_sandwich` samples for its upper estimate
SANDWICH_SAMPLES = 10


@dataclass(frozen=True)
class PositiveUnit:
    """Sequence of positive contractions with interlocking partial sums.

    ``rs`` has shape (count, D): row i is the diagonal of r_i.  A NaN or
    infinite entry is refused; the range [0, 1] and the interlocking are
    :meth:`check_invariants`' verdict.  The unit holds a read-only copy of
    ``rs``, so the caller's array stays writable and cannot change the unit.
    """

    rs: np.ndarray

    def __post_init__(self):
        rs = np.array(self.rs)
        if rs.ndim != 2 or not rs.shape[1]:
            raise PreconditionViolation("a unit needs a (count, D) array of diagonals, D >= 1")
        if not np.isfinite(rs).all():
            raise PreconditionViolation("unit entries must be finite")
        rs.setflags(write=False)
        object.__setattr__(self, "rs", rs)

    @property
    def count(self) -> int:
        return int(self.rs.shape[0])

    @property
    def dim(self) -> int:
        return int(self.rs.shape[1])

    def spectrum(self, i: int) -> np.ndarray:
        return np.asarray(self.rs[i], dtype=float)

    def partial_sums(self) -> np.ndarray:
        """Row n - 1 is the diagonal of p_n = r_0 + ... + r_{n-1}, added in
        that order; + 0.0 makes a sum of -0.0s read 0.0, as a sum from 0 does."""
        return np.cumsum(self.rs, axis=0) + 0.0

    def sandwich(self, i: int, a: np.ndarray, j: int, k: int = 1) -> np.ndarray:
        """r_i^k a r_j^k."""
        return (self.rs[i] ** k)[:, None] * a * (self.rs[j] ** k)[None, :]

    def peak_vector(self, i: int):
        """Unit vector (nearly) fixed by r_i, with its r_i-eigenvalue."""
        p = int(np.argmax(self.rs[i]))
        v = np.zeros(self.dim, dtype=complex)
        v[p] = 1.0
        return v, float(self.rs[i][p])

    def check_invariants(self, tol: float = 1e-12) -> dict:
        """Largest deviations from 0 <= p_n <= 1, p_{n+1} p_n = p_n and
        r_i r_j = 0 (j >= i + 2), and whether all are <= ``tol``; NaN is not.

        p_0 = 0 is each reduction's initial value.  The max of |r_i r_j| over
        j >= i + 2 is |r_i| times the max of |r_j| there, exactly: rounding a
        product by a nonnegative factor is monotone."""
        ps = self.partial_sums()
        order = np.maximum(-ps.min(initial=0.0), ps.max(initial=0.0) - 1.0)
        d = ps[1:] * ps[:-1] - ps[:-1]
        a = np.abs(self.rs)
        tails = np.maximum.accumulate(a[::-1], axis=0)[::-1]
        devs = {
            "order": float(order) + 0.0,  # -0.0, from -min(p_0), reads 0.0
            "interlock": float(np.abs(d).max(initial=0.0)),
            "far_products": float((a[:-2] * tails[2:]).max(initial=0.0)),
        }
        devs["ok"] = all(v <= tol for v in devs.values())
        return devs


def build_tent_unit(count: int, grid_step: float) -> PositiveUnit:
    """Piecewise-linear tent unit on a uniform grid over [0, 2*count].

    p_n equals 1 on [0, 2n-1], ramps linearly to 0 on [2n-1, 2n]; each tent
    r_i = p_{i+1} - p_i then ramps up exactly where r_{i-1} ramps down, so the
    interlocking identities hold pointwise with no tolerance.  ``grid_step``
    must be a finite number above 0.
    """
    count = as_int(count, "count")
    if count < 2:
        raise PreconditionViolation("need at least 2 tents")
    if not (grid_step > 0 and np.isfinite(grid_step)):
        raise PreconditionViolation(f"grid_step must be finite and above 0, got {grid_step!r}")
    x = np.arange(int(np.floor(2.0 * count / grid_step)) + 1) * grid_step
    ps = np.clip(2.0 * np.arange(count + 1)[:, None] - x, 0.0, 1.0)
    return PositiveUnit(rs=np.diff(ps, axis=0))


def projection_unit(blocks: BlockStructure) -> PositiveUnit:
    """Mutually orthogonal coordinate-block indicator projections."""
    return PositiveUnit(rs=np.repeat(np.eye(blocks.num_blocks), blocks.sizes, axis=1))


def power_gap(r, k: int, continuous_range: tuple | None = None) -> float:
    """Norm of r^{k+1} - r^k for a positive contraction r, given by its
    spectrum ``r``: a 1-D array, such as a diagonal unit's row.

    Equals the max of t^k (1 - t) over the spectrum.  ``continuous_range``
    declares that the spectrum fills an interval (the tent model's ramps do),
    in which case the max is taken analytically over that interval.
    """
    if as_int(k, "k") < 0:
        raise PreconditionViolation("k must be a natural number")
    if continuous_range is not None:
        lo, hi = float(continuous_range[0]), float(continuous_range[1])
        if not (lo >= -PLATEAU_TOL and hi <= 1.0 + PLATEAU_TOL):  # NaN fails too
            raise PreconditionViolation("range outside [0, 1]")
        cands = [lo, hi]
        if k > 0:
            t_star = k / (k + 1.0)
            if lo <= t_star <= hi:
                cands.append(t_star)
        return max(t**k * (1.0 - t) for t in cands)
    spec = np.asarray(r, dtype=float)
    if spec.ndim != 1 or not spec.size:
        raise PreconditionViolation("r must be a nonempty 1-D spectrum")
    if not (spec.min() >= -1e-9 and spec.max() <= 1.0 + 1e-9):  # NaN fails too
        raise PreconditionViolation("r is not a positive contraction")
    spec = np.clip(spec, 0.0, 1.0)
    return float((spec**k * (1.0 - spec)).max())


def epsilon_witness(unit: PositiveUnit, i: int, j: int, eps: float) -> dict:
    """Unit-norm a with a large (i, j)-corner that the corner barely moves.

    Recipe: pick k with both power gaps below eps/4, start from a rank-one
    a_0 built on (near-)fixed vectors of r_i and r_j, then compress by r_i^k
    and r_j^k and renormalize.  All three certified norms are recomputed from
    the result; failure to meet them reports the model as violating the
    hypothesis rather than returning an uncertified witness.
    """
    if not (0 <= i < unit.count and 0 <= j < unit.count):
        raise PreconditionViolation("tent indices out of range")
    if not eps > 0:  # NaN is invalid input too, not a failed hypothesis
        raise PreconditionViolation("eps must be positive")
    delta = min(eps, 1.0) / 4.0
    k = None
    for cand in range(1, 65):
        gi = power_gap(unit.spectrum(i), cand)
        gj = power_gap(unit.spectrum(j), cand)
        if max(gi, gj) <= delta:
            k = cand
            break
    if k is None:
        raise WitnessNotFound("power gaps do not fall below eps/4 for k <= 64")
    vi, li = unit.peak_vector(i)
    vj, lj = unit.peak_vector(j)
    if (li * lj) ** (k + 1) < 1.0 - delta:
        raise WitnessNotFound(
            f"no corner of norm >= {1 - delta} at pair ({i}, {j})"
        )
    a0 = np.outer(vi, vj.conj())
    a = unit.sandwich(i, a0, j, k)
    na = op_norm(a)
    if na == 0.0:
        raise WitnessNotFound(f"compressed witness vanished at pair ({i}, {j})")
    a = a / na
    corner = unit.sandwich(i, a, j, 1)
    norms = {
        "k": k,
        "norm_a": op_norm(a),
        "corner": op_norm(corner),
        "defect": op_norm(corner - a),
    }
    ok = (
        abs(norms["norm_a"] - 1.0) <= 1e-9
        and norms["corner"] >= 1.0 - eps - 1e-9
        and norms["defect"] < eps
    )
    if not ok:
        raise WitnessNotFound(f"certification failed at pair ({i}, {j}): {norms}")
    return {"a": a, "norms": norms}


def quasi_unitary_residual(alpha: TorusElement, unit: PositiveUnit, N: int) -> dict:
    """Tail norm of sum_{i > N} 2 [Re(alpha(i) conj(alpha(i+1))) - 1] r_i r_{i+1}
    against the bound 3 eps_N; the overlap supports meet at most three terms."""
    N = as_int(N, "N")
    idx = np.arange(unit.count - 1)
    vals = alpha.values(idx) * alpha.values(idx + 1).conj()
    c = 2.0 * (np.real(vals) - 1.0)
    rows = idx[idx > N]
    if not rows.size:
        return {"tail_norm": 0.0, "eps_N": 0.0, "bound": 0.0}
    eps_N = float(np.abs(c[rows]).max())
    # one sum over axis 0 adds the terms in order of i
    s = (c[rows, None] * unit.rs[rows] * unit.rs[rows + 1]).sum(axis=0)
    tail = float(np.abs(s).max())
    return {"tail_norm": tail, "eps_N": eps_N, "bound": 3.0 * eps_N}


def _plateau_coords(unit: PositiveUnit, i: int) -> np.ndarray:
    return np.nonzero(unit.rs[i] >= 1.0 - PLATEAU_TOL)[0]


def weak_sandwich(
    alpha: TorusElement,
    unit: PositiveUnit,
    I,
    eps_probe: float = 0.1,
    seed: int = 0,
) -> dict:
    """Sandwich estimate for conjugation by u = sum alpha(i) r_i, probed on
    the corner where the selected units act as the identity."""
    idx = as_indices(I)
    if any(x < 0 or x >= unit.count for x in idx):
        raise PreconditionViolation("index set outside the unit range")
    coords = []
    owner = []
    for x in idx:
        pc = _plateau_coords(unit, x)
        if pc.size == 0:
            raise PreconditionViolation(f"unit {x} has no plateau to probe")
        coords.append(pc)
        owner.append(np.full(pc.size, x))
    coords = np.concatenate(coords)
    owner = np.concatenate(owner)
    d = alpha.values(owner)
    coeff = d[:, None] * d.conj()[None, :] - 1.0
    delta = delta_one(alpha, idx)
    # probe with the epsilon witnesses between peak coordinates
    achieved = 0.0
    for a_i in idx:
        for a_j in idx:
            w = epsilon_witness(unit, a_i, a_j, eps_probe)["a"]
            sub = w[np.ix_(coords, coords)]
            moved = op_norm(coeff * sub)
            achieved = max(achieved, moved)
    return {
        "delta": delta,
        "achieved": achieved,
        "sampled_max": sampled_norm(coeff, SANDWICH_SAMPLES, seed),
        "lower_slack": (len(idx) + 2) * eps_probe,
    }


def hyp_check(unit: PositiveUnit, mode: str, eps: float = 0.1) -> dict:
    """Verdict on the unit's structural hypothesis, over every corner (i, j).

    The sup over unit-norm ambient a of the norm of r_i^k a r_j^k is
    M[k, i] M[k, j], with M[k, i] = max(r_i^k) computed once per power.
    ``"HypA"``: every r_i is a projection and every ambient corner
    r_i A r_j is nonzero.  ``"HypWeak"``: for every pair and every power up
    to :data:`HYP_K_MAX`, some ambient element has a compressed corner of
    norm >= 1 - eps, for an ``eps`` in (0, 1); HypA reads no eps.
    Failures are listed by i, then j, with the first failing power.
    """
    if mode not in ("HypA", "HypWeak"):
        raise PreconditionViolation(f"unknown mode {mode!r}")
    rs = unit.rs
    if mode == "HypA":
        bad = np.flatnonzero(np.abs(rs * rs - rs).max(axis=1) > 1e-9)
        failures = [{"kind": "not_projection", "i": int(i)} for i in bad]
        M = rs.max(axis=1)
        for i, j in zip(*np.nonzero(M[:, None] * M[None, :] <= PLATEAU_TOL)):
            failures.append({"kind": "zero_corner", "i": int(i), "j": int(j)})
    else:
        if not 0.0 < eps < 1.0:
            raise PreconditionViolation(f"HypWeak needs an eps in (0, 1), got {eps!r}")
        M = np.stack([(rs**k).max(axis=1) for k in range(1, HYP_K_MAX + 1)])
        small = M[:, :, None] * M[:, None, :] < 1.0 - eps
        first = small.argmax(axis=0) + 1  # each pair's first failing power
        failures = [{"kind": "small_corner", "i": int(i), "j": int(j), "k": int(first[i, j])}
                    for i, j in zip(*np.nonzero(small.any(axis=0)))]
    return {"mode": mode, "holds": not failures, "failures": failures, "k_max": HYP_K_MAX}


def tensor_unit(unit: PositiveUnit, qs) -> PositiveUnit:
    """Unit of the stabilization A (x) K: s_i = p_{i+1} (x) q_{i+1} - p_i (x) q_i,
    with p_0 (x) q_0 = 0.

    ``qs`` holds the diagonals of q_1..q_count, all of one length, with
    entries in [0, 1] and nondecreasing in n entry by entry.  Coordinate
    projections of growing rank give the stable case.  The result is checked
    against the unit invariants.
    """
    qs = [np.asarray(q, dtype=float) for q in qs]
    if not qs or len(qs) != unit.count:
        raise PreconditionViolation("need one q per unit element (q_1..q_count)")
    if any(q.ndim != 1 or q.shape != qs[0].shape for q in qs):
        raise PreconditionViolation("each q is a diagonal, all of one length")
    qs = np.stack(qs)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise PreconditionViolation("q entries must lie in [0, 1]")
    if np.any(np.diff(qs, axis=0) < 0.0):
        raise PreconditionViolation("q sequence must be nondecreasing")
    tops = (unit.partial_sums()[:, :, None] * qs[:, None, :]).reshape(unit.count, -1)
    out = PositiveUnit(rs=np.diff(tops, axis=0, prepend=0.0))
    inv = out.check_invariants(tol=1e-9)
    if not inv["ok"]:
        raise ConstructionError(f"tensor unit violates invariants: {inv}")
    return out
