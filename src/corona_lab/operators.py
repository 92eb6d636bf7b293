"""Finite-dimensional block-operator numerics.

A truncated multiplier is a dense complex matrix over a block structure; the
truncation tail plays the role of the ideal.  The core identity used
throughout: conjugating by a diagonal unitary u with expanded diagonal d acts
as the Schur multiplier (u m u* - m)_{kl} = (d_k conj(d_l) - 1) m_{kl}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolation, as_int
from .partitions import SparseSet
from .torus import TorusElement, as_indices, delta_one

# unused here; perfbench/tracing.py splits its op_norm counters at this size
DENSE_NORM_DIM = 512
# the most entries a probe's corner may have for its Gram verdict to be
# certified (see _norm_at_most)
_GRAM_ENTRIES = 4096
# the most entries of a row slab of DDWitness.reconstruction_residual's
# difference: 256 KB of complex entries
_SLAB_ENTRIES = 16384


def op_norm(m: np.ndarray) -> float:
    """Operator (spectral) norm: the largest singular value from LAPACK's SVD,
    accurate to rounding at every size; 0.0 for an empty or zero matrix.

    Every norm the package reports is this one.  ``_norm_at_most`` decides
    some yes/no probes from a Gram matrix instead, only where its rounding
    bound makes the verdict this norm's.  A NaN or infinite entry raises
    PreconditionViolation: LAPACK fails on the one and returns NaN for the
    other, so both are caught after the SVD, not looked for before it.
    """
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0 or not np.any(m):
        return 0.0
    try:
        norm = float(np.linalg.svd(m, compute_uv=False).max())
    except np.linalg.LinAlgError:  # LAPACK's answer to a NaN entry
        norm = math.nan
    if not math.isfinite(norm):
        raise PreconditionViolation("op_norm of a matrix with a non-finite entry")
    return norm


@dataclass(frozen=True)
class BlockStructure:
    """Mutually orthogonal coordinate blocks covering {0, ..., D-1}."""

    sizes: tuple

    def __post_init__(self):
        sz = np.asarray(self.sizes)
        # an integer array reads a bool as 0 or 1, so a bool is found by its type
        bools = sz.ndim == 1 and not {bool, np.bool_}.isdisjoint(map(type, self.sizes))
        if sz.ndim != 1 or bools or sz.size and sz.dtype.kind not in "iu":
            raise PreconditionViolation("block sizes must be integers")
        sz = tuple(sz.tolist())
        if not sz or any(s < 1 for s in sz):
            raise PreconditionViolation("block sizes must be >= 1")
        object.__setattr__(self, "sizes", sz)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.sizes)])

    def expand(self, per_block: np.ndarray) -> np.ndarray:
        """Broadcast one value per block to a length-D vector."""
        return np.repeat(np.asarray(per_block), self.sizes)


def load_matrix(path) -> np.ndarray:
    """The matrix in the text file ``path``: one row per line, its entries
    comma-separated tokens that Python's ``complex()`` reads, such as
    ``0.5+1j`` or ``-2``.  A file that cannot be read or parsed raises
    :class:`PreconditionViolation`, chained from the error, with its text."""
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([complex(tok) for tok in line.split(",")])
    except (OSError, ValueError) as exc:
        raise PreconditionViolation(str(exc)) from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise PreconditionViolation("malformed matrix file")
    m = np.asarray(rows, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise PreconditionViolation("matrix file has a non-finite entry")
    return m


def _interval_offsets(m: np.ndarray, X: SparseSet, blocks: BlockStructure) -> list:
    """First coordinate of every point of X's enumeration: interval j spans
    the coordinates b[j] to b[j + 1], and those from b[-1] on lie past the
    truncation."""
    if m.shape != (blocks.dim, blocks.dim):
        raise PreconditionViolation("matrix does not match the block structure")
    pts = X.enumeration
    if pts[-1] > blocks.num_blocks:
        raise PreconditionViolation("sparse set extends past the block range")
    return blocks.offsets[pts].tolist()


@dataclass(frozen=True)
class DDWitness:
    """Near-block-diagonal decomposition m = m_e + m_o + a; ``tail_bounds[i]``
    is the norm of (1 - p_{n(i)}) a: the largest ``op_norm`` (an SVD norm)
    over the connected blocks of that tail, exact to rounding."""

    X: SparseSet
    m_e: np.ndarray
    m_o: np.ndarray
    a: np.ndarray
    tail_bounds: tuple

    def reconstruction_residual(self, m: np.ndarray) -> float:
        """op_norm(m - (m_e + m_o + a)), summed in that order.

        The difference is checked in row slabs of at most ``_SLAB_ENTRIES``
        entries, each bitwise those rows of the whole difference, in one
        reused buffer: when every slab is zero (-0.0 included) the residual
        is 0.0, op_norm's value for a zero matrix, and no D×D array is
        made.  Otherwise the whole difference is formed and its op_norm
        returned.  An m of another shape than the parts is refused.
        """
        m = np.asarray(m)
        if m.shape != self.a.shape:
            raise PreconditionViolation("matrix does not match the witness's parts")
        n, d = m.shape
        rows = max(1, _SLAB_ENTRIES // max(1, d))
        slab = np.empty((min(rows, n), d), dtype=complex)
        for lo in range(0, n, rows):
            s, r = slice(lo, lo + rows), slab[: n - lo]
            np.add(self.m_e[s], self.m_o[s], out=r)
            r += self.a[s]
            if np.subtract(m[s], r, out=r).any():
                r = self.m_e + self.m_o
                r += self.a
                return op_norm(np.subtract(m, r, out=r))
        return 0.0

    def tail_bound_ok(self) -> bool:
        return all(b <= 2.0 ** (-i + 4) for i, b in enumerate(self.tail_bounds))


def stratify_against(m: np.ndarray, X: SparseSet, blocks: BlockStructure) -> DDWitness:
    """Decompose m relative to a given sparse set; the residual's tail norms
    say whether the level is admissible.

    With b the first coordinates of X's points and K intervals, m_e is m on
    the even double blocks [b[2i], b[min(2i + 2, K)])², m_o is m on the two
    strips between intervals 2i + 1 and 2i + 2, and a is the rest of m, the
    rows and columns past the truncation included.  The parts are cut by
    slices, one per double block, strip or corner; no entry mask is built.
    Each entry of m is written once, into the one part that holds it, and
    every other entry of a part is the +0.0 of ``np.zeros``.
    """
    m = np.asarray(m, dtype=complex)
    b = _interval_offsets(m, X, blocks)
    K = X.num_intervals
    m_e = np.zeros(m.shape, dtype=complex)
    m_o = np.zeros(m.shape, dtype=complex)
    a = np.zeros(m.shape, dtype=complex)
    for j in range(0, K, 2):
        d = slice(b[j], b[min(j + 2, K)])
        m_e[d, d] = m[d, d]
    for j in range(1, K - 1, 2):
        r, c = slice(b[j], b[j + 1]), slice(b[j + 1], b[j + 2])
        m_o[r, c], m_o[c, r] = m[r, c], m[c, r]
    # a: the corners between intervals at distance >= 2, then the rows and
    # the columns past the truncation
    for j in range(K - 2):
        r, c = slice(b[j], b[j + 1]), slice(b[j + 2], b[K])
        a[r, c], a[c, r] = m[r, c], m[c, r]
    t = b[K]
    a[t:], a[:t, t:] = m[t:], m[:t, t:]
    # tail i is the rows of intervals >= i, the rows past the truncation last
    D = blocks.dim
    tails = _tail_norms(a, b if b[-1] == D else b + [D], X.num_points)
    return DDWitness(X=X, m_e=m_e, m_o=m_o, a=a, tail_bounds=tuple(tails))


def _tail_norms(a: np.ndarray, bounds: list, count: int) -> list:
    """Norms of the row tails a[bounds[i]:, :] for i < count.

    ``bounds`` increases strictly from 0 to the dimension; label k spans the
    coordinates bounds[k] to bounds[k + 1], in rows and in columns.  Up to a
    permutation each tail is the direct sum of the connected blocks of its
    label-level nonzero pattern, so its norm is the largest ``op_norm`` of a
    block.  Row labels join from the last to the first; a block's norm is
    taken again only when a new row label reaches it.
    """
    starts = np.array(bounds[:-1])
    blocks = {}  # name -> (row labels, column labels, norm); named by its first row label
    owner = {}  # column label -> name of its block
    tails = [0.0] * count
    for r in range(len(starts) - 1, -1, -1):
        nz = np.logical_or.reduceat(a[bounds[r] : bounds[r + 1]].any(axis=0), starts)
        reached = np.flatnonzero(nz).tolist()
        if reached:
            rows, cols = {r}, set(reached)
            for b in {owner[c] for c in reached if c in owner}:
                b_rows, b_cols, _ = blocks.pop(b)
                rows |= b_rows
                cols |= b_cols
            owner.update(dict.fromkeys(cols, r))
            norm = op_norm(a[_coords(rows, bounds)][:, _coords(cols, bounds)])
            blocks[r] = rows, cols, norm
        tails[r] = max((norm for _, _, norm in blocks.values()), default=0.0)
    return tails


def _coords(chosen: set, bounds: list):
    """Coordinates of a set of labels, label k spanning bounds[k] to
    bounds[k + 1]: a slice (a view, no copy) when the labels are consecutive."""
    lo, hi = min(chosen), max(chosen)
    if hi - lo + 1 == len(chosen):
        return slice(bounds[lo], bounds[hi + 1])
    return np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in sorted(chosen)])


def _norm_at_most(c: np.ndarray, bound: float) -> bool:
    """``op_norm(c) <= bound``, settled without an SVD where that is certified.

    Each estimate below decides only outside a band of 1e-12 relative
    around ``bound``.  With LAPACK's largest singular value off by about
    1e-14, each rounding bound stated here leaves the verdict the SVD's.
    Write u = 2^-53 and s = op_norm(c).

    - A largest row or column norm <= s <= the Frobenius norm; a sum of n
      squares is off by less than n u relative, under 1e-13 up to 900 terms.
    - For a corner of at most ``_GRAM_ENTRIES`` entries, the square root of
      the largest ``eigvalsh`` eigenvalue of the Gram matrix of its smaller
      side, c^H c for an n x k corner with k <= n.  Each Gram entry is a
      complex dot product of length n, off by at most
      sqrt(2) g (|c|^T |c|)_ij with g = (n + 1) u / (1 - (n + 1) u); as
      op_norm(|c|)^2 <= ||c||_F^2 <= k s^2, the Gram matrix is off by at
      most sqrt(2) g k s^2 in norm.  LAPACK's Hermitian eigensolver adds
      p(k) u s^2, p(k) a modest function of k (LAPACK Users' Guide,
      section 4.7) taken as <= k.  The square root halves the relative
      error and rounds once, so the estimate is within
      (0.71 (n + 1) k + k / 2 + 1) u < (n k + k + 1) u relative of s:
      under 4.7e-13 for n k <= 4,096 (so k <= 64).

    Squares of entries below about 1e-154 underflow, and can read a nonzero
    corner as 0, so every "<=" from a sum of squares needs a Frobenius norm
    of at least 2^-500, which keeps what underflow can take away under u, or
    a corner of zeros.  Inside a band, for a larger or tinier corner, and for
    a corner with a non-finite sum of squares, the SVD decides.
    """
    with np.errstate(over="ignore"):  # an overflow leaves the verdict to the SVD
        sq = np.square(c.real) + np.square(c.imag)
    rows = sq.sum(axis=1)
    frob = float(np.sqrt(rows.sum()))
    lo, hi = bound * (1.0 - 1e-12), bound * (1.0 + 1e-12)
    if np.isfinite(frob):
        if frob <= lo and (frob >= 2.0**-500 or not c.any()):
            return True
        if np.sqrt(max(rows.max(), sq.sum(axis=0).max())) >= hi:
            return False
        if c.size <= _GRAM_ENTRIES and frob >= 2.0**-500:
            g = c.conj().T @ c if c.shape[0] >= c.shape[1] else c @ c.conj().T
            gram = math.sqrt(np.linalg.eigvalsh(g)[-1])
            if gram <= lo or gram >= hi:
                return gram <= lo
    return op_norm(c) <= bound


def stratify(m: np.ndarray, blocks: BlockStructure) -> DDWitness:
    """Choose the sparse set by the inductive tail-norm rule, then decompose.

    n(0) = 0, n(1) = 1, and n(j+1) is the least block index past n(j) whose
    first coordinate row gives corners m[row:, :cut] and m[:cut, row:] (the
    corner of m*) of norm <= 2^{-j}, cut being block n(j)'s first coordinate.
    These norms do not grow with row, so n(j+1) is found by bisection; the
    block count qualifies (its corners are empty), so the selection ends.
    A probe (``_norm_at_most``) settles a corner by its Frobenius norm and
    its largest row and column norms when one of them lies outside
    bound·(1 ± 1e-12); failing that, a corner of at most 4,096 entries by
    the largest eigenvalue of the Gram matrix of its smaller side, off by
    under (n·k + k + 1)·2^-53 relative for an n×k corner, k <= n, again
    outside that band.  The SVD decides only inside the band, for a larger
    corner, for a non-finite one, and for a nonzero one whose Frobenius norm
    is below 2^-500, where squares underflow.  The margins exceed the
    rounding of every side, so every verdict is the SVD's.
    """
    m = np.asarray(m, dtype=complex)
    nb = blocks.num_blocks
    off = blocks.offsets
    if m.shape != (blocks.dim, blocks.dim):
        raise PreconditionViolation("matrix does not match the block structure")
    ns = [1]
    while ns[-1] < nb:
        bound = 2.0 ** -len(ns)
        cut = off[ns[-1]]
        lo, hi = ns[-1] + 1, nb
        while lo < hi:
            mid = (lo + hi) // 2
            row = off[mid]
            if _norm_at_most(m[row:, :cut], bound) and _norm_at_most(m[:cut, row:], bound):
                hi = mid
            else:
                lo = mid + 1
        ns.append(lo)
    # one block stops the selection at n(1) = 1; a sparse set needs two
    # elements, and {0, 1} has the same enumeration as {1}
    X = SparseSet(np.asarray(ns if len(ns) > 1 else [0, 1], dtype=np.int64))
    return stratify_against(m, X, blocks)


def dd_check(m: np.ndarray, X: SparseSet, blocks: BlockStructure) -> bool:
    """True iff every corner between intervals at distance >= 2 is exactly 0.

    The corners of interval j are the slices between it and intervals j + 2
    up to the truncation, in both directions; -0.0 counts as 0, NaN does not.
    """
    m = np.asarray(m)
    b = _interval_offsets(m, X, blocks)
    for j in range(len(b) - 3):
        r, c = slice(b[j], b[j + 1]), slice(b[j + 2], b[-1])
        if m[r, c].any() or m[c, r].any():
            return False
    return True


def ad_sandwich(
    alpha: TorusElement,
    blocks: BlockStructure,
    I,
    samples: int = 10,
    seed: int = 0,
) -> dict:
    """Certified interval around the conjugation-distance from the identity.

    The matrix-unit witnesses realize the lower bound exactly; random samples
    stay below twice the pseudometric distance.
    """
    idx = as_indices(I)
    if any(i < 0 or i >= blocks.num_blocks for i in idx):
        raise PreconditionViolation("index set outside the block range")
    sub = BlockStructure(tuple(blocks.sizes[i] for i in idx))
    vals = alpha.values(idx)
    u = sub.expand(vals)
    coeff = u[:, None] * u.conj()[None, :] - 1.0
    delta = delta_one(alpha, idx)
    # matrix-unit witnesses between (first coordinates of) block pairs
    per_block = vals[:, None] * vals.conj()[None, :] - 1.0
    lower_witness = float(np.abs(per_block).max())
    return {
        "delta": delta,
        "lower_witness": lower_witness,
        "sampled_max": sampled_norm(coeff, samples, seed),
    }


def sampled_norm(coeff: np.ndarray, samples: int, seed: int) -> float:
    """The largest ``op_norm(coeff * a)`` over ``samples`` seeded complex
    Gaussian matrices ``a``, each scaled to norm one; 0.0 for none."""
    if as_int(samples, "samples") < 0 or as_int(seed, "seed") < 0:
        raise PreconditionViolation(f"need samples >= 0 and seed >= 0, got {samples}, {seed}")
    rng = np.random.default_rng(seed)
    n = coeff.shape[0]
    sampled = 0.0
    for _ in range(samples):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= op_norm(a)
        sampled = max(sampled, op_norm(coeff * a))
    return sampled
