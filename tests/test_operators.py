import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corona_lab import operators
from corona_lab import (
    BlockStructure,
    PreconditionViolation,
    SparseSet,
    TorusElement,
    ad_sandwich,
    constant_one,
    dd_check,
    load_matrix,
    op_norm,
    stratify,
    stratify_against,
)


def write_matrix(path, m) -> None:
    """Write ``m`` in the text format :func:`load_matrix` reads, one row per
    line: each entry's real part by ``repr`` and its signed imaginary part."""
    with open(path, "w") as fh:
        for row in np.atleast_2d(m):
            fh.write(",".join(f"{float(z.real)!r}{float(z.imag):+}j" for z in row) + "\n")


def rand_mat(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m / np.linalg.norm(m, 2)


def test_op_norm_diagonal_exact():
    d = np.diag([1.0, -3.0, 2.0])
    assert op_norm(d) == 3.0


def test_op_norm_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = rng.standard_normal((40, 40))
        assert op_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], abs=1e-9)


def test_op_norm_power_iteration_large():
    # past the former dense/iterative switch at 512 rows
    rng = np.random.default_rng(1)
    m = rng.standard_normal((600, 600))
    ref = np.linalg.svd(m, compute_uv=False)[0]
    assert op_norm(m) == pytest.approx(ref, rel=1e-12)


def test_op_norm_near_degenerate_top_pair_large():
    # sigma_1 = 1 and sigma_2 = 1 - 1e-9: a power iteration stops short of
    # sigma_1, which would make a tail "bound" fall below the true norm
    rng = np.random.default_rng(2)
    u, _ = np.linalg.qr(rng.standard_normal((600, 600)))
    v, _ = np.linalg.qr(rng.standard_normal((600, 600)))
    s = np.concatenate([[1.0, 1.0 - 1e-9], np.linspace(0.9, 0.1, 598)])
    m = (u * s) @ v.T
    assert op_norm(m) >= 1.0 - 1e-13


def test_op_norm_is_the_float_of_numpy_2_norm():
    rng = np.random.default_rng(3)
    for shape in ((1, 1), (5, 3), (3, 5), (40, 40)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert op_norm(m) == float(np.linalg.norm(m, 2))
    assert op_norm(np.arange(6).reshape(2, 3)) == float(np.linalg.norm(np.arange(6).reshape(2, 3), 2))


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf, -np.inf, complex(np.inf, 1.0)])
def test_op_norm_refuses_a_non_finite_entry(bad):
    # numpy's SVD raises LinAlgError on a NaN and returns nan on an inf
    m = np.full((4, 3), 0.1, dtype=complex)
    m[2, 1] = bad
    with pytest.raises(PreconditionViolation):
        op_norm(m)


def test_block_structure():
    b = BlockStructure((2, 3, 1))
    assert b.dim == 6 and b.num_blocks == 3
    assert b.offsets.tolist() == [0, 2, 5, 6]
    with pytest.raises(PreconditionViolation):
        BlockStructure((0, 2))


def test_matrix_io_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    m = rand_mat(rng, 12)
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)
    bad = tmp_path / "bad.txt"
    bad.write_text("1+2j,3\n1\n")
    with pytest.raises(PreconditionViolation):
        load_matrix(bad)


def test_diagonal_unitary_schur_identity():
    rng = np.random.default_rng(3)
    blocks = BlockStructure((2, 1, 3))
    alpha = TorusElement(rng.uniform(0, 2 * np.pi, 3))
    d = blocks.expand(alpha.values(np.arange(3)))
    assert np.allclose(np.abs(d), 1.0, atol=1e-12)
    m = rand_mat(rng, 6)
    lhs = np.diag(d) @ m @ np.diag(d).conj().T - m
    rhs = (d[:, None] * d.conj()[None, :] - 1.0) * m
    assert np.abs(lhs - rhs).max() < 1e-12


def test_stratify_single_block_support():
    rng = np.random.default_rng(4)
    blocks = BlockStructure((1,) * 16)
    m = np.zeros((16, 16), dtype=complex)
    m[2:5, 2:5] = rng.standard_normal((3, 3))
    w = stratify(m, blocks)
    assert op_norm(w.a) == 0.0
    assert np.array_equal(w.m_e + w.m_o, m)


@pytest.mark.parametrize("sizes", [(1,), (3,)])
def test_stratify_one_block(sizes):
    # a single block stops the selection at n(1) = 1: X = {0, 1}
    rng = np.random.default_rng(9)
    blocks = BlockStructure(sizes)
    m = rand_mat(rng, blocks.dim)
    w = stratify(m, blocks)
    assert w.X.enumeration.tolist() == [0, 1]
    assert w.reconstruction_residual(m) == 0.0 and op_norm(w.a) == 0.0
    assert w.tail_bound_ok() and dd_check(w.m_e + w.m_o, w.X, blocks)


def test_stratify_identity():
    blocks = BlockStructure((2,) * 8)
    m = np.eye(16, dtype=complex)
    w = stratify(m, blocks)
    assert w.reconstruction_residual(m) == 0.0
    assert op_norm(w.a) == 0.0


def test_stratify_random_certified():
    rng = np.random.default_rng(5)
    blocks = BlockStructure((1,) * 64)
    for _ in range(5):
        m = rand_mat(rng, 64)
        w = stratify(m, blocks)
        assert w.reconstruction_residual(m) <= 1e-12
        assert dd_check(w.m_e + w.m_o, w.X, blocks)
        assert w.tail_bound_ok()
        # independent recomputation of the certified tail norms
        off = blocks.offsets
        for i, n_i in enumerate(w.X.enumeration):
            start = off[min(int(n_i), 64)]
            assert w.tail_bounds[i] == pytest.approx(
                np.linalg.norm(np.atleast_2d(w.a[start:, :]), 2)
                if w.a[start:, :].size
                else 0.0,
                abs=1e-12,
            )


@st.composite
def _stratify_cases(draw):
    """Mixed blocks of sizes 1-3; X with 3 or 4 intervals (where a dense
    residual splits into blocks) or with many; X may end before the last
    block, leaving rows and columns past the truncation; zero, banded,
    80%-sparse or dense matrices."""
    nb = draw(st.integers(4, 40))
    blocks = BlockStructure(tuple(draw(st.lists(st.integers(1, 3), min_size=nb, max_size=nb))))
    k = draw(st.one_of(st.sampled_from([3, 4]), st.integers(3, nb)))
    last = draw(st.integers(k, nb))
    inner = draw(st.lists(st.integers(1, last - 1), min_size=k - 1, max_size=k - 1, unique=True))
    X = SparseSet(np.asarray(sorted(inner) + [last]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = blocks.dim
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    kind = draw(st.sampled_from(["zero", "banded", "sparse", "dense"]))
    if kind == "zero":
        m[:] = 0.0
    elif kind == "banded":
        m[np.abs(np.subtract.outer(np.arange(D), np.arange(D))) > draw(st.integers(1, 6))] = 0.0
    elif kind == "sparse":
        m[rng.random((D, D)) < 0.8] = 0.0
    return m / max(op_norm(m), 1.0), X, blocks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_stratify_cases())
def test_tail_bounds_are_the_full_tail_norms(case):
    m, X, blocks = case
    w = stratify_against(m, X, blocks)
    off, nb = blocks.offsets, blocks.num_blocks
    assert len(w.tail_bounds) == X.num_points
    full = []
    for n_i, b in zip(X.enumeration, w.tail_bounds):
        tail = w.a[off[min(int(n_i), nb)]:, :]
        full.append(op_norm(tail))
        assert (b == 0.0) == (not np.any(tail))
        assert b == pytest.approx(full[-1], rel=1e-13, abs=0.0)
    assert w.tail_bound_ok() == all(b <= 2.0 ** (-i + 4) for i, b in enumerate(full))


@pytest.mark.parametrize("i", range(4))
def test_tail_bound_ok_at_its_bound(i):
    X = SparseSet(np.array([1, 2, 3]))
    z = np.zeros((3, 3))
    at = [2.0 ** (4 - k) for k in range(4)]
    above = [*at[:i], np.nextafter(at[i], np.inf), *at[i + 1 :]]
    assert operators.DDWitness(X, z, z, z, tuple(at)).tail_bound_ok()
    assert not operators.DDWitness(X, z, z, z, tuple(above)).tail_bound_ok()


def test_tail_norm_between_its_bound_and_twice_it_fails():
    # one entry of a, from interval 2 to interval 5, of norm 5: tail 2's
    # bound is 2^(4 - 2) = 4, and 5 lies below twice that
    blocks = BlockStructure((1,) * 8)
    m = np.eye(8, dtype=complex)
    m[2, 5] = 5.0
    w = stratify_against(m, SparseSet(np.arange(1, 9)), blocks)
    assert w.tail_bounds[:4] == (5.0, 5.0, 5.0, 0.0)
    assert not w.tail_bound_ok()


def _interval_of_coords(X, blocks):
    """X-interval index of every coordinate, or -1 past the truncation."""
    blk = np.repeat(np.arange(blocks.num_blocks), blocks.sizes)
    iv = np.searchsorted(X.enumeration, blk, side="right") - 1
    iv[blk >= X.enumeration[-1]] = -1
    return iv


def _capture_masks(iv):
    """The dense entry masks of the even double blocks and the odd strips,
    built from per-coordinate interval indices: the oracle for the slices."""
    pair_e = iv // 2  # even double-blocks: intervals {2i, 2i+1}
    row_iv = iv[:, None]
    col_iv = iv[None, :]
    valid = (row_iv >= 0) & (col_iv >= 0)
    mask_e = valid & (pair_e[:, None] == pair_e[None, :])
    odd = (
        ((row_iv % 2 == 1) & (col_iv == row_iv + 1))
        | ((col_iv % 2 == 1) & (row_iv == col_iv + 1))
    )
    mask_o = valid & odd & ~mask_e
    return mask_e, mask_o


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


def _example_case(sizes, elements, seed=0):
    blocks = BlockStructure(sizes)
    rng = np.random.default_rng(seed)
    D = blocks.dim
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    m[rng.random((D, D)) < 0.2] = -0.0
    return m / op_norm(m), SparseSet(np.asarray(elements)), blocks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_stratify_cases())
@example(case=_example_case((2, 1, 3, 1), [0, 4]))  # X = {0, nb}: one interval
@example(case=_example_case((1, 2, 3, 1, 2, 1, 3), [2, 4, 7]))  # 3 intervals
@example(case=_example_case((1, 2, 3, 1, 2, 1, 3), [1, 3, 5, 7]))  # 4 intervals
@example(case=_example_case((1, 2, 3, 1, 2, 1, 3), [1, 2, 3, 5, 7]))  # 5 intervals
@example(case=_example_case((1, 2, 3, 1, 2, 1, 3), [2, 4, 5]))  # ends before the last block
@example(case=_example_case((3, 1, 2, 2, 1), [1, 2]))  # two intervals, three blocks past
def test_parts_are_the_dense_mask_parts(case):
    m, X, blocks = case
    w = stratify_against(m, X, blocks)
    mask_e, mask_o = _capture_masks(_interval_of_coords(X, blocks))
    assert _bits(w.m_e) == _bits(np.where(mask_e, m, 0.0))
    assert _bits(w.m_o) == _bits(np.where(mask_o, m, 0.0))
    assert _bits(w.a) == _bits(np.where(~(mask_e | mask_o), m, 0.0))


def _copy_and_zero_witness(m, X, blocks):
    """stratify_against's witness built from a copy of m with its double
    blocks and strips zeroed again: the oracle for writing each entry once."""
    m = np.asarray(m, dtype=complex)
    b = operators._interval_offsets(m, X, blocks)
    K = X.num_intervals
    m_e = np.zeros(m.shape, dtype=complex)
    m_o = np.zeros(m.shape, dtype=complex)
    a = m.copy()
    for j in range(0, K, 2):
        d = slice(b[j], b[min(j + 2, K)])
        m_e[d, d] = m[d, d]
        a[d, d] = 0.0
    for j in range(1, K - 1, 2):
        r, c = slice(b[j], b[j + 1]), slice(b[j + 1], b[j + 2])
        m_o[r, c], m_o[c, r] = m[r, c], m[c, r]
        a[r, c] = a[c, r] = 0.0
    D = blocks.dim
    tails = operators._tail_norms(a, b if b[-1] == D else b + [D], X.num_points)
    return operators.DDWitness(X=X, m_e=m_e, m_o=m_o, a=a, tail_bounds=tuple(tails))


def _one_buffer_residual(w, m):
    """The residual from the whole difference in one D×D buffer: the oracle
    for the row slabs."""
    r = w.m_e + w.m_o
    r += w.a
    return op_norm(np.subtract(m, r, out=r))


@st.composite
def _slab_cases(draw):
    """1-6 intervals over blocks of 1-3 coordinates, X possibly ending before
    the last block; entries drawn with signed and exact zeros; a slab of at
    least one row and at most the whole matrix; and one part perturbed in the
    first row, the last row or a row on either side of a slab boundary, or m
    given a NaN, or neither."""
    K = draw(st.integers(1, 6))
    nb = draw(st.integers(K, K + 10))
    blocks = BlockStructure(tuple(draw(st.lists(st.integers(1, 3), min_size=nb, max_size=nb))))
    last = draw(st.integers(K, nb))
    inner = draw(st.permutations(range(1, last)))[: K - 1]
    X = SparseSet(np.asarray([0, *sorted(inner), last]))
    D = blocks.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    zeros = np.array([0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)])
    hit = rng.random((D, D)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    m[hit] = zeros[rng.integers(0, 4, hit.sum())]
    slab_rows = draw(st.integers(1, D))
    edit = draw(st.sampled_from(["none", "first", "last", "before-slab", "at-slab", "nan"]))
    row = {"first": 0, "last": D - 1, "before-slab": slab_rows - 1}.get(edit, min(slab_rows, D - 1))
    part = draw(st.sampled_from(["m_e", "m_o", "a"]))
    delta = draw(st.sampled_from([0.5, -1e-3j, 5e-324]))
    return m, X, blocks, slab_rows * D, edit, (part, row, draw(st.integers(0, D - 1)), delta)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_slab_cases())
def test_parts_and_residual_are_the_copy_and_zero_oracle(case):
    m, X, blocks, slab, edit, (part, row, col, delta) = case
    if edit == "nan":
        m[row, col] = np.nan
    want = _outcome(_copy_and_zero_witness, m, X, blocks)
    got = _outcome(stratify_against, m, X, blocks)
    if want is PreconditionViolation:
        # a NaN in a is refused by its tail norms, one in m_e or m_o by the
        # residual below
        assert got is PreconditionViolation and edit == "nan"
        return
    for f in ("m_e", "m_o", "a"):
        assert _bits(getattr(got, f)) == _bits(getattr(want, f))
    assert got.X is want.X and got.tail_bounds == want.tail_bounds
    if edit not in ("none", "nan"):
        edited = getattr(got, part).copy()
        edited[row, col] += delta
        got = replace(got, **{part: edited})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_SLAB_ENTRIES", slab)
        residual = _outcome(got.reconstruction_residual, m)
    oracle = _outcome(_one_buffer_residual, got, m)
    # a float by its hex text, so -0.0 is not 0.0; an exception by its type
    assert (residual.hex() if isinstance(residual, float) else residual) == (
        oracle.hex() if isinstance(oracle, float) else oracle
    )
    if edit == "none":
        assert residual == 0.0
    if edit == "nan":
        assert residual is PreconditionViolation


@pytest.mark.parametrize("shape", [(6,), (1, 6), (3, 3)])
def test_residual_refuses_a_matrix_of_another_shape(shape):
    # (6,) and (1, 6) were broadcast against the parts, and (3, 3) let
    # numpy's ValueError escape
    rng = np.random.default_rng(12)
    w = stratify(rand_mat(rng, 6), BlockStructure((1,) * 6))
    with pytest.raises(PreconditionViolation, match="does not match"):
        w.reconstruction_residual(np.ones(shape))


def test_zero_residual_makes_no_dxd_array():
    # the whole difference as one buffer peaked at one D×D complex array
    D = 400
    m = rand_mat(np.random.default_rng(13), D)
    m[::7] = -0.0
    z = np.zeros((D, D), dtype=complex)
    w = operators.DDWitness(SparseSet(np.array([1, 2])), m.copy(), z, z, ())
    tracemalloc.start()
    try:
        assert w.reconstruction_residual(m) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < D * D * 16 / 4


def _linear_scan_X(m, blocks):
    """The selection rule of ``stratify``, scanning every candidate in turn."""
    off, nb = blocks.offsets, blocks.num_blocks
    adj = m.conj().T
    ns = [1]
    while ns[-1] < nb:
        bound, cut = 2.0 ** -len(ns), off[ns[-1]]
        ns.append(next(
            c for c in range(ns[-1] + 1, nb + 1)
            if op_norm(m[off[c]:, :cut]) <= bound and op_norm(adj[off[c]:, :cut]) <= bound
        ))
    return ns


def test_stratify_selection_is_minimal():
    rng = np.random.default_rng(6)
    cases = []
    for d in (40, 90, 150):
        sizes = rng.integers(1, 4, size=d)
        blocks = BlockStructure(tuple(int(s) for s in sizes))
        cases.append((rand_mat(rng, blocks.dim), blocks))
    # entries decaying away from the diagonal: corners are small, never 0
    blocks = BlockStructure((2, 1, 3, 1, 1, 2) * 6)
    m = rand_mat(rng, blocks.dim) * np.exp(-np.abs(np.subtract.outer(
        np.arange(blocks.dim), np.arange(blocks.dim))))
    cases.append((m, blocks))
    # normalised tridiagonal 200x200: the selection runs for 199 steps
    tri = np.eye(200) + np.eye(200, k=1) + np.eye(200, k=-1)
    cases.append((tri / op_norm(tri), BlockStructure((1,) * 200)))
    for m, blocks in cases:
        w = stratify(m, blocks)
        assert w.X.elements.tolist() == _linear_scan_X(m, blocks)
        assert w.reconstruction_residual(m) <= 1e-12 and w.tail_bound_ok()


def _outcome(f, *args):
    """f's value, or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the type is the outcome
        return type(exc)


def _around(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


def _probe_corners():
    rng = np.random.default_rng(11)
    corners = []
    for r, c in ((1, 1), (1, 7), (7, 1), (9, 5)):  # rank one: spectral = Frobenius norm
        u = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        v = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        corners.append(np.outer(u, v.conj()) * 0.37)
    for value in (0.25, -3e-5j, complex(1e-9, -2e-9)):  # single entries
        single = np.zeros((5, 4), dtype=complex)
        single[3, 1] = value
        corners += [single, single.T.copy()]
    heavy = 1e-9 * (rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8)))
    heavy[4] += rng.standard_normal(8) * 0.1  # one heavy row over 1e-9 noise
    corners += [heavy, heavy.conj().T]
    return corners + _gram_corners()


def _underflow_corners():
    """Corners whose squares underflow: a sum of squares reads 0 or too small."""
    rng = np.random.default_rng(13)
    tiny = 1e-170 * (rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))
    return [np.array([[1e-170]]), tiny, np.vstack([tiny, [[1e-150, 0, 0, 0]]])]


def _gram_corners():
    """Corners of at most 4,096 entries whose norm bounds leave a verdict
    near their norm open, so a Gram matrix decides it."""
    rng = np.random.default_rng(12)

    def gauss(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    corners = [gauss(r, c) / 40 for r, c in ((560, 3), (3, 560), (57, 57), (12, 116))]
    low_rank = gauss(64, 2) @ gauss(2, 40)  # rank two of 40
    low_rank[:, 7] = 0.0  # and a zero column
    corners += [low_rank, low_rank.conj().T.copy()]
    heavy = 1e-3 * gauss(300, 10)
    heavy[17] += gauss(1, 10)[0]  # one heavy row over small dense noise
    corners += [heavy, heavy.conj().T.copy()]
    return corners


@pytest.mark.parametrize("c", _probe_corners(), ids=lambda c: f"{c.shape[0]}x{c.shape[1]}")
def test_probe_verdicts_are_the_svd_verdicts(c):
    norm = op_norm(c)
    bounds = _around(norm) + [norm * (1 - 1e-12), norm * (1 + 1e-12), norm / 2, norm * 2]
    for bound in bounds:
        assert operators._norm_at_most(c, bound) == (op_norm(c) <= bound)


@pytest.mark.parametrize("c", _underflow_corners(), ids=lambda c: f"{c.shape[0]}x{c.shape[1]}")
def test_probe_verdicts_on_underflowing_corners_are_the_svd_verdicts(c):
    test_probe_verdicts_are_the_svd_verdicts(c)


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf, 1e300])
def test_probe_with_unbounded_sums_reaches_op_norm(bad, monkeypatch):
    c = np.full((4, 3), 0.1, dtype=complex)
    c[2, 1] = bad
    parent = _outcome(lambda: op_norm(c) <= 0.5)
    calls = []

    def counted(x):
        calls.append(x.shape)
        return op_norm(x)

    monkeypatch.setattr(operators, "op_norm", counted)
    assert _outcome(operators._norm_at_most, c, 0.5) == parent
    assert calls == [c.shape]


@pytest.mark.parametrize("c", _gram_corners(), ids=lambda c: f"{c.shape[0]}x{c.shape[1]}")
def test_probe_settles_small_corners_by_the_gram_matrix(c, monkeypatch):
    # outside the band no SVD is taken, and the Gram matrix is that of the
    # smaller side
    norm = op_norm(c)
    svd, gram = [], []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(operators, "op_norm", lambda x: svd.append(x.shape))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: gram.append(g.shape) or eigvalsh(g))
    for bound, verdict in ((norm * (1 - 2e-12), False), (norm * (1 + 2e-12), True)):
        assert operators._norm_at_most(c, bound) == verdict
    k = min(c.shape)
    assert svd == [] and gram == [(k, k)] * 2


def test_selection_at_the_bound_is_the_linear_scan():
    # level 1 cuts at block 1's first coordinate, 6, with bound 1/2: one
    # dense 11x6 corner block whose norm lies at 1/2 or just either side
    blocks = BlockStructure((6,) + (1,) * 30)
    rng = np.random.default_rng(13)
    draws = (rng.standard_normal((11, 6)) + 1j * rng.standard_normal((11, 6)) for _ in range(200))
    # the first draw whose SVD norm, once scaled to 1/2, is exactly 1/2
    base = next(b for b in (d * (0.5 / op_norm(d)) for d in draws) if op_norm(b) == 0.5)
    scales = [1 - 4e-12, 1 - 1e-12, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1 + 1e-12, 1 + 4e-12]
    sides = set()
    for scale in scales:
        m = 0.01 * np.eye(blocks.dim, dtype=complex)
        m[20:31, :6] = base * scale
        sides.add(float(np.sign(op_norm(m[20:, :6]) - 0.5)))
        assert stratify(m, blocks).X.elements.tolist() == _linear_scan_X(m, blocks)
    assert sides == {-1.0, 0.0, 1.0}


def _mixed_case(seed, dim):
    """A dense unit-norm complex matrix over blocks of 1 to 3 coordinates."""
    rng = np.random.default_rng(seed)
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, 4)))
    sizes[-1] -= sum(sizes) - dim
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m / op_norm(m), BlockStructure(tuple(sizes))


def test_stratify_selects_without_an_svd(monkeypatch):
    m, blocks = _mixed_case(21, 525)
    calls = []
    norm = op_norm
    monkeypatch.setattr(operators, "op_norm", lambda x: calls.append(x.shape) or norm(x))
    monkeypatch.setattr(operators, "stratify_against", lambda m, X, blocks: X)
    assert operators.stratify(m, blocks).num_points == 5
    assert calls == []


def test_dd_check_examples():
    blocks = BlockStructure((1,) * 12)
    X = SparseSet(np.array([3, 6, 9, 12]))
    assert dd_check(np.eye(12), X, blocks)
    assert not dd_check(np.ones((12, 12)), X, blocks)


def _dense_dd_check(m, X, blocks):
    """dd_check by the dense forbidden mask: every entry between intervals at
    distance >= 2, both inside the truncation, must equal 0."""
    iv = _interval_of_coords(X, blocks)
    row_iv, col_iv = iv[:, None], iv[None, :]
    forbidden = (row_iv >= 0) & (col_iv >= 0) & (np.abs(row_iv - col_iv) >= 2)
    return bool(np.all(m[forbidden] == 0))


def test_dd_check_single_forbidden_corner():
    # one nonzero entry in one corner: false exactly when the corner is forbidden
    blocks = BlockStructure((1, 2, 1, 3, 2, 1, 2))
    X = SparseSet(np.array([1, 2, 4, 6]))  # intervals 0-3; block 6 lies past the truncation
    off = blocks.offsets[X.enumeration]
    verdicts = set()
    for j in range(X.num_intervals):
        for k in range(X.num_intervals):
            m = np.zeros((blocks.dim, blocks.dim), dtype=complex)
            m[off[j + 1] - 1, off[k]] = 1e-300j
            assert dd_check(m, X, blocks) == _dense_dd_check(m, X, blocks) == (abs(j - k) < 2)
            verdicts.add(abs(j - k) < 2)
    assert verdicts == {True, False}


def test_dd_check_ignores_entries_past_the_truncation():
    blocks = BlockStructure((1, 2, 1, 3, 2, 1, 2))
    X = SparseSet(np.array([1, 2, 4, 5]))
    m = np.zeros((blocks.dim, blocks.dim))
    m[blocks.offsets[5]:, :] = 1.0
    m[:, blocks.offsets[5]:] = 1.0
    assert dd_check(m, X, blocks) and _dense_dd_check(m, X, blocks)
    m[0, blocks.offsets[5] - 1] = 1.0  # interval 0 against interval 4
    assert not dd_check(m, X, blocks) and not _dense_dd_check(m, X, blocks)


@pytest.mark.parametrize("value, holds", [(-0.0, True), (complex(-0.0, -0.0), True),
                                          (np.nan, False), (complex(0.0, np.nan), False)])
def test_dd_check_signed_zero_and_nan(value, holds):
    blocks = BlockStructure((1,) * 12)
    X = SparseSet(np.array([3, 6, 9, 12]))
    m = np.eye(12, dtype=complex)
    forbidden = m.copy()
    forbidden[0, 11] = value  # interval 0 against interval 3
    assert dd_check(forbidden, X, blocks) == _dense_dd_check(forbidden, X, blocks) == holds
    forbidden = m.copy()
    forbidden[11, 0] = value
    assert dd_check(forbidden, X, blocks) == _dense_dd_check(forbidden, X, blocks) == holds
    allowed = m.copy()
    allowed[0, 5] = value  # interval 0 against interval 1: allowed
    assert dd_check(allowed, X, blocks) and _dense_dd_check(allowed, X, blocks)


def test_ad_sandwich_constant():
    rep = ad_sandwich(constant_one(4), BlockStructure((2, 2, 1, 1)), [0, 1, 2])
    assert rep["delta"] == 0.0
    assert rep["lower_witness"] == pytest.approx(0.0, abs=1e-12)
    assert rep["sampled_max"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("I", [[0.5, 1], ["1", 2], [True, 2]])
def test_ad_sandwich_refuses_non_integer_indices(I):
    # [0.5, 1] was read as [0, 1], "1" as 1 and True as 1
    with pytest.raises(PreconditionViolation):
        ad_sandwich(constant_one(4), BlockStructure((2, 2, 1, 1)), I)


def test_ad_sandwich_antipodal_two_blocks():
    alpha = TorusElement([0.0, np.pi])
    rep = ad_sandwich(alpha, BlockStructure((2, 2)), [0, 1])
    assert rep["delta"] == pytest.approx(2.0, abs=1e-12)
    assert rep["lower_witness"] == pytest.approx(2.0, abs=1e-12)
    assert rep["sampled_max"] <= 2.0 + 1e-9
    # the norm of Ad u - id equals 2 here: verify on the explicit matrix unit
    u = np.diag(BlockStructure((2, 2)).expand(alpha.values(np.arange(2))))
    a = np.zeros((4, 4), dtype=complex)
    a[0, 2] = 1.0
    assert op_norm(u @ a @ u.conj().T - a) == pytest.approx(2.0, abs=1e-12)


def test_ad_sandwich_fuzz():
    rng = np.random.default_rng(6)
    for run in range(50):
        nb = int(rng.integers(2, 9))
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=nb))
        alpha = TorusElement(rng.uniform(0, 2 * np.pi, nb))
        I = sorted(rng.permutation(nb)[: int(rng.integers(2, nb + 1))].tolist())
        rep = ad_sandwich(alpha, BlockStructure(sizes), I, samples=4, seed=run)
        assert rep["lower_witness"] >= rep["delta"] - 1e-9
        assert rep["sampled_max"] <= 2 * rep["delta"] + 1e-9
