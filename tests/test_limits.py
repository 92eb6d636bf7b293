import json
import signal
from dataclasses import replace
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from corona_lab import (
    AbGroupPresentation,
    InvalidSes,
    PreconditionViolation,
    SesTower,
    Tower,
    build_paper_model,
    constant_tower,
    cyclic_group,
    flasque_check,
    free_group,
    lim1_tower,
    lim_tower,
    six_term_check,
    smith_normal_form,
)
from corona_lab import limits
from corona_lab.cli import main
from corona_lab.limits import (
    _bond_surjective,
    col_hermite,
    det_int,
    kernel_basis,
    lattice_leq,
    mat_hstack,
    mat_id,
    mat_mul,
    row_hermite,
)


def test_snf_identity():
    U, S, V = smith_normal_form(mat_id(3))
    assert S == mat_id(3)


def test_snf_diag_2_3():
    U, S, V = smith_normal_form([[2, 0], [0, 3]])
    assert [S[0][0], S[1][1]] == [1, 6]


def test_snf_of_a_relation_matrix_without_columns():
    # free_group(2)'s relation matrix: two empty rows
    assert mat_mul([[], []], []) == [[], []]
    assert smith_normal_form([[], []]) == (mat_id(2), [[], []], [])
    assert smith_normal_form([]) == ([], [], [])
    assert free_group(2).invariants() == (2, ())
    assert free_group(0).invariants() == (0, ())


def test_det_int():
    assert det_int([[2, 1], [1, 1]]) == 1
    assert det_int([[1, 2], [2, 4]]) == 0
    rng = np.random.default_rng(1)
    for _ in range(10):
        M = rng.integers(-9, 10, size=(4, 4))
        assert det_int(M.tolist()) == round(float(np.linalg.det(M)))


def test_hermite_canonical_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        M = rng.integers(-9, 10, size=(4, 5)).tolist()
        H = row_hermite(M)
        assert row_hermite(H) == H


def test_hermite_lattice_equality():
    # two column lattices are equal iff their canonical bases are
    A = [[2, 0], [0, 3]]
    assert col_hermite(A) == col_hermite(A)
    assert col_hermite([[4, 6]]) == col_hermite([[2]])
    assert col_hermite([[2]]) != col_hermite([[3]])


def test_kernel_basis():
    K = kernel_basis([[1, 2, 3]])
    # every kernel column is annihilated
    for col in zip(*K):
        assert sum(c * v for c, v in zip([1, 2, 3], col)) == 0
    # rank check: kernel of a 1x3 rank-1 map has rank 2
    assert len(K[0]) == 2


def test_lattice_contains():
    # a vector is in a lattice when its one-column lattice is contained
    L = [[2, 0], [0, 4]]
    assert lattice_leq([[4], [8]], L)
    assert not lattice_leq([[1], [0]], L)
    assert lattice_leq([[0], [0]], L)


def test_group_canonical():
    g = AbGroupPresentation(rank=2, relations=((2, 0), (0, 3)))
    assert g.invariants() == (0, (6,))
    assert free_group(2).invariants() == (2, ())
    assert cyclic_group(1).invariants() == (0, ())
    assert cyclic_group(8).invariants() == (0, (8,))


@pytest.mark.parametrize("order", [0, -3, 2.5, True])
def test_cyclic_group_refuses_an_order_below_one_or_not_an_integer(order):
    # 0 built Z and -3 built Z/3 without a word
    with pytest.raises(PreconditionViolation, match="order"):
        cyclic_group(order)


def test_paper_model_refuses_a_depth_that_is_no_integer():
    # 2.5 escaped as a TypeError from range()
    with pytest.raises(PreconditionViolation, match="depth must be an integer"):
        build_paper_model(2.5)


def test_tower_validation():
    z = free_group(1)
    with pytest.raises(PreconditionViolation, match="need one bond per adjacent level pair"):
        Tower(levels=(z, z), bonds=())
    with pytest.raises(PreconditionViolation, match="bond 0 does not respect relations"):
        Tower(
            levels=(cyclic_group(4), cyclic_group(2)),
            bonds=(((1,),),),  # Z/2 -> Z/4 by 1 does not respect relations
        )


def test_constant_tower_limits():
    ct = constant_tower(free_group(1), 5)
    rep = lim_tower(ct)
    assert rep["truncated_lim"].invariants() == (1, ()) and rep["stabilized"]
    assert lim1_tower(ct)["verdict"] == "Zero"
    assert flasque_check(ct)


def test_doubling_tower_limits():
    z = free_group(1)
    x2 = Tower(levels=(z,) * 4, bonds=(((2,),),) * 3, tail_level=z, tail_bond=((2,),))
    rep = lim_tower(x2)
    assert rep["truncated_lim"].invariants() == (0, ()) and rep["stabilized"]
    l1 = lim1_tower(x2)
    assert l1["verdict"] == "Nonzero"
    chain = l1["evidence"]["tail_image_chain"]
    assert len(chain) >= 3  # strictly descending image lattices
    assert not flasque_check(x2)


def test_profinite_tower():
    prof = Tower(
        levels=tuple(cyclic_group(2 ** (n + 1)) for n in range(5)),
        bonds=(((1,),),) * 4,
    )
    rep = lim_tower(prof)
    assert rep["truncated_lim"].invariants() == (0, (32,))
    assert not rep["stabilized"]
    assert lim1_tower(prof)["verdict"] == "Zero"  # finite levels


def test_finite_towers_lim1_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        q = int(rng.integers(2, 9))
        depth = int(rng.integers(2, 5))
        g = AbGroupPresentation(
            rank=r, relations=tuple(tuple(q if i == j else 0 for j in range(r)) for i in range(r))
        )
        bonds = tuple(
            tuple(tuple(int(x) for x in row) for row in rng.integers(-3, 4, size=(r, r)))
            for _ in range(depth - 1)
        )
        t = Tower(levels=(g,) * depth, bonds=bonds)
        assert lim1_tower(t)["verdict"] == "Zero"


def test_flasque_implies_lim1_zero_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        r = int(rng.integers(1, 4))
        q = int(rng.integers(2, 7))
        depth = int(rng.integers(2, 5))
        g = AbGroupPresentation(
            rank=r, relations=tuple(tuple(q if i == j else 0 for j in range(r)) for i in range(r))
        )
        bonds = []
        for _ in range(depth - 1):
            b = np.eye(r, dtype=int)
            b[np.triu_indices(r, 1)] = rng.integers(-3, 4, size=r * (r - 1) // 2)
            bonds.append(tuple(tuple(int(x) for x in row) for row in b))
        t = Tower(levels=(g,) * depth, bonds=tuple(bonds))
        assert flasque_check(t)
        assert lim1_tower(t)["verdict"] == "Zero"


def test_tower_json_roundtrip():
    z = free_group(1)
    x2 = Tower(levels=(z,) * 3, bonds=(((2,),),) * 2, tail_level=z, tail_bond=((2,),))
    level = {"rank": 1, "relations": [[]]}
    doc = {"levels": [level] * 3, "bonds": [[[2]]] * 2, "tail": {"level": level, "bond": [[2]]}}
    back = Tower.from_json(doc)
    assert back == x2 and back.tail_bond == ((2,),)
    assert lim1_tower(back)["verdict"] == "Nonzero"
    # "tail": null is no tail
    assert Tower.from_json(dict(doc, tail=None)).tail_level is None


def test_paper_model():
    ses = build_paper_model(8)
    rep = six_term_check(ses)
    assert rep["lim_F"] == (0, ())
    assert rep["lim_T"] == (1, ())
    assert rep["lim1_T"] == "Zero"
    assert rep["lim1_F"] == "Nonzero"
    assert rep["case"] == "diagonal_defect"
    assert rep["coker_evidence"]["tail_image_chain"]
    assert flasque_check(ses.T)
    # per-level exactness at n = 1: 0 -> Z -> Z -> Z/2 -> 0
    assert ses.G.levels[1].invariants() == (0, (2,))


def _random_finite_ses(rng):
    rf = int(rng.integers(1, 3))
    rg = int(rng.integers(1, 3))
    q = int(rng.integers(2, 7))
    qq = int(rng.integers(2, 7))
    depth = int(rng.integers(2, 4))
    F = AbGroupPresentation(
        rank=rf, relations=tuple(tuple(q if i == j else 0 for j in range(rf)) for i in range(rf))
    )
    G = AbGroupPresentation(
        rank=rg, relations=tuple(tuple(qq if i == j else 0 for j in range(rg)) for i in range(rg))
    )
    T = AbGroupPresentation(
        rank=rf + rg,
        relations=tuple(
            tuple(
                (q if i == j and i < rf else qq if i == j else 0)
                for j in range(rf + rg)
            )
            for i in range(rf + rg)
        ),
    )
    bondsF, bondsT, bondsG = [], [], []
    for _ in range(depth - 1):
        bf = rng.integers(-3, 4, size=(rf, rf))
        bg = rng.integers(-3, 4, size=(rg, rg))
        h = q * rng.integers(-2, 3, size=(rf, rg))
        bt = np.block([[bf, h], [np.zeros((rg, rf), dtype=int), bg]])
        bondsF.append(tuple(tuple(int(x) for x in r) for r in bf))
        bondsG.append(tuple(tuple(int(x) for x in r) for r in bg))
        bondsT.append(tuple(tuple(int(x) for x in r) for r in bt))
    iota = tuple(
        tuple(1 if i == j else 0 for j in range(rf)) for i in range(rf + rg)
    )
    sigma = tuple(
        tuple(1 if j == rf + i else 0 for j in range(rf + rg)) for i in range(rg)
    )
    return SesTower(
        F=Tower(levels=(F,) * depth, bonds=tuple(bondsF)),
        T=Tower(levels=(T,) * depth, bonds=tuple(bondsT)),
        G=Tower(levels=(G,) * depth, bonds=tuple(bondsG)),
        iotas=(iota,) * depth,
        sigmas=(sigma,) * depth,
    )


def test_random_finite_ses_towers():
    rng = np.random.default_rng(5)
    for _ in range(15):
        ses = _random_finite_ses(rng)
        rep = six_term_check(ses)
        assert rep["lim1_F"] == "Zero"
        assert rep["case"] == "exact"
        assert rep["truncation_exact"]


def test_ses_through_rank_zero_levels():
    # a map into rank 0 has no rows, so no column count; its kernel is the
    # whole source
    z, zero = free_group(1), free_group(0)
    F, O = constant_tower(z, 3), constant_tower(zero, 3)
    # 0 -> Z -> 0 -> 0 -> 0 is not exact at Z
    with pytest.raises(InvalidSes, match="iota at level 0 not injective"):
        SesTower(F=F, T=O, G=O, iotas=((),) * 3, sigmas=((),) * 3)
    # 0 -> Z -> Z -> 0 -> 0 is, through the identity and not through 2
    good = SesTower(F=F, T=F, G=O, iotas=(((1,),),) * 3, sigmas=((),) * 3)
    assert six_term_check(good)["truncation_exact"]
    with pytest.raises(InvalidSes, match="im iota != ker sigma at level 0"):
        SesTower(F=F, T=F, G=O, iotas=(((2,),),) * 3, sigmas=((),) * 3)


def test_ses_map_shapes_checked():
    ses = build_paper_model(4)
    wide_sigma = (ses.iotas, (((1, 1),),) * 4)
    tall_iota = ((((1,), (0,)),) * 4, ses.sigmas)
    for iotas, sigmas in (wide_sigma, tall_iota):
        with pytest.raises(InvalidSes, match="at level 0 has wrong shape"):
            SesTower(F=ses.F, T=ses.T, G=ses.G, iotas=iotas, sigmas=sigmas)


def test_invalid_ses_detected():
    ses = build_paper_model(4)
    with pytest.raises(InvalidSes, match="sigma at level 1 not surjective"):
        SesTower(
            F=ses.F,
            T=ses.T,
            G=ses.G,
            iotas=ses.iotas,
            sigmas=(((0,),),) * 4,  # zero map is not surjective onto Z/2^n for n >= 1
        )


# Hermite- and Smith-form questions against sympy, on integer matrices with
# entries in [-9, 9], up to 6x6 unless a larger size is asked for; a repeated
# row or column makes rank deficits common.

_ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def _int_matrices(draw, rows=None, size=6):
    m = rows if rows is not None else draw(st.integers(1, size))
    n = draw(st.integers(1, size))
    entry = st.integers(-9, 9) | st.just(0)
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        M[-1] = list(M[0])
    if n > 1 and draw(st.booleans()):
        for row in M:
            row[-1] = row[0]
    return M


class _Stopped(Exception):
    pass


def _stop(signum, frame):
    raise _Stopped()


def _snf_within_a_second(M):
    """smith_normal_form(M), failing the test if it takes a second."""
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.alarm(1)
    try:
        return smith_normal_form(M)
    except _Stopped:
        # no traceback: the interrupted frame may carry no line number
        pytest.fail(f"smith_normal_form ran past 1 s on {M}", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _check_snf(M):
    U, S, V = _snf_within_a_second(M)
    m, n = len(M), len(M[0])
    assert mat_mul(mat_mul(U, M), V) == S
    assert abs(det_int(U)) == 1 and abs(det_int(V)) == 1
    assert all(S[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    ours = [S[i][i] for i in range(min(m, n))]
    assert ours == [abs(int(d)) for d in invariant_factors(sympy.Matrix(M))]


@_ORACLE
@given(M=_int_matrices(size=20))
def test_snf_against_sympy(M):
    _check_snf(M)


def test_snf_seed_2_7x7():
    # np.random.default_rng(2).integers(-9, 10, size=(7, 7)); the pivot-search
    # Smith form that alternating Hermite forms replaced did not finish on it
    M = [
        [6, -5, -7, -4, -2, 6, -1], [-8, -3, 2, 6, 4, 9, -6], [7, -8, 1, -4, -6, 3, -4],
        [1, -5, -7, 5, -1, 3, 3], [8, -1, -5, 3, 8, 9, 7], [3, -2, -2, -9, -6, -3, -3],
        [2, 0, 4, 7, 7, 5, 9],
    ]
    _check_snf(M)
    assert AbGroupPresentation(rank=7, relations=tuple(map(tuple, M))).invariants() == (
        0,
        (2, 336468),
    )


@_ORACLE
@given(M=_int_matrices())
def test_kernel_basis_against_sympy(M):
    n = len(M[0])
    K = kernel_basis(M)
    assert len(K) == n
    k = len(K[0])
    assert k == n - sympy.Matrix(M).rank()
    if k:
        assert all(x == 0 for row in mat_mul(M, K) for x in row)
        assert all(d == 1 for d in invariant_factors(sympy.Matrix(K)))


@_ORACLE
@given(M=_int_matrices(), data=st.data())
def test_bond_surjective_against_sympy(M, data):
    m, n = len(M), len(M[0])
    k = data.draw(st.integers(1, n))
    bond = [row[:k] for row in M]
    dst = AbGroupPresentation(rank=m, relations=tuple(tuple(row[k:]) for row in M))
    factors = [abs(d) for d in invariant_factors(sympy.Matrix(M))]
    assert _bond_surjective(bond, dst) == (factors.count(1) == m)


@_ORACLE
@given(B=_int_matrices(), data=st.data())
def test_lattice_leq_against_sympy(B, data):
    m = len(B)
    if data.draw(st.booleans()):
        A = data.draw(_int_matrices(rows=m))
    else:  # a combination of B's columns, so containment holds
        C = data.draw(_int_matrices(rows=len(B[0])))
        A = mat_mul(B, [[x % 5 - 2 for x in row] for row in C])
    SA, SB = sympy.Matrix(A), sympy.Matrix(B)
    expected = hermite_normal_form(SB.row_join(SA)) == hermite_normal_form(SB)
    assert lattice_leq(A, B) == expected
    for j in range(len(A[0])):
        col = [row[j] for row in A]
        assert lattice_leq([[x] for x in col], B) == (
            hermite_normal_form(SB.row_join(sympy.Matrix(col))) == hermite_normal_form(SB)
        )


# The benchmark's two fixed torsion towers, torsion_tower(default_rng([0x5EED,
# rank, k]), rank, 4) for (rank, k) = (5, 9) and (6, 1): four equal levels
# Z^r / R Z^r and three bonds.  Their answers are known by construction.

_FIXED_TOWERS = {
    5: {
        "relations": [[24, 30, 6, 0, -24], [27, 33, 6, 0, -24], [-31, -35, -5, 0, 24],
                      [24, 0, 0, 12, 0], [-24, -24, 0, 0, 24]],
        "bonds": [
            [[11, -54, 36, 30, 0], [9, -55, 42, 30, -3], [-12, 66, -42, -28, 6],
             [36, -12, 24, -7, -12], [0, 48, -24, -24, 5]],
            [[7, -18, -30, 30, -30], [0, -11, -33, 33, -33], [1, 19, 43, -35, 35],
             [-36, 12, -24, -5, -12], [0, 24, 24, -24, 31]],
            [[37, 24, 0, -30, 42], [39, 28, 3, -30, 45], [-40, -30, -6, 29, -50],
             [-12, 0, 12, 1, 12], [-24, -24, 0, 24, -47]],
        ],
        "flasque": True,
        "torsion": [3, 6, 12, 24],
        "stabilized": True,
    },
    6: {
        "relations": [[2, 0, 0, 0, 0, 0], [-258, 4, -128, 0, -4, -72],
                      [168, 0, 84, 0, -72, 0], [-288, 0, -144, 24, 144, 0],
                      [-144, 0, -72, 0, 72, 0], [266, 0, 132, 0, 0, 72]],
        "bonds": [
            [[2, 2, -2, 0, 0, 2], [128, -196, 318, 204, -8, -258],
             [-12, 156, -250, -12, -72, 240], [-24, -312, 432, 2, 144, -408],
             [0, -144, 216, 0, 74, -216], [-132, 206, -326, -204, 0, 268]],
            [[5, -2, 2, -2, -2, 0], [190, 57, -134, 382, 458, -136],
             [-96, -156, 19, -324, -180, 12], [120, 264, -24, 583, 312, -24],
             [72, 144, 0, 288, 151, 0], [-194, -62, 134, -398, -470, 139]],
            [[0, -2, 0, 2, 0, 0], [58, 188, -200, -54, -128, -8],
             [-84, -240, 86, 156, 156, -72], [168, 432, -168, -310, -312, 168],
             [72, 216, -72, -144, -142, 72], [-62, -194, 204, 62, 132, 2]],
        ],
        "flasque": False,
        "torsion": [2, 4, 12, 24, 72, 72],
        "stabilized": False,
    },
}


@pytest.mark.parametrize("rank", sorted(_FIXED_TOWERS))
def test_fixed_benchmark_towers(tmp_path, rank):
    spec = _FIXED_TOWERS[rank]
    level = {"rank": rank, "relations": spec["relations"]}
    path, out = tmp_path / "tower.json", tmp_path / "limits.json"
    path.write_text(json.dumps({"levels": [level] * 4, "bonds": spec["bonds"]}))
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.alarm(2)  # a stuck normal form fails the test instead of hanging it
    try:
        code = main(["limits", str(path), "--out", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["flasque"] == spec["flasque"]
    assert doc["lim"] == {
        "invariants": {"free_rank": 0, "torsion": spec["torsion"]},
        "stabilized": spec["stabilized"],
    }
    assert doc["lim1"]["verdict"] == "Zero"


def test_remembered_verdicts_never_excuse_invalid_objects():
    # an invalid tower or sequence is refused each time it is built, so no
    # verdict is ever computed for one
    ses = build_paper_model(4)
    for _ in range(2):
        with pytest.raises(PreconditionViolation, match="bond 0 does not respect relations"):
            Tower(levels=(cyclic_group(4), cyclic_group(2)), bonds=(((1,),),))
        with pytest.raises(InvalidSes, match="sigma at level 1 not surjective"):
            SesTower(F=ses.F, T=ses.T, G=ses.G, iotas=ses.iotas, sigmas=(((0,),),) * 4)


def test_remembered_evidence_is_not_shared_with_documents():
    # the remembered image chain is handed out as nested tuples, which no
    # document can change
    z = free_group(1)
    x2 = Tower(levels=(z,) * 3, bonds=(((2,),),) * 2, tail_level=z, tail_bond=((2,),))
    first = lim1_tower(x2)["evidence"]["tail_image_chain"]
    assert first == (((1,),), ((2,),), ((4,),))
    with pytest.raises(TypeError):
        first[1][0][0] = 99
    lim1_tower(x2)["evidence"].clear()
    assert lim1_tower(x2)["evidence"]["tail_image_chain"] == first
    assert lim_tower(x2)["evidence"] == first


# Matrices the Python API used to truncate, pad or crash on: each is refused
# when the object is built.
_MALFORMED = {
    "float-relation": lambda: AbGroupPresentation(1, ((2.5,),)),
    "float-smith": lambda: smith_normal_form([[2.7, 0], [0, 3]]),
    "float-bond": lambda: Tower(levels=(free_group(1),) * 2, bonds=(((1.9,),),)),
    "ragged-bond": lambda: Tower(levels=(free_group(2),) * 2, bonds=(((1, 0), (1,)),)),
    "ragged-tail-bond": lambda: Tower(
        levels=(free_group(2),), bonds=(), tail_level=free_group(2), tail_bond=((2, 0), (0,))
    ),
    "bool-relation": lambda: AbGroupPresentation(1, ((True,),)),
    "ragged-iota": lambda: replace(build_paper_model(2), iotas=(((1,),), ((1,), ()))),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_integer_matrices_are_refused(name):
    with pytest.raises(PreconditionViolation):
        _MALFORMED[name]()


def test_one_smith_form_per_distinct_relation_matrix(tmp_path, monkeypatch):
    # a depth-9 tower whose levels repeat one relation matrix; its level
    # objects are parsed separately
    level = {"rank": 2, "relations": [[6, 0], [-9, 15]]}
    bond = [[5, 0], [0, 5]]
    path, out = tmp_path / "tower.json", tmp_path / "limits.json"
    path.write_text(json.dumps({"levels": [level] * 9, "bonds": [bond] * 8}))
    limits._invariants.cache_clear()
    seen = []
    smith = limits.smith_normal_form

    def counted(M):
        seen.append(tuple(map(tuple, M)))
        return smith(M)

    monkeypatch.setattr(limits, "smith_normal_form", counted)
    assert main(["limits", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lim"]["invariants"] == {"free_rank": 0, "torsion": [3, 30]}
    assert seen and len(seen) == len(set(seen))


# Tails decided within the bound B = f + bit_length(t): (relations, bond, lim¹
# verdict, lim invariants, lim exact?, walked image lattices).  The Z/8 + Z
# tail's images stop falling at step 3, past its free rank f = 1.  Doubling
# Z/6 + Z keeps the 3-part of Z/6, so lim is not 0 although 2 divides every
# walked lattice: only a torsion-free tail takes that certificate.
_TAILS = {
    "doubles-one-coordinate": (((), ()), ((2, 0), (0, 1)), "Nonzero", (2, ()), False, 4),
    "triangular": (((), ()), ((2, 1), (0, 3)), "Nonzero", (2, ()), False, 4),
    "singular": (((), ()), ((2, 0), (0, 0)), "Nonzero", (0, ()), True, 4),
    "z8-plus-z": (((8,), (0,)), ((2, 0), (0, 1)), "Zero", (1, ()), True, 5),
    "z-plus-z3": (((0,), (3,)), ((2, 0), (0, 1)), "Nonzero", (1, (3,)), False, 4),
    "z6-plus-z-doubled": (((6,), (0,)), ((2, 0), (0, 2)), "Nonzero", (1, (6,)), False, 5),
}


@pytest.mark.parametrize("name", list(_TAILS))
def test_tail_decided_within_its_bound(name):
    relations, bond, verdict, lim, exact, walked = _TAILS[name]
    g = AbGroupPresentation(rank=2, relations=relations)
    t = Tower(levels=(g,) * 3, bonds=(bond,) * 2, tail_level=g, tail_bond=bond)
    l1 = lim1_tower(t)
    assert l1["verdict"] == verdict
    assert len(l1["evidence"]["tail_image_chain"]) == walked
    rep = lim_tower(t)
    assert rep["truncated_lim"].invariants() == lim and rep["stabilized"] == exact


# The tail oracle: random tails G = Z^r / U·diag(d) with bond U M U^-1, U
# unimodular, torsion when some d_i > 1.  The verdict must match a 60-step
# walk of the image chain and, through the free quotient's bond M[F][F], the
# lowest nonzero coefficient of its characteristic polynomial (|det| of the
# bond on the eventual image, a unit iff the images stabilize).


@st.composite
def _tails(draw):
    r = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    M = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))
    torsion = draw(st.booleans())
    d = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 4, 6) if torsion else (0,)),
                      min_size=r, max_size=r))
    for i in range(r):
        for j in range(r):
            # the bond must map the relations d_j e_j into their span
            if (M[i][j] * d[j] % d[i]) if d[i] else M[i][j] * d[j]:
                M[i][j] *= d[i]
    U, Uinv = mat_id(r), mat_id(r)
    for _ in range(draw(st.integers(0, 3)) if r > 1 else 0):
        i, j = draw(st.permutations(range(r)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]  # row i += c row j
        for row in Uinv:
            row[j] -= c * row[i]  # column j -= c column i
    R = mat_mul(U, [[d[i] if i == j else 0 for j in range(r)] for i in range(r)])
    return M, d, mat_mul(mat_mul(U, M), Uinv), R


def _long_walk(M, R, steps=60):
    """(images stabilize within ``steps``?, the last image lattice)."""
    L = mat_id(len(M))
    for _ in range(steps):
        nxt = col_hermite(mat_hstack(mat_mul(M, L), R))
        if nxt == L:
            return True, L
        L = nxt
    return False, L


@_ORACLE
@given(tail=_tails())
def test_tail_against_a_long_walk_and_sympy(tail):
    M, d, bond, R = tail
    r = len(M)
    g = AbGroupPresentation(rank=r, relations=tuple(map(tuple, R)))
    t = Tower(levels=(g,), bonds=(), tail_level=g, tail_bond=tuple(map(tuple, bond)))
    verdict, rep = lim1_tower(t)["verdict"], lim_tower(t)
    stable, L = _long_walk(bond, R)
    assert verdict == ("Zero" if stable else "Nonzero")
    free = [i for i in range(r) if d[i] == 0]
    coeffs = sympy.Matrix([[M[i][j] for j in free] for i in free]).charpoly().all_coeffs()
    assert stable == (not free or abs([c for c in coeffs if c][-1]) == 1)
    if stable:
        # lim is L / R: R's coordinates in L's basis, solved over Q
        assert rep["stabilized"]
        k = len(L[0]) if L else 0
        if k:
            SL = sympy.Matrix(L)
            C = (SL.T * SL).inv() * SL.T * sympy.Matrix(R)
            assert all(x.is_integer for x in C)
            factors = [abs(int(x)) for x in invariant_factors(C)]
        else:
            factors = []
        want = (k - sum(1 for x in factors if x), tuple(x for x in factors if x > 1))
        assert rep["truncated_lim"].invariants() == want
    elif rep["stabilized"]:
        # lim = 0, certified by a prime p dividing L_r, so M = 0 mod p
        assert rep["truncated_lim"].invariants() == (0, ()) and not any(d)
        assert gcd(*coeffs[1:]) > 1
    else:
        assert rep["truncated_lim"].invariants() == g.invariants()
        assert any(d) or gcd(*coeffs[1:]) == 1
