"""End-to-end acceptance checks.

Each test prints a single ``ACCEPTANCE n ...: PASS/FAIL`` line (visible even
under output capture) and pins the tolerance and runtime budget it certifies.
"""

import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from corona_lab import (
    AbGroupPresentation,
    BlockStructure,
    SesTower,
    TorusElement,
    Tower,
    ad_sandwich,
    build_paper_model,
    build_tent_unit,
    build_tree,
    constant_one,
    epsilon_witness,
    flasque_check,
    fuzz_lij,
    generate_chain,
    op_norm,
    power_gap,
    projection_unit,
    quasi_unitary_residual,
    six_term_check,
    stratify,
    weak_sandwich,
)
from corona_lab.operators import dd_check

HORIZON = 100_000
DEPTH = 3
SCHEDULE = [32, 36, 40]

_cache = {}


def _chain():
    if "chain" not in _cache:
        _cache["chain"] = generate_chain(DEPTH, HORIZON, SCHEDULE)
    return _cache["chain"]


def _tree(z_variant):
    key = ("tree", z_variant)
    if key not in _cache:
        _cache[key] = build_tree(_chain(), z_variant=z_variant, eps=0.1, j0=10)
    return _cache[key]


def _report(capsys, num, title, ok, elapsed, budget, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        extra = f" {detail}" if detail else ""
        print(
            f"ACCEPTANCE {num} {title}: {status} "
            f"({elapsed:.1f}s / budget {budget:.0f}s){extra}"
        )


def test_criterion_1_divergence_exactness(capsys):
    t0 = time.perf_counter()
    tree = _tree(False)
    divs = [c for c in tree.certificates if c["kind"] == "divergence"]
    ok = len(divs) == 2**DEPTH - 1
    for cert in divs:
        blocks = cert["blocks"]
        ok = ok and len(blocks) >= 1
        ok = ok and all(b["delta"] >= 2.0 - 1e-9 for b in blocks)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(capsys, 1, "sibling divergence >= 2 - 1e-9", ok, elapsed, 30)
    assert ok


def test_criterion_2_coherence_decay(capsys):
    t0 = time.perf_counter()
    tree = _tree(False)
    cohs = [c for c in tree.certificates if c["kind"] == "coherence"]
    ok = len(cohs) > 0
    for p in cohs:
        ok = ok and p["holds"] and p["j0"] == 10 and p["tail_max"] <= 0.1
    ztree = _tree(True)
    jumps = [c for c in ztree.certificates if c["kind"] == "jump_bound"]
    ok = ok and len(jumps) == len(ztree.nodes)
    declared = 2.0 * float(np.sin(np.pi / (2.0 * min(SCHEDULE))))
    for p in jumps:
        ok = ok and p["holds"] and p["max_jump"] <= declared + 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(capsys, 2, "coherence <= 0.1 past j0=10 + jump bounds", ok, elapsed, 60)
    assert ok


def test_criterion_3_union_bound_fuzz(capsys):
    t0 = time.perf_counter()
    violations = fuzz_lij(100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _report(
        capsys, 3, "union-bound fuzz 1e5 at slack 1e-12", ok, elapsed, 10,
        f"violations={violations}",
    )
    assert ok


def test_blas_threads_are_pinned_before_numpy_loads():
    # the budgets below are wall-clock times on a shared host
    import conftest

    assert not conftest.NUMPY_PRELOADED
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var]


def test_criterion_4_stratification(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    blocks = BlockStructure((1,) * 256)
    ok = True
    worst_res = 0.0
    for _ in range(100):
        m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        m /= np.linalg.norm(m, 2)
        w = stratify(m, blocks)
        res = w.reconstruction_residual(m)
        worst_res = max(worst_res, res)
        ok = ok and res <= 1e-12
        ok = ok and dd_check(w.m_e + w.m_o, w.X, blocks)
        ok = ok and w.tail_bound_ok()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(
        capsys, 4, "stratify 100x256x256", ok, elapsed, 120,
        f"worst_residual={worst_res:.2e}",
    )
    assert ok


def test_criterion_5_sandwich(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for run in range(1000):
        nb = int(rng.integers(2, 7))
        sizes = tuple(int(s) for s in rng.integers(1, 4, size=nb))
        blocks = BlockStructure(sizes)
        alpha = TorusElement(rng.uniform(0, 2 * np.pi, nb))
        k = int(rng.integers(2, nb + 1))
        I = sorted(rng.permutation(nb)[:k].tolist())
        rep = ad_sandwich(alpha, blocks, I, samples=2, seed=run)
        ok = ok and rep["delta"] - 1e-9 <= rep["lower_witness"]
        ok = ok and rep["sampled_max"] <= 2.0 * rep["delta"] + 1e-9
    # the antipodal two-block case is exact
    alpha = TorusElement(np.array([0.0, np.pi]))
    two = BlockStructure((1, 1))
    rep = ad_sandwich(alpha, two, [0, 1], samples=0)
    ok = ok and rep["delta"] == 2.0 and rep["lower_witness"] == 2.0
    u = np.diag(alpha.values(np.arange(2)))
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ok = ok and op_norm(u @ a @ u.conj().T - a) == 2.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(capsys, 5, "sandwich fuzz 1e3 + exact antipodal case", ok, elapsed, 120)
    assert ok


def test_criterion_6_quasi_unitary_bound(capsys):
    t0 = time.perf_counter()
    unit = build_tent_unit(50, 0.25)
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100):
        scale = rng.uniform(0.1, 2.0)
        power = rng.uniform(1.2, 2.5)
        steps = scale / (np.arange(50) + 1.0) ** power
        alpha = TorusElement(np.cumsum(steps))
        bounds = []
        for N in range(0, 49, 6):
            rep = quasi_unitary_residual(alpha, unit, N)
            ok = ok and rep["tail_norm"] <= rep["bound"] + 1e-12
            bounds.append(rep["bound"])
        ok = ok and bounds[-1] < bounds[0]  # decaying alpha: bound shrinks
    # alternating phases never satisfy a vanishing bound
    neg = TorusElement(np.pi * np.arange(50))
    for N in (5, 20, 40):
        rep = quasi_unitary_residual(neg, unit, N)
        ok = ok and rep["eps_N"] == pytest.approx(4.0, abs=1e-12)
        ok = ok and rep["tail_norm"] >= 0.5
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(capsys, 6, "tail residual <= 3*eps_N on 50-tent model", ok, elapsed, 30)
    assert ok


def test_criterion_7_epsilon_witness(capsys):
    t0 = time.perf_counter()
    unit = build_tent_unit(12, 0.25)
    eps = 0.1
    ok = True
    for i in range(11):
        for j in range(11):
            out = epsilon_witness(unit, i, j, eps)
            n = out["norms"]
            ok = ok and abs(n["norm_a"] - 1.0) <= 1e-9
            ok = ok and n["corner"] >= 1.0 - eps - 1e-9
            ok = ok and n["defect"] < eps
    for k in range(1, 9):
        analytic = k**k / (k + 1) ** (k + 1)
        ok = ok and abs(power_gap(None, k, continuous_range=(0, 1)) - analytic) <= 1e-12
        res = minimize_scalar(
            lambda t: -(t**k) * (1 - t), bounds=(0, 1), method="bounded",
            options={"xatol": 1e-14},
        )
        ok = ok and abs(analytic - (-res.fun)) <= 1e-10
    ok = ok and abs(power_gap(None, 4, continuous_range=(0, 1)) - 0.08192) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(capsys, 7, "witness for all pairs i,j <= 10 at eps=0.1", ok, elapsed, 30)
    assert ok


def _random_finite_ses(rng):
    rf = int(rng.integers(1, 3))
    rg = int(rng.integers(1, 3))
    q = int(rng.integers(2, 7))
    qq = int(rng.integers(2, 7))
    depth = int(rng.integers(2, 4))
    diag = lambda r, v: tuple(
        tuple(v if i == j else 0 for j in range(r)) for i in range(r)
    )
    F = AbGroupPresentation(rank=rf, relations=diag(rf, q))
    G = AbGroupPresentation(rank=rg, relations=diag(rg, qq))
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
    iota = tuple(tuple(1 if i == j else 0 for j in range(rf)) for i in range(rf + rg))
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


def test_criterion_8_derived_limits(capsys):
    t0 = time.perf_counter()
    ses = build_paper_model(8)
    rep = six_term_check(ses)
    ok = rep["lim_F"] == (0, ())
    ok = ok and flasque_check(ses.T)
    ok = ok and rep["lim1_T"] == "Zero"
    ok = ok and rep["lim1_F"] == "Nonzero"
    ok = ok and len(rep["coker_evidence"]["tail_image_chain"]) >= 3
    ok = ok and rep["case"] == "diagonal_defect"
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = six_term_check(_random_finite_ses(rng))
        ok = ok and r["lim1_F"] == "Zero" and r["lim1_T"] == "Zero"
        ok = ok and r["case"] == "exact" and r["truncation_exact"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(capsys, 8, "model tower + 100 random finite SES", ok, elapsed, 60)
    assert ok


def test_criterion_9_projection_unit_regression(capsys):
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(4)
    blocks = BlockStructure((2, 1, 3, 2, 2))
    proj = projection_unit(blocks)
    for run in range(10):
        alpha = TorusElement(rng.uniform(0, 2 * np.pi, 5))
        I = sorted(rng.permutation(5)[:3].tolist())
        weak = weak_sandwich(alpha, proj, I, eps_probe=0.05, seed=run)
        strong = ad_sandwich(alpha, blocks, I, samples=0, seed=run)
        ok = ok and abs(weak["delta"] - strong["delta"]) <= 1e-12
        ok = ok and abs(weak["achieved"] - strong["lower_witness"]) <= 1e-12
    for k in range(1, 6):
        ok = ok and power_gap(proj.spectrum(0), k) == 0.0
    out = epsilon_witness(proj, 0, 3, 0.05)
    n = out["norms"]
    ok = ok and n["k"] == 1
    ok = ok and abs(n["norm_a"] - 1.0) <= 1e-12
    ok = ok and n["corner"] >= 1.0 - 1e-12
    ok = ok and n["defect"] <= 1e-12
    rep = quasi_unitary_residual(constant_one(proj.count), proj, 1)
    ok = ok and rep["tail_norm"] == 0.0
    elapsed = time.perf_counter() - t0
    _report(capsys, 9, "projection units match block-operator values", ok, elapsed, 30)
    assert ok
