"""The benchmark's four workloads: inputs, operations and checks.

A workload builds one *round*: a fixed list of operations whose inputs come
from the run's seed.  Every operation goes through corona-lab's CLI
``main([...])`` or its public library functions, looked up at call time so
that the tracer's wrappers are seen.  Within a workload the operations vary
by size along a geometric grid, jittered by the seed, so no percentile sits
on a gap between two groups of cost.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

import numpy as np

from corona_lab import cli, operators

import checks

#: smallest jump count of the CLI's tree schedule (32, 36, 40, 48)
TREE_MIN_M = 32
#: coherence tolerance passed to every tree: --epsilon and --j0
TREE_EPS, TREE_J0 = 0.1, 10
#: horizon of the trees users keep
USER_HORIZON = 100_000

#: seeds of the inputs that do not depend on the run's seed
FIXED = 0x5EED


@dataclass
class Op:
    """One timed operation.

    ``run`` is timed; ``prepare`` (before) and ``check`` (after, given what
    ``run`` returned) are not.  ``key`` names the input, so a repeat of the
    same input must give a byte-identical document at ``out``.  ``fault``
    recognises, from the check's failures and the deadline exception (or
    None), the named fault a seed-independent input is known to hit.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object], list]
    out: str
    prepare: Callable[[], None] = lambda: None
    fault: Callable[[list, BaseException | None], bool] | None = None


def op_norm_lower_bound(fails, stopped) -> bool:
    """The named stratify fault: only norm upper bounds fell short."""
    return stopped is None and all(kind == checks.BELOW_NORM for kind, _ in fails)


def smith_normal_form_explosion(fails, stopped) -> bool:
    """The named limits fault: stopped at the deadline inside smith_normal_form."""
    return stopped is not None and any(
        f.name == "smith_normal_form" for f in traceback.extract_tb(stopped.__traceback__)
    )


@dataclass
class Workload:
    deadline_s: float
    #: duration of one round in reference seconds at the parent commit
    round_s: float
    ops: list = field(default_factory=list)
    warmup: list = field(default_factory=list)


def geometric(lo: float, hi: float, count: int, rng, jitter: float) -> np.ndarray:
    """``count`` points spaced evenly in log from lo to hi, each moved by up
    to ±jitter (relative) with ``rng``."""
    base = np.geomspace(lo, hi, count)
    return base * (1.0 + jitter * rng.uniform(-1.0, 1.0, count))


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cli_op(key, argv, out, check, **kw) -> Op:
    return Op(key=key, run=lambda: cli.main(argv + ["--out", out]), check=check, out=out, **kw)


# ---------------------------------------------------------------------------
# tree: `corona-lab tree --out` at depths 3 and 4


def tree_workload(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    configs = [(3, h) for h in geometric(820, 8_200, 75, rng, 0.03)]
    configs += [(4, h) for h in geometric(2_500, 5_000, 25, rng, 0.03)]
    # one tree of the size users keep: several times the slowest grid tree,
    # so it lies beyond every percentile; fixed horizon, so the peak memory
    # it sets does not move with the seed
    configs.append((3, USER_HORIZON))
    ops = [_tree_op(f"tree-{k}", *configs[k], k % 2 == 1, workdir, [seed, 2, k])
           for k in rng.permutation(len(configs))]
    warm = _tree_op("warm", 3, 1000, False, workdir, [0])
    return Workload(deadline_s=30.0, round_s=23.0, ops=ops, warmup=[warm])


def _tree_op(key, depth, horizon, z_variant, workdir, sample_seed) -> Op:
    out = os.path.join(workdir, f"{key}.json")
    argv = ["tree", "--depth", str(depth), "--horizon", str(int(horizon)),
            "--epsilon", str(TREE_EPS), "--j0", str(TREE_J0)]
    if z_variant:
        argv.append("--z-variant")
    args = {"depth": depth, "eps": TREE_EPS, "j0": TREE_J0, "z_variant": z_variant}

    def check(rc):
        if rc != 0:
            return [(checks.WRONG, f"tree exit {rc}")]
        sample_rng = np.random.default_rng(sample_seed)
        return checks.check_tree(_load(out), args, TREE_MIN_M, sample_rng)

    return _cli_op(key, argv, out, check)


# ---------------------------------------------------------------------------
# stratify: stratify, reconstruction_residual and dd_check on random matrices


def _mixed_blocks(rng, dim: int) -> tuple:
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, 4)))
    sizes[-1] -= sum(sizes) - dim
    return tuple(s for s in sizes if s > 0)


def _unit_matrix(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m / np.linalg.norm(m, 2)


#: (fixed seed, rows) of the 20 seed-independent inputs above DENSE_NORM_DIM:
#: a geometric grid of 516-560 rows with a fixed ±0.5% jitter, so every row
#: count stays on op_norm's power-iteration side; matrices are not chosen
ITERATIVE_INPUTS = tuple(
    (k, int(dim)) for k, dim in
    enumerate(geometric(516, 560, 20, np.random.default_rng([FIXED, 7]), 0.005))
)


def stratify_workload(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    # seeded, at most DENSE_NORM_DIM rows: the dense SVD path of op_norm
    for k, dim in enumerate(geometric(128, 384, 80, rng, 0.03).astype(int)):
        ops.append(_stratify_op(f"dense-{k}", [seed, 4, k], int(dim), workdir, None))
    # seed-independent, above DENSE_NORM_DIM: op_norm's power iteration
    # returns a lower bound, so these fail the upper-bound check every time
    for k, dim in ITERATIVE_INPUTS:
        ops.append(_stratify_op(f"iter-{k}", [FIXED, k], dim, workdir, op_norm_lower_bound))
    order = rng.permutation(len(ops))
    warm = _stratify_op("warm", [FIXED, 99], 128, workdir, None)
    return Workload(
        deadline_s=30.0, round_s=27.0, ops=[ops[i] for i in order], warmup=[warm]
    )


def _stratify_op(key, rng_key, dim, workdir, fault) -> Op:
    out = os.path.join(workdir, f"{key}.json")
    state = {}

    def prepare():
        rng = np.random.default_rng(rng_key)
        state["sizes"] = _mixed_blocks(rng, dim)
        state["m"] = _unit_matrix(rng, dim)

    def run():
        m, blocks = state.pop("m"), operators.BlockStructure(state["sizes"])
        w = operators.stratify(m, blocks)
        residual = w.reconstruction_residual(m)
        dd = operators.dd_check(w.m_e + w.m_o, w.X, blocks)
        doc = {
            "X": w.X.to_json(),
            "tail_bounds": list(w.tail_bounds),
            "tail_bounds_ok": w.tail_bound_ok(),
            "reconstruction_residual": residual,
            "dd_exact": dd,
        }
        cli._emit(doc, out)
        return m, w, residual, dd

    def check(result):
        m, w, residual, dd = result
        fails = checks.check_stratify(
            m, state["sizes"], w.X.elements, w.m_e, w.m_o, w.a, w.tail_bounds
        )
        if residual > 1e-12 or not dd:
            fails.append((checks.WRONG, f"residual {residual}, dd_exact {dd}"))
        return fails

    return Op(key=key, run=run, check=check, out=out, prepare=prepare, fault=fault)


# ---------------------------------------------------------------------------
# verify: `corona-lab verify --seed <s>`, full mode


def verify_workload(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 5])
    ops = [_verify_op(f"verify-{k}", int(s), workdir) for k, s in
           enumerate(rng.integers(0, 1 << 31, size=100))]
    warm = _verify_op("warm", 0, workdir)
    return Workload(deadline_s=10.0, round_s=35.0, ops=ops, warmup=[warm])


def _verify_op(key, verify_seed, workdir) -> Op:
    out = os.path.join(workdir, f"{key}.json")
    return _cli_op(
        key,
        ["verify", "--seed", str(verify_seed)],
        out,
        lambda rc: checks.check_verify(rc, _load(out)),
    )


# ---------------------------------------------------------------------------
# limits: `corona-lab limits <tower.json>` and `limits --paper-model`


def _unimodular(rng, rank: int) -> np.ndarray:
    u = np.eye(rank, dtype=np.int64)
    for _ in range(rank):
        i, j = rng.choice(rank, size=2, replace=False)
        u[i] += int(rng.choice([-2, -1, 1, 2])) * u[j]
    return u


def torsion_tower(rng, rank: int, depth: int):
    """Levels Z^r / R Z^r with R = U·diag(d)·V, bonds k·I + R·Y.

    Every bond acts as multiplication by k on the finite group, so the
    invariants are d's entries > 1, the tower is flasque iff every k is prime
    to d_max, the truncated limit is stabilized iff the last k is, and lim¹
    is zero.
    """
    d = [int(rng.integers(1, 3))]
    for _ in range(rank - 1):
        d.append(d[-1] * int(rng.choice([1, 1, 2, 3])))
    d[-1] = max(d[-1], 2)
    R = _unimodular(rng, rank) @ np.diag(d) @ _unimodular(rng, rank)
    ks = [int(rng.choice([1, 2, 3, 5, 7])) for _ in range(depth - 1)]
    bonds = [k * np.eye(rank, dtype=np.int64) + R @ rng.integers(-1, 2, size=(rank, rank))
             for k in ks]
    level = {"rank": rank, "relations": R.tolist()}
    tower = {"levels": [level] * depth, "bonds": [b.tolist() for b in bonds]}
    expected = {
        "flasque": all(gcd(k, d[-1]) == 1 for k in ks),
        "lim.invariants.free_rank": 0,
        "lim.invariants.torsion": [x for x in d if x > 1],
        "lim.stabilized": gcd(ks[-1], d[-1]) == 1,
        "lim1.verdict": "Zero",
    }
    return tower, expected


def free_tower(rng, rank: int, depth: int):
    """Levels Z^r, bonds and periodic tail bond k·U with U unimodular.

    For |k| > 1 the images k^t Z^r descend strictly: lim = 0, lim¹ nonzero,
    not flasque.  For |k| = 1 the bonds are onto: lim = Z^r, lim¹ = 0.
    """
    k = int(rng.choice([-3, -2, 2, 3, -1, 1]))
    level = {"rank": rank, "relations": [[] for _ in range(rank)]}
    tower = {
        "levels": [level] * depth,
        "bonds": [(k * _unimodular(rng, rank)).tolist() for _ in range(depth - 1)],
        "tail": {"level": level, "bond": (k * _unimodular(rng, rank)).tolist()},
    }
    unit = abs(k) == 1
    expected = {
        "flasque": unit,
        "lim.invariants.free_rank": rank if unit else 0,
        "lim.invariants.torsion": [],
        "lim.stabilized": True,
        "lim1.verdict": "Zero" if unit else "Nonzero",
    }
    return tower, expected


def limits_workload(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 6])
    ops = []
    # seeded torsion towers stop at rank 3: from rank 4 on, smith_normal_form
    # explodes on some random towers only
    for k in range(700):
        rank, depth = 2 + k % 2, 3 + k % 7
        ops.append(_tower_op(f"torsion-{k}", *torsion_tower(rng, rank, depth), workdir))
    for k in range(700):
        rank, depth = 2 + k % 5, 3 + k % 7
        ops.append(_tower_op(f"free-{k}", *free_tower(rng, rank, depth), workdir))
    for k in range(352):
        ops.append(_paper_op(f"paper-{k}", 2 + k % 11, workdir))
    # seed-independent rank-5 and rank-6 torsion towers on which
    # smith_normal_form's entries grow without bound
    for rank, k in ((5, 9), (6, 1)):
        tower = torsion_tower(np.random.default_rng([FIXED, rank, k]), rank, 4)
        ops.append(_tower_op(f"explode-{rank}", *tower, workdir, fault=smith_normal_form_explosion))
    order = rng.permutation(len(ops))
    warm = [ops[0], ops[700], ops[1400]]
    return Workload(
        deadline_s=1.0, round_s=11.0, ops=[ops[i] for i in order], warmup=warm
    )


def _tower_op(key, tower, expected, workdir, fault=None) -> Op:
    path = os.path.join(workdir, f"{key}.tower.json")
    with open(path, "w") as fh:
        json.dump(tower, fh)
    out = os.path.join(workdir, f"{key}.json")

    def check(rc):
        if rc != 0:
            return [(checks.WRONG, f"limits exit {rc}")]
        return checks.check_limits(_load(out), expected)

    return _cli_op(key, ["limits", path], out, check, fault=fault)


def paper_model_expected(depth: int) -> dict:
    """The 2-adic model: F = Z with doubling bonds, T = constant Z,
    G = Z/2^n; lim¹ F is nonzero and the diagonal case applies."""
    top = 1 << (max(depth, 2) - 1)
    return {
        "paper_model": True,
        "flasque_T": True,
        "six_term.case": "diagonal_defect",
        "six_term.lim1_F": "Nonzero",
        "six_term.lim1_T": "Zero",
        "six_term.lim_F": [0, []],
        "six_term.lim_T": [1, []],
        "six_term.lim_G": [0, [top] if top > 1 else []],
    }


def _paper_op(key, depth, workdir) -> Op:
    out = os.path.join(workdir, f"{key}.json")
    expected = paper_model_expected(depth)

    def check(rc):
        if rc != 0:
            return [(checks.WRONG, f"limits exit {rc}")]
        return checks.check_limits(_load(out), expected)

    return _cli_op(key, ["limits", "--paper-model", "--depth", str(depth)], out, check)


WORKLOADS = {
    "tree": tree_workload,
    "stratify": stratify_workload,
    "verify": verify_workload,
    "limits": limits_workload,
}
