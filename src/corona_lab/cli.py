"""Command-line front door: build constructions, emit certificates, verify.

Exit codes: 0 success, 1 certified mathematical failure, 2 input or
configuration error.  All runs are reproducible from (seed, flags).  Every
JSON result document echoes its configuration under ``"config"``; an error
document names the error and its message, and ``sandwich``'s CSV holds only
its rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import limits as dl
from .errors import ConstructionError, CoronaLabError, HorizonTooSmall, PreconditionViolation
from .operators import (
    RESIDUAL_TOL,
    BlockStructure,
    ad_sandwich,
    dd_check,
    load_matrix,
    op_norm,
    stratify,
)
from .partitions import fx_profile
from .torus import RunList, TorusElement
from .tree import build_tree, generate_chain, jump_schedule, limit_stage
from .verdicts import Verdict
from .weak_units import (
    NORM_TOL,
    QUASI_UNITARY_SLACK,
    build_tent_unit,
    hyp_check,
    projection_unit,
    quasi_unitary_residual,
    tensor_unit,
    weak_sandwich,
)

PAPER_MODEL_DEPTH = 3


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar(x) -> str | None:
    """JSON text of a str, None, bool, int or float; None for anything else."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    return None


def _encode(x, level: int, out: list, memo: dict) -> None:
    """Append the text of ``json.dumps(x, indent=2, sort_keys=True)``, nested
    ``level`` deep, to ``out`` in pieces.

    A :class:`RunList` is formatted into one string, one text per run, and
    ``memo`` maps each run value formatted so far to its text, and
    ``(id(runlist), level)`` of each RunList met so far to its string: a
    RunList met again at the same level, as tree nodes that hold one element
    share one, appends that same string again.  A list of ints only (a tree
    level) is formatted by one ``%``.  In other dicts and lists each scalar
    is formatted once and joins the text before it, so a dict of scalars (a
    certificate) is one piece.
    """
    if not isinstance(x, (list, tuple, dict, RunList)):
        text = _scalar(x)
        if text is None:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        out.append(text)
        return
    if not x or isinstance(x, RunList) and not x.runs[0]:
        out.append("{}" if isinstance(x, dict) else "[]")
        return
    pad = "\n" + "  " * (level + 1)
    end = "\n" + "  " * level
    if isinstance(x, RunList):
        text = memo.get((id(x), level))
        if text is None:
            # one piece per run; the last item takes no separator
            sep = "," + pad
            pieces = ["[" + pad]
            values, counts = x.runs
            for value, count in zip(values, counts):
                item = memo.get(value)
                if item is None:
                    item = _float(value)
                    if value:  # 0.0 and -0.0 are one key with two texts
                        memo[value] = item
                pieces.append((item + sep) * count)
            pieces[-1] = pieces[-1][: -len(sep)]
            pieces.append(end + "]")
            text = memo[id(x), level] = "".join(pieces)
        out.append(text)
        return
    keyed = isinstance(x, dict)
    if not keyed and set(map(type, x)) == {int}:
        sep = "," + pad
        out.append("[" + pad + (("%d" + sep) * (len(x) - 1) + "%d") % tuple(x) + end + "]")
        return
    # every item ends in ","; the last one is cut at the end
    text = "{" if keyed else "["
    for value in sorted(x.items()) if keyed else x:
        if keyed:
            key, value = value
            key = encode_basestring_ascii(key if isinstance(key, str) else _scalar(key))
            text += pad + key + ": "
        else:
            text += pad
        scalar = None if isinstance(value, (list, tuple, dict)) else _scalar(value)
        if scalar is None:
            out.append(text)
            _encode(value, level + 1, out, memo)
            text = ","
        else:
            text += scalar + ","
    out.append(text[:-1] + end + ("}" if keyed else "]"))


def _emit(doc: dict, out: str | None) -> None:
    """Write ``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` would,
    byte for byte.  A :class:`RunList` costs one formatted text per run,
    not per item, joined into one string, which is written again wherever
    the RunList is met again at the same level.  Its ints were computed
    here, not parsed, so Python's limit on the digits of an int as text,
    where it has one, is lifted while it is formatted."""
    pieces = []
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        _encode(doc, 0, pieces, {})
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    pieces.append("\n")
    if out:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    else:
        _to_stdout(pieces)


def _to_stdout(pieces) -> None:
    """Write text pieces to stdout.  A reader that leaves early
    (``corona-lab tree | head -1``) ends the output, not the command: the
    rest goes to the null device, so the flush at exit raises nothing and
    the command returns its own exit code."""
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _config_echo(args) -> dict:
    keys = ("seed", "horizon", "depth", "epsilon", "j0", "z_variant")
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def cmd_tree(args) -> int:
    try:
        schedule = jump_schedule(args.epsilon)[: args.depth]
        chain = generate_chain(args.depth, args.horizon, schedule, args.j0)
        tree = build_tree(chain, z_variant=args.z_variant, eps=args.epsilon, j0=args.j0)
    except HorizonTooSmall as exc:
        _emit(
            {
                "error": "HorizonTooSmall",
                "message": str(exc),
                "min_horizon": exc.min_horizon,
                "config": _config_echo(args),
            },
            args.out,
        )
        return 2
    except CoronaLabError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.out)
        return 2 if isinstance(exc, PreconditionViolation) else 1
    doc = tree.to_json()
    doc["config"] = _config_echo(args)
    doc["levels"] = [lv.to_json() for lv in chain.levels]
    _emit(doc, args.out)
    return 0


def cmd_stratify(args) -> int:
    try:
        m = load_matrix(args.matrix)
        if m.shape[0] != m.shape[1]:
            raise PreconditionViolation(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    except CoronaLabError as exc:
        _emit({"error": "parse", "message": str(exc)}, args.out)
        return 2
    blocks = BlockStructure((1,) * m.shape[0])
    w = stratify(m, blocks)
    residual = Verdict("residual", w.reconstruction_residual(m), 0.0, RESIDUAL_TOL)
    dd_ok = dd_check(w.m_e + w.m_o, w.X, blocks)
    tail_ok = w.tail_bound_ok()
    doc = {
        "config": _config_echo(args),
        "X": w.X.to_json(),
        "tail_bounds": list(w.tail_bounds),
        "tail_bounds_ok": tail_ok,
        "reconstruction_residual": residual.value,
        "dd_exact": dd_ok,
    }
    _emit(doc, args.out)
    return 0 if dd_ok and tail_ok and residual.holds else 1


def cmd_sandwich(args) -> int:
    if args.samples < 0:
        raise PreconditionViolation(f"samples must be >= 0, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    rows = []
    violations = 0
    for run in range(args.samples):
        nb = int(rng.integers(2, 9))
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=nb))
        alpha = TorusElement(rng.uniform(0, 2 * np.pi, size=nb))
        I = sorted(rng.permutation(nb)[: int(rng.integers(2, nb + 1))].tolist())
        if args.model == "tent":
            unit = build_tent_unit(nb, 0.25)
            rep = weak_sandwich(alpha, unit, I, eps_probe=0.05, seed=args.seed + run)
            lower = rep["achieved"]
            slack = rep["lower_slack"]
        else:
            rep = ad_sandwich(
                alpha, BlockStructure(sizes), I, samples=5, seed=args.seed + run
            )
            lower = rep["lower_witness"]
            slack = NORM_TOL
        delta = rep["delta"]
        sampled = rep["sampled_max"]
        lower_ok = Verdict("lower", lower, delta - slack, NORM_TOL, sense=">=").holds
        ok = lower_ok and Verdict("sampled", sampled, 2 * delta, NORM_TOL).holds
        if not ok:
            violations += 1
        rows.append([delta, lower, sampled, 2 * delta, int(ok)])
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["delta", "lower", "sampled", "two_delta", "ok"])
    writer.writerows(rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text.getvalue())
    else:
        _to_stdout([text.getvalue()])
    return 0 if violations == 0 else 1


def cmd_limits(args) -> int:
    if args.paper_model:
        if args.tower:
            raise PreconditionViolation("give a tower file or --paper-model, not both")
        depth = PAPER_MODEL_DEPTH if args.depth is None else args.depth
        ses = dl.build_paper_model(depth=depth)
        report = dl.six_term_check(ses)
        doc = {
            "config": {"depth": depth},
            "paper_model": True,
            "six_term": report,
            "flasque_T": dl.flasque_check(ses.T),
        }
        _emit(doc, args.out)
        return 0
    if args.depth is not None:
        raise PreconditionViolation("--depth sizes the paper model; a tower file takes none")
    if not args.tower:
        raise PreconditionViolation("need a tower file or --paper-model")
    try:
        with open(args.tower) as fh:
            tower = dl.Tower.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, CoronaLabError) as exc:
        _emit({"error": "invalid tower", "message": str(exc)}, args.out)
        return 2
    lim = dl.lim_tower(tower)
    lim1 = dl.lim1_tower(tower)
    doc = {
        "config": {},
        "flasque": dl.flasque_check(tower),
        "lim": {
            "invariants": _inv_doc(lim["truncated_lim"]),
            "stabilized": lim["stabilized"],
        },
        "lim1": {"verdict": lim1["verdict"], "reason": lim1["reason"]},
    }
    _emit(doc, args.out)
    return 0


def _inv_doc(g) -> dict:
    free, torsion = g.invariants()
    return {"free_rank": free, "torsion": list(torsion)}


def _no_failures(count) -> list:
    """A verdict that holds when ``count``, a number of failures, is 0."""
    return [Verdict("failures", count, 0)]


def _quasi_unitary(alpha, unit, N: int) -> list:
    q = quasi_unitary_residual(alpha, unit, N)
    return [Verdict("quasi-unitary bound", q["tail_norm"], q["bound"], QUASI_UNITARY_SLACK)]


def _verify_checks(args):
    """verify's checks in the order of its report, as (failure name,
    outcome): the verdicts that must hold, or the CoronaLabError that
    stopped the check.  Invalid input raises here and exits 2: an eps with
    no schedule, one whose chain needs more than verify's horizon, or a j0
    past every window."""
    chain = generate_chain(2, 20_000, jump_schedule(args.epsilon)[:3])
    try:
        tree = build_tree(chain, z_variant=True, eps=args.epsilon, j0=args.j0)
    except ConstructionError as exc:
        yield "tree", exc
    else:
        # the union bound on every window of each witness against each level
        for t, witness in enumerate(tree.witnesses):
            for n, level in enumerate(chain.levels):
                yield f"union bound {t}/{n}", [fx_profile(witness, level).union_bound()]
        # the element above the all-ones branch, as at a limit stage
        branch = [tree.nodes[label] for label in ("", "1", "11")]
        try:
            limit_stage(branch, chain.levels, eps=args.epsilon, j0=args.j0)
        except CoronaLabError as exc:
            yield "limit stage", exc

    rng = np.random.default_rng(args.seed)
    D = 128
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    m /= op_norm(m)
    blocks = BlockStructure((1,) * D)
    w = stratify(m, blocks)
    residual = Verdict("residual", w.reconstruction_residual(m), 0.0, RESIDUAL_TOL)
    yield "stratification", [residual, *w.tail_verdicts()]
    yield "dd corners", _no_failures(int(not dd_check(w.m_e + w.m_o, w.X, blocks)))

    tent = build_tent_unit(12, 0.25)
    yield "tent invariants", _no_failures(int(not tent.check_invariants()["ok"]))
    # at hyp_check's eps 0.1: --epsilon is the tree's, below 2, and HypWeak's is in (0, 1)
    yield "tent HypWeak", _no_failures(len(hyp_check(tent, "HypWeak")["failures"]))
    proj = projection_unit(BlockStructure((2, 2, 2, 2)))
    yield "projection HypA", _no_failures(len(hyp_check(proj, "HypA")["failures"]))
    alpha = TorusElement(1.0 / (np.arange(12) + 1.0))
    yield "quasi-unitary bound", _quasi_unitary(alpha, tent, 3)
    # the stable case A (x) K, q_n the projection onto the first n coordinates
    # of C^4; the tent tensor's neighbouring elements overlap, so its
    # quasi-unitary tail is not 0
    qs = [np.arange(4) < n for n in range(1, 5)]
    try:
        stable = tensor_unit(proj, qs)
        stable_tent = tensor_unit(build_tent_unit(4, 0.25), qs)
    except CoronaLabError as exc:
        yield "stable unit", exc
    else:
        yield "stable HypA", _no_failures(len(hyp_check(stable, "HypA")["failures"]))
        yield "stable quasi-unitary bound", _quasi_unitary(alpha, stable_tent, 1)

    ses = dl.build_paper_model(depth=6)
    rep = dl.six_term_check(ses)
    wrong = (rep["case"] != "diagonal_defect") + (rep["lim1_F"] != "Nonzero")
    yield "derived limits paper model", _no_failures(wrong)


def cmd_verify(args) -> int:
    failures = []
    for name, outcome in _verify_checks(args):
        # a check fails by its error, or by a verdict that does not hold, as NaN does not
        if isinstance(outcome, CoronaLabError):
            failures.append(f"{name}: {outcome}")
        elif not all(v.holds for v in outcome):
            failures.append(name)
    doc = {
        "config": _config_echo(args),
        "failures": failures,
        "ok": not failures,
    }
    _emit(doc, args.out)
    return 0 if not failures else 1


_FLAGS = {
    "seed": {"type": int, "default": 0},
    "horizon": {"type": int, "default": 100_000},
    "depth": {"type": int, "default": 3},
    "epsilon": {"type": float, "default": 0.1},
    "j0": {"type": int, "default": 10},
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it."""
    p = argparse.ArgumentParser(
        prog="corona-lab",
        description="finite-horizon laboratory for torus pseudometrics, "
        "block-operator stratification, approximate units, and derived limits",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *names):
        # --out, and of the shared flags only those the subcommand reads
        for name in names:
            sp.add_argument(f"--{name}", **_FLAGS[name])
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("tree", help="build the coherent binary tree with certificates")
    common(sp, "horizon", "depth", "epsilon", "j0")
    sp.add_argument("--z-variant", action="store_true", dest="z_variant")
    sp.set_defaults(fn=cmd_tree)

    sp = sub.add_parser(
        "stratify", help="near-block-diagonal decomposition of a matrix: its X and tail bounds"
    )
    common(sp)
    sp.add_argument("matrix", help="square matrix file, one row per line, complex entries")
    sp.set_defaults(fn=cmd_stratify)

    sp = sub.add_parser("sandwich", help="fuzz sweep of the conjugation norm sandwich")
    common(sp, "seed")
    sp.add_argument("--model", choices=("blocks", "tent"), default="blocks")
    sp.add_argument("--samples", type=int, default=100)
    sp.set_defaults(fn=cmd_sandwich)

    sp = sub.add_parser("limits", help="inverse and first derived limits of towers")
    common(sp)
    sp.add_argument(
        "--depth", type=int, default=None,
        help=f"levels of the paper model (default {PAPER_MODEL_DEPTH}); a tower file takes none",
    )
    sp.add_argument("tower", nargs="?", default=None, help="tower JSON file")
    sp.add_argument("--paper-model", action="store_true", dest="paper_model")
    sp.set_defaults(fn=cmd_limits)

    sp = sub.add_parser("verify", help="run the cross-module invariant suites")
    common(sp, "seed", "epsilon", "j0")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        print(f"seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except CoronaLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an --out that cannot be written, such as one in a missing directory
        # or naming a directory: invalid input, not a failed check
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a configuration too large for this machine, such as a huge horizon
        line = f"out of memory: {args.command}, in {_innermost_function(exc)}"
        print(line + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


def _innermost_function(exc: BaseException) -> str:
    """Name of the innermost function of this package on ``exc``'s traceback."""
    package = os.path.dirname(os.path.abspath(__file__))
    name, tb = None, exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if os.path.dirname(os.path.abspath(code.co_filename)) == package:
            name = code.co_name
        tb = tb.tb_next
    return name


if __name__ == "__main__":
    sys.exit(main())
