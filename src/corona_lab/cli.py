"""Command-line front door: build constructions, emit certificates, verify.

Exit codes: 0 success, 1 certified mathematical failure, 2 input or
configuration error.  All runs are reproducible from (seed, flags); the
configuration is echoed into every output document.
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
from .errors import CoronaLabError, HorizonTooSmall, PreconditionViolation
from .operators import (
    BlockStructure,
    ad_sandwich,
    dd_check,
    load_matrix,
    op_norm,
    save_matrix,
    stratify,
)
from .partitions import check_tolerance, fx_profile
from .torus import SLACK, RunList, TorusElement
from .tree import build_tree, generate_chain, limit_stage
from .weak_units import (
    build_tent_unit,
    hyp_check,
    projection_unit,
    quasi_unitary_residual,
    tensor_unit,
    weak_sandwich,
)

DEFAULT_SCHEDULE = (32, 36, 40, 48)
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

    ``memo`` maps each :class:`RunList` run value formatted so far to its
    text, and ``(id(runlist), level)`` of each RunList encoded so far to the
    slice of ``out`` its pieces fill: a RunList met again at the same level,
    as tree nodes that hold one element share one, appends those pieces
    again.  A list of ints only (a tree level) is formatted by one ``%``.
    In other dicts and lists each scalar is formatted once and joins the
    text before it, so a dict of scalars (a certificate) is one piece.
    """
    if not isinstance(x, (list, tuple, dict, RunList)):
        text = _scalar(x)
        if text is None:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        out.append(text)
        return
    if not x:
        out.append("{}" if isinstance(x, dict) else "[]")
        return
    pad = "\n" + "  " * (level + 1)
    end = "\n" + "  " * level
    if isinstance(x, RunList):
        span = memo.get((id(x), level))
        if span is not None:
            out += out[span[0] : span[1]]
            return
        start = len(out)
        out.append("[" + pad)
        # one piece per run; the last item takes no separator
        sep = "," + pad
        values, counts = x.runs
        for value, count in zip(values, counts):
            text = memo.get(value)
            if text is None:
                text = _float(value)
                if value:  # 0.0 and -0.0 are one key with two texts
                    memo[value] = text
            out.append((text + sep) * count)
        out[-1] = out[-1][: -len(sep)]
        out.append(end + "]")
        memo[id(x), level] = (start, len(out))
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
    not per item, and none where it is met again at the same level.  Its
    ints were computed here, not parsed, so Python's limit on the digits of
    an int as text, where it has one, is lifted while it is formatted."""
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
        chain = generate_chain(args.depth, args.horizon, DEFAULT_SCHEDULE[: args.depth])
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
    except (OSError, ValueError, CoronaLabError) as exc:
        _emit({"error": "parse", "message": str(exc)}, args.out)
        return 2
    blocks = BlockStructure((1,) * m.shape[0])
    w = stratify(m, blocks)
    residual = w.reconstruction_residual(m)
    dd_ok = dd_check(w.m_e + w.m_o, w.X, blocks)
    parts = {}
    if args.out:
        base = os.path.splitext(args.out)[0]
        for name, mat in (("m_e", w.m_e), ("m_o", w.m_o), ("a", w.a)):
            path = f"{base}.{name}.txt"
            save_matrix(path, mat)
            parts[name] = path
    doc = {
        "config": _config_echo(args),
        "X": w.X.to_json(),
        "tail_bounds": list(w.tail_bounds),
        "tail_bounds_ok": w.tail_bound_ok(),
        "reconstruction_residual": residual,
        "dd_exact": dd_ok,
        "parts": parts,
    }
    _emit(doc, args.out)
    if not (dd_ok and w.tail_bound_ok() and residual <= 1e-12):
        return 1
    return 0


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
            slack = 1e-9
        delta = rep["delta"]
        sampled = rep["sampled_max"]
        ok = (lower >= delta - slack - 1e-9) and (sampled <= 2 * delta + 1e-9)
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


def cmd_verify(args) -> int:
    check_tolerance(args.epsilon, args.j0)
    failures = []
    horizon = 2000 if args.fast else 20000

    try:
        chain = generate_chain(2, horizon, DEFAULT_SCHEDULE[:3])
        tree = build_tree(chain, z_variant=True, eps=args.epsilon, j0=args.j0)
    except PreconditionViolation:
        raise  # invalid input, such as a j0 past every window: exit 2, not a failure
    except CoronaLabError as exc:
        failures.append(f"tree: {exc}")
    else:
        # the union bound on every window of each witness against each level;
        # a NaN excess fails too
        for t, witness in enumerate(tree.witnesses):
            for n, level in enumerate(chain.levels):
                if not fx_profile(witness, level).union_excess() <= SLACK:
                    failures.append(f"union bound {t}/{n}")
        # the element above the all-ones branch, as at a limit stage
        branch = [tree.nodes[label] for label in ("", "1", "11")]
        try:
            limit_stage(branch, chain.levels, eps=args.epsilon, j0=args.j0)
        except CoronaLabError as exc:
            failures.append(f"limit stage: {exc}")

    rng = np.random.default_rng(args.seed)
    D = 32 if args.fast else 128
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    m /= op_norm(m)
    blocks = BlockStructure((1,) * D)
    w = stratify(m, blocks)
    if w.reconstruction_residual(m) > 1e-12 or not w.tail_bound_ok():
        failures.append("stratification")
    if not dd_check(w.m_e + w.m_o, w.X, blocks):
        failures.append("dd corners")

    tent = build_tent_unit(12, 0.25)
    inv = tent.check_invariants()
    if not inv["ok"]:
        failures.append("tent invariants")
    if not hyp_check(tent, "HypWeak", eps=args.epsilon)["holds"]:
        failures.append("tent HypWeak")
    proj = projection_unit(BlockStructure((2, 2, 2, 2)))
    if not hyp_check(proj, "HypA")["holds"]:
        failures.append("projection HypA")
    alpha = TorusElement(1.0 / (np.arange(12) + 1.0))
    q = quasi_unitary_residual(alpha, tent, 3)
    if q["tail_norm"] > q["bound"] + 1e-12:
        failures.append("quasi-unitary bound")
    # the stable case A (x) K, q_n the projection onto the first n coordinates
    # of C^4; the tent tensor's neighbouring elements overlap, so its
    # quasi-unitary tail is not 0
    qs = [np.arange(4) < n for n in range(1, 5)]
    try:
        stable = tensor_unit(proj, qs)
        stable_tent = tensor_unit(build_tent_unit(4, 0.25), qs)
    except CoronaLabError as exc:
        failures.append(f"stable unit: {exc}")
    else:
        if not hyp_check(stable, "HypA")["holds"]:
            failures.append("stable HypA")
        q = quasi_unitary_residual(alpha, stable_tent, 1)
        if q["tail_norm"] > q["bound"] + 1e-12:
            failures.append("stable quasi-unitary bound")

    ses = dl.build_paper_model(depth=6)
    rep = dl.six_term_check(ses)
    if rep["case"] != "diagonal_defect" or rep["lim1_F"] != "Nonzero":
        failures.append("derived limits paper model")

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

    sp = sub.add_parser("stratify", help="near-block-diagonal decomposition of a matrix")
    common(sp)
    sp.add_argument("matrix", help="matrix file, one row per line, complex entries")
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
    sp.add_argument("--fast", action="store_true")
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
