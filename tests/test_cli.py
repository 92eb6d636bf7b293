import hashlib
import inspect
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corona_lab import cli, partitions
from corona_lab import tree as tree_mod
from corona_lab.cli import main
from corona_lab.errors import PreconditionViolation
from corona_lab.limits import Tower, constant_tower, free_group
from corona_lab.operators import BlockStructure, DDWitness, load_matrix, stratify_against
from corona_lab.partitions import FxProfile, SparseSet
from corona_lab.torus import SLACK, RunList, TorusElement, sorted_unique
from corona_lab.tree import min_sufficient_horizon
from corona_lab.weak_units import PositiveUnit, quasi_unitary_residual, tensor_unit
from test_operators import write_matrix
from test_partitions import excess_profile

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_tree_depth1(tmp_path):
    out = tmp_path / "tree.json"
    code = run(["tree", "--depth", "1", "--horizon", "3000", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["nodes"]) == {"", "0", "1"}
    assert doc["config"]["depth"] == 1


def test_tree_horizon_too_small(tmp_path):
    out = tmp_path / "tree.json"
    code = run(["tree", "--depth", "3", "--horizon", "50", "--out", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["error"] == "HorizonTooSmall" and doc["min_horizon"] > 50


@pytest.mark.parametrize(
    "flags",
    [
        ["--j0", "-5"],
        ["--epsilon", "nan"],
        ["--depth", "-1"],
        ["--depth", "0", "--j0", "-5", "--epsilon", "nan"],
        ["--depth", "0", "--z-variant"],
        ["--j0", "3000"],
    ],
    ids=["negative-j0", "nan-epsilon", "negative-depth", "depth0-bad-tolerance",
         "depth0-z-variant", "j0-past-every-window"],
)
def test_tree_invalid_input(tmp_path, flags):
    out = tmp_path / "tree.json"
    assert run(["tree", "--horizon", "3000", *flags, "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"] == "PreconditionViolation"


@pytest.mark.parametrize("flags", [["--j0", "-5"], ["--epsilon", "nan"], ["--j0", "100000"]])
def test_verify_invalid_tolerance(tmp_path, flags):
    assert run(["verify", *flags, "--out", str(tmp_path / "v.json")]) == 2
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("eps, code", [("2.0", 2), ("2.5", 2), ("1.99", 0)])
def test_tree_refuses_an_eps_of_2_or_more(tmp_path, eps, code):
    # no diameter exceeds 2, so such an eps would make every coherence
    # certificate hold whatever the tree
    out = tmp_path / "tree.json"
    argv = ["tree", "--depth", "2", "--horizon", "20000", "--epsilon", eps, "--out", str(out)]
    assert run(argv) == code
    doc = json.loads(out.read_text())
    if code == 2:
        assert doc["error"] == "PreconditionViolation" and "below 2" in doc["message"]
    else:
        assert all(c["holds"] for c in doc["certificates"] if c["kind"] == "coherence")


@pytest.mark.parametrize("eps, code", [("2.0", 2), ("2.5", 2), ("1.99", 0)])
def test_verify_refuses_an_eps_of_2_or_more(tmp_path, capsys, eps, code):
    out = tmp_path / "v.json"
    assert run(["verify", "--epsilon", eps, "--out", str(out)]) == code
    if code == 2:
        assert not out.exists() and "below 2" in capsys.readouterr().err
    else:
        assert json.loads(out.read_text())["ok"]


@pytest.mark.parametrize("j0, code", [(33, 2), (32, 0)])
def test_tree_j0_must_leave_a_window(tmp_path, j0, code):
    # level 0 of horizon 35 is {0, ..., 34}: 35 points, so 33 windows
    out = tmp_path / "tree.json"
    argv = ["tree", "--depth", "1", "--horizon", "35", "--j0", str(j0), "--out", str(out)]
    assert run(argv) == code
    doc = json.loads(out.read_text())
    if code == 2:
        assert doc["error"] == "PreconditionViolation" and "33" in doc["message"]
    else:
        assert all(c["holds"] for c in doc["certificates"] if c["kind"] == "coherence")


# Z with doubling bonds and a doubling tail: its image chain needs two steps
_FREE_TOWER = json.dumps({
    "levels": [{"rank": 1, "relations": [[]]}] * 2,
    "bonds": [[[2]]],
    "tail": {"level": {"rank": 1, "relations": [[]]}, "bond": [[2]]},
})


@pytest.mark.parametrize(
    "command, text, flags",
    [
        ("stratify", "1,2\n3,4\n5,6\n", []),
        ("stratify", "1,nan\n0,1\n", []),
        ("stratify", "1,0\n0,inf+1j\n", []),
        ("limits", "[1, 2]", []),
        ("limits", '{"levels": [{"rank": 1, "relations": [[null]]}], "bonds": []}', []),
        ("sandwich", None, ["--samples", "-3"]),
        ("sandwich", None, ["--seed", "-1"]),
        ("limits", None, ["--paper-model", "--depth", "-5"]),
        ("limits", None, ["--paper-model", "--depth", "0"]),
        ("limits", None, ["--paper-model", "--depth", "1"]),
        ("limits", _FREE_TOWER, ["--depth", "-4"]),
        ("limits", _FREE_TOWER, ["--depth", "0"]),
        ("limits", _FREE_TOWER, ["--depth", "1"]),
    ],
    ids=["non-square", "nan-entry", "inf-entry", "tower-list", "tower-null-entry",
         "negative-samples", "negative-seed", "paper-depth-negative", "paper-depth-0",
         "paper-depth-1", "tower-depth-negative", "tower-depth-0", "tower-depth-1"],
)
def test_invalid_input_exits_2(tmp_path, command, text, flags):
    inputs = []
    if text is not None:
        (tmp_path / "input").write_text(text)
        inputs.append(str(tmp_path / "input"))
    assert run([command, *inputs, *flags, "--out", str(tmp_path / "out")]) == 2


# each subcommand takes only the flags it reads; the rest are usage errors
_DROPPED = {
    "tree": ["--seed"],
    "stratify": ["--seed", "--horizon", "--depth", "--epsilon", "--j0"],
    "sandwich": ["--horizon", "--depth", "--epsilon", "--j0"],
    "limits": ["--seed", "--horizon", "--epsilon", "--j0"],
    "verify": ["--horizon", "--depth"],
}


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in _DROPPED.items() for f in flags]
)
def test_unread_flags_exit_2(tmp_path, command, flag):
    inputs = [str(tmp_path / "m.txt")] if command == "stratify" else []
    with pytest.raises(SystemExit) as exc:
        run([command, *inputs, flag, "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "--depth", "1", "--horizon", "3000"],
        ["sandwich", "--samples", "2"],
        ["limits", "--paper-model"],
    ],
    ids=["tree", "sandwich", "limits"],
)
def test_closed_stdout_keeps_exit_code(argv):
    # `corona-lab tree | head -1`: the reader is gone before the output ends
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "corona_lab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=_subprocess_env(), text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def _subprocess_env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _address_space_2gb():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("depth", [21, 40, 51])
def test_deep_tree_reports_min_horizon_within_2gb(depth):
    # from depth 21 on, a doubling search for the minimal horizon would build
    # chains of 2^29 samples or more; the search must allocate no horizon
    proc = subprocess.run(
        [sys.executable, "-m", "corona_lab.cli", "tree", "--depth", str(depth),
         "--horizon", "3000"],
        capture_output=True, env=_subprocess_env(), text=True, timeout=60,
        preexec_fn=_address_space_2gb,
    )
    assert proc.returncode == 2, proc.stderr
    doc = json.loads(proc.stdout)
    need = min_sufficient_horizon(depth, list(cli.DEFAULT_SCHEDULE))
    assert doc["error"] == "HorizonTooSmall" and doc["min_horizon"] == need > 2**28


def test_huge_horizon_exits_2_within_2gb():
    # a feasible horizon too large for memory: one line on stderr, exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "corona_lab.cli", "tree", "--depth", "2",
         "--horizon", "10000000000"],
        capture_output=True, env=_subprocess_env(), text=True, timeout=60,
        preexec_fn=_address_space_2gb,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("out of memory: tree, in ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--depth", "3", "--horizon", str(2**59)],
        ["--depth", "3", "--horizon", str(2**60)],
        ["--depth", "3", "--horizon", str(2**62)],
        ["--depth", "3", "--horizon", str(2**63 - 1)],
        ["--depth", "3", "--horizon", str(10**21)],
        ["--depth", "52", "--horizon", "100"],
        ["--depth", "57", "--horizon", "100"],
        ["--depth", "58", "--horizon", "100"],
        ["--depth", "59", "--horizon", "100"],
        ["--depth", "30000", "--horizon", "100"],
        ["--depth", str(10**9), "--horizon", "100"],
    ],
    ids=["horizon-2^59", "horizon-2^60", "horizon-2^62", "horizon-2^63-1",
         "horizon-10^21", "depth-52", "depth-57", "depth-58", "depth-59", "depth-30000",
         "depth-10^9"],
)
def test_horizon_and_depth_past_the_limit_exit_2(tmp_path, flags):
    # numpy refuses an arange of 2^60 samples, and a depth-d chain needs a
    # horizon of at least 2^(d + 1), from depth 52 on one of 2^59 or more:
    # all are refused in under 1 s, before any work; the child times its
    # own main() and runs within 2 GB, so a regression that loops over the
    # depth fails rather than fills memory
    out = tmp_path / "tree.json"
    timed_main = (
        "import sys, time\n"
        "from corona_lab.cli import main\n"
        "t0 = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - t0)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", timed_main, "tree", *flags, "--out", str(out)],
        capture_output=True, env=_subprocess_env(), text=True, timeout=60,
        preexec_fn=_address_space_2gb,
    )
    assert proc.returncode == 2 and proc.stderr == "", proc.stderr
    assert float(proc.stdout) < 1.0
    doc = json.loads(out.read_text())
    assert doc["error"] == "PreconditionViolation" and "below 2^59" in doc["message"]


def test_horizon_below_the_limit_runs_out_of_memory():
    # the largest horizon taken still fits no machine: one line, exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "corona_lab.cli", "tree", "--depth", "3",
         "--horizon", str(2**59 - 1)],
        capture_output=True, env=_subprocess_env(), text=True, timeout=60,
        preexec_fn=_address_space_2gb,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("out of memory: tree, in generate_chain")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_out_of_memory_names_the_subcommand_and_function(tmp_path, monkeypatch, capsys):
    # a bare MemoryError has no message; the line still says where it was
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "generate_chain", exhausted)
    out = tmp_path / "tree.json"
    assert run(["tree", "--depth", "2", "--horizon", "3000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "out of memory: tree, in cmd_tree\n"
    assert not out.exists()


_UNWRITABLE_RUNS = {
    "tree": ["tree", "--depth", "1", "--horizon", "100"],
    "tree-built": ["tree", "--depth", "1", "--horizon", "3000"],
    "verify": ["verify"],
    "limits": ["limits", "--paper-model"],
    "sandwich": ["sandwich", "--samples", "1"],
    "stratify": ["stratify"],
}


@pytest.mark.parametrize(
    "command, where",
    [(c, w) for c in _UNWRITABLE_RUNS for w in ("directory", "missing-directory")],
    ids=lambda v: v,
)
def test_unwritable_out_exits_2(tmp_path, capsys, command, where):
    # an --out that cannot be opened is invalid input: one line on stderr
    # naming it, exit 2, never the 1 of a failed check or a traceback
    argv = list(_UNWRITABLE_RUNS[command])
    if command == "stratify":
        (tmp_path / "m.txt").write_text("0.5\n")
        argv.append(str(tmp_path / "m.txt"))
    out = tmp_path / "missing" / "x.json"
    made = {tmp_path / "m.txt"} if command == "stratify" else set()
    if where == "directory":
        out = tmp_path / "dir"
        out.mkdir()
        made.add(out)
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1 and str(out) in err
    # and the run leaves no file
    assert set(tmp_path.rglob("*")) == made


# sha256 of format-1 tree documents, as written before tree elements were
# stored as runs (the last two: before the emitter wrote a shared element's
# text once); neither change may alter a byte
_TREE_SHA256 = {
    ("--depth", "3", "--horizon", "100000"):
        "f666168cf05c7106714d98258be1b6b115c1709266bf0407306f0adade04f4df",
    ("--depth", "4", "--horizon", "5000", "--z-variant"):
        "361b5f7f0e230efff54a693f433255d15ac0abbdd4411fbda3f930cf41f157bd",
    ("--depth", "2", "--horizon", "20000"):
        "2e775d98f71615fa2c1cd92e229b77c935ceb0361f8066030d995f387a59740d",
    ("--depth", "0", "--horizon", "3000"):
        "69601b3bcdd8f1d98001aff3eb23f0fa8cbcc87f4b0ab44993fb41131c61778b",
    ("--depth", "3", "--horizon", "2600", "--z-variant"):
        "e5b91dc248d0d1e72a4078720b7174d979568a39ecc0a7084c06414a87be22cd",
}


@pytest.mark.parametrize(
    "flags", list(_TREE_SHA256), ids=["d3-1e5", "d4-5000-z", "d2-20000", "d0-3000", "d3-2600-z"]
)
def test_tree_format_1_bytes_pinned(tmp_path, flags):
    out = tmp_path / "tree.json"
    assert run(["tree", *flags, "--out", str(out)]) == 0
    assert _sha256(out) == _TREE_SHA256[flags]


def test_tree_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["tree", "--depth", "1", "--horizon", "3000", "--out", str(a)])
    run(["tree", "--depth", "1", "--horizon", "3000", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_stratify(tmp_path, capsys):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    m /= np.linalg.norm(m, 2)
    mat = tmp_path / "m.txt"
    write_matrix(mat, m)
    out = tmp_path / "w.json"
    code = run(["stratify", str(mat), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dd_exact"] and doc["tail_bounds_ok"]
    assert doc["reconstruction_residual"] <= 1e-12
    # one document, no part files: the parts are a function of m and X
    assert set(tmp_path.iterdir()) == {mat, out}
    assert set(doc) == {"config", "X", "tail_bounds", "tail_bounds_ok",
                        "reconstruction_residual", "dd_exact"}
    capsys.readouterr()
    assert run(["stratify", str(mat)]) == 0  # the same text on stdout
    assert capsys.readouterr().out == out.read_text()


def test_stratify_single_block(tmp_path):
    # one block: X = {0, 1}, everything captured
    (tmp_path / "m.txt").write_text("0.5\n")
    out = tmp_path / "w.json"
    assert run(["stratify", str(tmp_path / "m.txt"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["X"] == {"elements": [0, 1]}
    assert doc["reconstruction_residual"] == 0.0 and doc["tail_bounds_ok"]


def test_stratify_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not,a,matrix\n")
    assert run(["stratify", str(bad), "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("case", ["bad token", "missing path", "directory"])
def test_stratify_parse_error_keeps_its_message(tmp_path, case):
    # load_matrix used to let the ValueError or OSError escape, which the
    # CLI caught; its PreconditionViolation is chained from that error and
    # carries its text, so the document keeps its bytes
    path = {"bad token": tmp_path / "m.txt", "missing path": tmp_path / "no.txt"}.get(
        case, tmp_path
    )
    if case == "bad token":
        path.write_text("1+2j,4x\n")
    cause, message = {
        "bad token": (ValueError, "complex() arg is a malformed string"),
        "missing path": (FileNotFoundError, f"[Errno 2] No such file or directory: {str(path)!r}"),
        "directory": (IsADirectoryError, f"[Errno 21] Is a directory: {str(path)!r}"),
    }[case]
    with pytest.raises(PreconditionViolation) as info:
        load_matrix(path)
    assert isinstance(info.value.__cause__, cause) and str(info.value) == message
    out = tmp_path / "o.json"
    assert run(["stratify", str(path), "--out", str(out)]) == 2
    assert json.loads(out.read_text()) == {"error": "parse", "message": message}


@pytest.mark.parametrize(
    "text, shape", [("1,2\n", "1x2"), ("1,2,3\n4,5,6\n", "2x3")], ids=["1x2", "2x3"]
)
def test_stratify_non_square_is_a_parse_error(tmp_path, text, shape):
    # a well-formed matrix that is not square used to reach the stratification
    # and exit 2 with one line of stderr and no --out document
    path, out = tmp_path / "m.txt", tmp_path / "o.json"
    path.write_text(text)
    assert run(["stratify", str(path), "--out", str(out)]) == 2
    message = f"matrix is {shape}, not square"
    assert json.loads(out.read_text()) == {"error": "parse", "message": message}


def test_sandwich_blocks(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sandwich", "--samples", "15", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,lower,sampled,two_delta,ok"
    assert len(lines) == 16


def test_sandwich_tent_and_self_test(tmp_path, monkeypatch):
    out = tmp_path / "s.csv"
    assert run(["sandwich", "--samples", "4", "--model", "tent", "--out", str(out)]) == 0
    # a sampled norm above 2·delta breaks the sandwich: the sweep exits 1
    broken = {"delta": 0.5, "lower_witness": 0.5, "sampled_max": 1.5}
    monkeypatch.setattr(cli, "ad_sandwich", lambda *args, **kw: broken)
    assert run(["sandwich", "--samples", "2", "--out", str(out)]) == 1
    assert out.read_text().splitlines()[1:] == ["0.5,0.5,1.5,1.0,0"] * 2


def test_limits_paper_model(tmp_path, capsys):
    out = tmp_path / "l.json"
    assert run(["limits", "--paper-model", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["six_term"]["lim1_F"] == "Nonzero"
    assert doc["flasque_T"]
    capsys.readouterr()
    assert run(["limits", "--paper-model"]) == 0  # the same text on stdout
    assert capsys.readouterr().out == out.read_text()


# sha256 of limits, sandwich and stratify outputs: a change that keeps their
# numbers keeps every byte
_LIMITS_SHA256 = {
    "2": "4207749d93cc5314ce46589c58314ad234d401ab4fa6d8c340f3da6ac5b7b600",
    "6": "2e41e261ea20c0e1db9f9c364412d7bbc57e338fd1ffc6940d54d63a6167c1c2",
}
_SANDWICH_SHA256 = {
    "blocks": "2ea1d0ad9800acd9beb27b160275cb5adba42f248c13b724f5673aac7e6ea7bc",
    "tent": "936b74273dbfd04122abe08549d07aee8d1bfc31162e6eb941f810d451ef3a11",
}
# the input, the document, and the parts that stratify_against rebuilds
# from the input and the document's X, written as the CLI once wrote them
_STRATIFY_SHA256 = {
    "m.txt": "725766b59365d09e196128751161a7130f814b7410350dd440da3321f4bd2ebd",
    "w.json": "9957c99ba84c8e95a02fc0fd41cafc144461391c51dad222fd0014daa9db77bb",
    "w.m_e.txt": "330ee998a7455185503dd1ab3eaddef52330d248540db2ab065123c461e0882b",
    "w.m_o.txt": "5c47abf026948eee1d081eae4118f80d9ff7d03862fcca4faabe71b1be64951b",
    "w.a.txt": "5bf16ab45c8c97cf2217361ae965d7e2162cc0f3562103e55d8a87042a5d7bc0",
}


@pytest.mark.parametrize("depth", list(_LIMITS_SHA256))
def test_limits_paper_model_bytes_pinned(tmp_path, depth):
    out = tmp_path / "l.json"
    assert run(["limits", "--paper-model", "--depth", depth, "--out", str(out)]) == 0
    assert _sha256(out) == _LIMITS_SHA256[depth]


def _tail_tower(level, bond) -> dict:
    """Three copies of ``level`` joined by ``bond``, which is also the tail's."""
    return {"levels": [level] * 3, "bonds": [bond] * 2, "tail": {"level": level, "bond": bond}}


# sha256 of `limits` on one tower file per way lim is found; relations are
# column matrices, so [[0], [4]] presents Z + Z/4
_LIMITS_TOWER_SHA256 = {
    # stable images: lim is the last image modulo the relations, Z + Z/4
    "stable-tail": (
        _tail_tower({"rank": 2, "relations": [[0], [4]]}, [[1, 0], [0, 3]]),
        "a0eaf3c59453154ab8fa4a79b8b602d4fa0996e051711e7fbdf2ed3951593f40",
    ),
    # Z under doubling: the images meet in 0
    "p-divisible-tail": (
        _tail_tower({"rank": 1, "relations": [[]]}, [[2]]),
        "f8a498b0901dc05d487655d0fdd4ef01288c4b925d2687aa4f2636c1d2cb8050",
    ),
    # torsion and not Mittag-Leffler: the tail level, Z + Z/3, not exact
    "torsion-not-mittag-leffler": (
        _tail_tower({"rank": 2, "relations": [[0], [3]]}, [[2, 0], [0, 1]]),
        "95dcb8671aa5e1d6c1a03a75de167e3137a08bd8ba2777d81a3351fa86ff50b7",
    ),
    # no tail: the top level, Z/2
    "no-tail": (
        {"levels": [{"rank": 1, "relations": [[4]]}, {"rank": 1, "relations": [[2]]}],
         "bonds": [[[2]]]},
        "1792abed7e550eeb3612f63268cc5ed7543d35185f0eecdb3dc5368296396fac",
    ),
}


@pytest.mark.parametrize("name", list(_LIMITS_TOWER_SHA256))
def test_limits_tower_file_bytes_pinned(tmp_path, name):
    tower, digest = _LIMITS_TOWER_SHA256[name]
    path, out = tmp_path / "t.json", tmp_path / "l.json"
    path.write_text(json.dumps(tower))
    assert run(["limits", str(path), "--out", str(out)]) == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("model", list(_SANDWICH_SHA256))
def test_sandwich_bytes_pinned(tmp_path, model):
    out = tmp_path / "s.csv"
    argv = ["sandwich", "--seed", "3", "--samples", "40", "--model", model]
    assert run([*argv, "--out", str(out)]) == 0
    assert _sha256(out) == _SANDWICH_SHA256[model]


def test_stratify_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(48)
    m = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    m /= np.linalg.norm(m, 2)
    write_matrix("m.txt", m)
    assert run(["stratify", "m.txt", "--out", "w.json"]) == 0
    doc = json.loads(Path("w.json").read_text())
    w = stratify_against(load_matrix("m.txt"), SparseSet(doc["X"]["elements"]),
                         BlockStructure((1,) * 48))
    assert list(w.tail_bounds) == doc["tail_bounds"]
    for name in ("m_e", "m_o", "a"):
        write_matrix(f"w.{name}.txt", getattr(w, name))
    assert {name: _sha256(name) for name in _STRATIFY_SHA256} == _STRATIFY_SHA256


def test_limits_tower_file(tmp_path):
    path = tmp_path / "t.json"
    z = {"rank": 1, "relations": [[]]}
    tower = {"levels": [z] * 4, "bonds": [[[1]]] * 3, "tail": {"level": z, "bond": [[1]]}}
    assert Tower.from_json(tower) == constant_tower(free_group(1), 4)
    path.write_text(json.dumps(tower))
    out = tmp_path / "l.json"
    assert run(["limits", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["lim1"]["verdict"] == "Zero" and doc["flasque"]
    assert doc["config"] == {}  # a tower file reads no flag


@pytest.mark.parametrize("flags", [["--paper-model"], ["--depth", "3"]], ids=["paper-model", "depth"])
def test_limits_tower_file_with_paper_model_flags_exits_2(tmp_path, capsys, flags):
    # both flags describe the paper model, which a tower file replaces
    path, out = tmp_path / "t.json", tmp_path / "l.json"
    path.write_text(_FREE_TOWER)
    assert run(["limits", str(path), *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists() and not captured.out
    assert len(captured.err.splitlines()) == 1


def test_limits_invalid_tower(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"levels": [{"rank": 1, "relations": [[4]]}, '
                    '{"rank": 1, "relations": [[2]]}], "bonds": [[[1]]]}')
    assert run(["limits", str(path), "--out", str(tmp_path / "l.json")]) == 2
    # neither a tower file nor --paper-model: a usage error, like the others
    capsys.readouterr()
    out = tmp_path / "l2.json"
    assert run(["limits", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists() and not captured.out
    assert len(captured.err.splitlines()) == 1


_Z = {"rank": 1, "relations": [[]]}
_Z2 = {"rank": 1, "relations": [[2]]}
_Z4 = {"rank": 1, "relations": [[4]]}


@pytest.mark.parametrize(
    "tower, message",
    [
        ({"levels": [_Z2, _Z2], "bonds": [[[1, 0]]]}, "bond 0 has wrong shape"),
        ({"levels": [_Z4, _Z2], "bonds": [[[1]]]}, "bond 0 does not respect relations"),
        ({"levels": [_Z], "bonds": [], "tail": {"level": _Z}},
         "tail level and tail bond go together"),
        ({"levels": [_Z2], "bonds": [], "tail": {"level": _Z2, "bond": [[1], [0]]}},
         "tail bond has wrong shape"),
        # Z ⊕ Z/2 with the torsion generator sent to a free one
        ({"levels": [], "bonds": [],
          "tail": {"level": {"rank": 2, "relations": [[0], [2]]}, "bond": [[0, 1], [0, 0]]}},
         "tail bond does not respect relations"),
        ({"levels": [_Z], "bonds": [], "tail": {"level": _Z2, "bond": [[1]]}},
         "last explicit level must match the tail level"),
        ({"levels": [], "bonds": []}, "empty tower"),
        # a tail object that is present is read, even an empty one
        ({"levels": [_Z], "bonds": [], "tail": {}}, "a level is an object with an integer rank"),
    ],
    ids=["shape", "relations", "tail-pairing", "tail-shape", "tail-relations", "tail-match",
         "empty", "tail-empty"],
)
def test_limits_invalid_tower_error_document(tmp_path, capsys, tower, message):
    # each check of a tower's construction gives the same error document
    path, out = tmp_path / "t.json", tmp_path / "l.json"
    path.write_text(json.dumps(tower))
    assert run(["limits", str(path), "--out", str(out)]) == 2
    assert out.read_text() == (
        '{\n  "error": "invalid tower",\n  "message": "%s"\n}\n' % message
    )
    assert not capsys.readouterr().err


def _decimal(n: int) -> str:
    """The decimal text of n, past Python's limit on int-to-text digits
    where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("case", ["paper-model", "tower-file"])
def test_limits_writes_answers_of_more_than_4300_digits(tmp_path, case):
    # lim G of the paper model at depth 14,300 is Z/2^14299, 4,305 digits;
    # each relation below parses, but their product has 4,401 digits
    if case == "paper-model":
        argv, torsion = ["--paper-model", "--depth", "14300"], 2**14299
    else:
        a, b = 10**2200 + 1, 10**2200 + 3
        level = {"rank": 2, "relations": [[a, 0], [0, b]]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"levels": [level] * 2, "bonds": [[[1, 0], [0, 1]]]}))
        argv, torsion = [str(path)], a * b
    out = tmp_path / "l.json"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert run(["limits", *argv, "--out", str(out)]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert "\n" + " " * 8 + _decimal(torsion) + "\n" in out.read_text()


@pytest.mark.parametrize("value", ["123", "notanint"])
def test_seed_variable_in_the_environment_changes_nothing(tmp_path, monkeypatch, value):
    # only --seed chooses the inputs; a CORONA_LAB_SEED left set is not read
    want = tmp_path / "want.csv"
    assert run(["sandwich", "--samples", "2", "--seed", "5", "--out", str(want)]) == 0
    monkeypatch.setenv("CORONA_LAB_SEED", value)
    out = tmp_path / "s.csv"
    assert run(["sandwich", "--samples", "2", "--seed", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == want.read_bytes()


# sha256 of passing verify documents, as written before verify ran the limit
# stage; a passing verify writes the same bytes
_VERIFY_SHA256 = {
    ("--seed", "0"): "88823e18d76374ea8977face617bfef60ab6271cd3d4e172416a41db5bf0d8d7",
    ("--seed", "7"): "30298cfcd64d047eef75f8c068a1406a9052a835eab8eb37ecfbc128152aa1d3",
}


@pytest.mark.parametrize("flags", list(_VERIFY_SHA256), ids=["seed-0", "seed-7"])
def test_verify_bytes_pinned(tmp_path, flags):
    out = tmp_path / "v.json"
    assert run(["verify", *flags, "--out", str(out)]) == 0
    assert _sha256(out) == _VERIFY_SHA256[flags]


@pytest.mark.parametrize(
    "flags",
    [["--j0", "0"], ["--j0", "1"], ["--epsilon", "1.5", "--j0", "2"],
     ["--epsilon", "0.09813534865483663"]],
    ids=["j0-0", "j0-1", "eps-1.5-j0-2", "tightest-tail-max"],
)
def test_verify_limit_stage_passes_at_any_tolerance(tmp_path, flags):
    # the limit stage's thresholds are 1/k per block, not (eps, j0)
    out = tmp_path / "v.json"
    assert run(["verify", *flags, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["failures"] == []


def _unglued(alphas, x_inf):
    # each block copies its element as it is: the gluing constants dropped
    pts = x_inf.enumeration
    ends = [*pts[1 : len(alphas)], alphas[0].horizon]
    return TorusElement(np.concatenate(
        [a.phase_at(np.arange(lo, hi)) for a, lo, hi in zip(alphas, pts, ends)]
    ))


def _shifted(alphas, x_inf, merge=tree_mod._merge_limit):
    # each element glued one block to the right of its own
    return merge([alphas[0], *alphas[:-1]], x_inf)


@pytest.mark.parametrize(
    "mutant, failure",
    [(_unglued, "element 0 in block 1"), (_shifted, "element 1 in block 2")],
    ids=["dropped-constant", "shifted-blocks"],
)
def test_verify_fails_on_a_wrong_limit_stage(tmp_path, monkeypatch, mutant, failure):
    monkeypatch.setattr(tree_mod, "_merge_limit", mutant)
    out = tmp_path / "v.json"
    assert run(["verify", "--out", str(out)]) == 1
    (message,) = json.loads(out.read_text())["failures"]
    assert message.startswith("limit stage: ") and failure in message


def _skips_first_window(grid, pts, span):
    # break_windows with each break's first window dropped: np.arange(1, span)
    b = grid[1:]
    first = np.searchsorted(pts, b, side="right") - span
    last = np.minimum(np.searchsorted(pts, b, side="left") - 1, pts.size - span - 1)
    j = first[:, None] + np.arange(1, span)
    j = sorted_unique(j[(j >= 0) & (j <= last[:, None])])
    lo = np.searchsorted(grid, pts[j], side="right") - 1
    hi = np.searchsorted(grid, pts[j + span] - 1, side="right")
    return j, lo, hi


def _endpoints_shifted(alpha, X, profile=partitions.fx_profile):
    # fx_profile with each endpoint pair one to the right: the pair of a run
    # start s is searchsorted(pts, s), its "- 1" dropped
    prof = profile(alpha, X)
    pts = X.enumeration
    j = sorted_unique(np.searchsorted(pts, alpha.starts[1:], side="left"))
    j = j[j < prof.windows]
    v = np.exp(1j * alpha.run_phases)
    endpoints = j, np.abs(v[alpha.run_index(pts[j])] - v[alpha.run_index(pts[j + 1])])
    return FxProfile(prof.windows, prof.double, prof.single, endpoints)


@pytest.mark.parametrize(
    "name, mutant, witnesses",
    [
        ("break_windows", _skips_first_window, ["0/2"]),
        ("fx_profile", _endpoints_shifted, ["0/0", "1/0", "1/1"]),
    ],
    # "full": the whole verify run, each mutant in place
    ids=["first-window-skipped-full", "endpoints-shifted-full"],
)
def test_verify_fails_on_a_wrong_window_finder(
    tmp_path, monkeypatch, name, mutant, witnesses
):
    # each mutant replaces the function wherever the package holds it, as an
    # edit of partitions.py would; every other check of verify passes
    for module in (partitions, tree_mod, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, mutant)
    out = tmp_path / "v.json"
    assert run(["verify", "--out", str(out)]) == 1
    failures = json.loads(out.read_text())["failures"]
    assert [f for f in failures if not f.startswith("limit stage: ")] == [
        f"union bound {w}" for w in witnesses
    ]
    # the limit stage's own profiles catch the shifted endpoints too
    assert all(f.startswith(("union bound ", "limit stage: union bound ")) for f in failures)


def test_verify_builds_each_witness_once(tmp_path, monkeypatch):
    # the union check reads the witnesses the tree already built
    calls = []
    witness = tree_mod.successor_witness

    def counted(chain, t):
        calls.append(t)
        return witness(chain, t)

    monkeypatch.setattr(tree_mod, "successor_witness", counted)
    out = tmp_path / "v.json"
    assert run(["verify", "--out", str(out)]) == 0
    assert calls == [0, 1]


def _halved(unit, qs):
    return PositiveUnit(tensor_unit(unit, qs).rs * 0.5)


def _sign_slip(unit, qs):
    # s_i = P_{i+1} + P_i for P_n = p_n (x) q_n, in place of the difference
    tops = np.cumsum(tensor_unit(unit, qs).rs, axis=0)
    return PositiveUnit(tops + np.vstack([np.zeros_like(tops[:1]), tops[:-1]]))


def _reversed_qs(unit, qs):
    return tensor_unit(unit, qs[::-1])


def _tall_ramps(unit, qs):
    # divided by its smallest positive entry: a projection keeps its rows,
    # while the tent's ramps rise to 4 and its overlaps to r_i r_{i+1} = 4
    rs = tensor_unit(unit, qs).rs
    return PositiveUnit(rs / rs[rs > 0].min())


@pytest.mark.parametrize(
    "mutant, failures",
    [
        (_halved, ["stable HypA"]),
        (_sign_slip, ["stable HypA", "stable quasi-unitary bound"]),
        (_reversed_qs, ["stable unit: q sequence must be nondecreasing"]),
        (_tall_ramps, ["stable quasi-unitary bound"]),
    ],
    ids=["halved", "sign-slip", "reversed-qs", "tall-ramps"],
)
def test_verify_fails_on_a_wrong_stable_unit(tmp_path, monkeypatch, mutant, failures):
    monkeypatch.setattr(cli, "tensor_unit", mutant)
    out = tmp_path / "v.json"
    assert run(["verify", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failures"] == failures


def _tail_at(call, tail):
    # quasi_unitary_residual with its call-th tail norm set to tail(bound)
    calls = []

    def residual(*args):
        calls.append(args)
        q = quasi_unitary_residual(*args)
        return {**q, "tail_norm": tail(q["bound"])} if len(calls) == call + 1 else q

    return residual


@pytest.mark.parametrize(
    "nan_at, failure",
    [(None, "stratification"), (0, "quasi-unitary bound"), (1, "stable quasi-unitary bound")],
    ids=["residual", "quasi-unitary", "stable-quasi-unitary"],
)
def test_verify_fails_on_a_nan_check_value(tmp_path, monkeypatch, nan_at, failure):
    # a NaN residual or tail norm fails its check, as a NaN union excess does
    if nan_at is None:
        monkeypatch.setattr(DDWitness, "reconstruction_residual", lambda w, m: np.nan)
    else:
        monkeypatch.setattr(cli, "quasi_unitary_residual", _tail_at(nan_at, lambda b: np.nan))
    out = tmp_path / "v.json"
    assert run(["verify", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failures"] == [failure]


# Exit-code contract: every input ends in 0, 1 or 2, never in a traceback.
# Each generated input is well formed or carries one fault.

_ENTRY = st.one_of(
    st.floats(-4, 4).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)).map(str),
)
_BAD_ENTRY = st.sampled_from(["nan", "inf", "-inf", "nanj", "1e400", "", "x", "1 2", "(1+j"])


@st.composite
def _matrix_texts(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    fault = draw(st.sampled_from(["", "", "entry", "row", "ragged"]))
    if fault == "entry":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_BAD_ENTRY)
    elif fault == "row":
        rows.pop()
    elif fault == "ragged":
        rows[-1].pop()
    return "".join(",".join(r) + "\n" for r in rows)


_SMALL = st.integers(-4, 4)
_JSON_ATOM = st.one_of(st.none(), st.booleans(), _SMALL, st.floats(-2, 2), st.text(max_size=3))


def _int_matrix(rows, cols):
    return st.lists(st.lists(_SMALL, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _tower_docs(draw):
    # ranks up to 3, those of the benchmark's seeded torsion towers
    ranks = draw(st.lists(st.integers(0, 3), max_size=3))
    levels = [{"rank": r, "relations": draw(_int_matrix(r, draw(st.integers(0, 2))))}
              for r in ranks]
    bonds = [draw(_int_matrix(ranks[n], ranks[n + 1])) for n in range(len(ranks) - 1)]
    doc = {"levels": levels, "bonds": bonds}
    if ranks and draw(st.booleans()):
        doc["tail"] = {"level": levels[-1], "bond": draw(_int_matrix(ranks[-1], ranks[-1]))}
    matrices = [lv["relations"] for lv in levels] + bonds + [doc.get("tail", {}).get("bond", [])]
    rows = [r for mat in matrices for r in mat]
    fault = draw(st.sampled_from(["", "", "part", "entry", "ragged"]))
    if fault == "part":
        doc[draw(st.sampled_from(["levels", "bonds", "tail"]))] = draw(_JSON_ATOM)
    elif fault == "entry" and any(rows):
        row = draw(st.sampled_from([r for r in rows if r]))
        row[draw(st.integers(0, len(row) - 1))] = draw(_JSON_ATOM)
    elif fault == "ragged" and rows:
        draw(st.sampled_from(rows)).append(0)
    return doc


_JSON_DOCS = st.recursive(
    _JSON_ATOM,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["levels", "bonds", "tail", "rank", "relations",
                                       "level", "bond"]), kids, max_size=3),
    max_leaves=8,
)


def _exit_code(argv):
    code = main(argv)
    assert code in (0, 1, 2)
    return code


_CONTRACT = settings(max_examples=40, deadline=None, derandomize=True)


@_CONTRACT
@given(text=_matrix_texts())
def test_stratify_exit_code_contract(tmp_path_factory, text):
    d = tmp_path_factory.mktemp("stratify")
    (d / "m.txt").write_text(text)
    _exit_code(["stratify", str(d / "m.txt"), "--out", str(d / "w.json")])


@_CONTRACT
@given(doc=st.one_of(_tower_docs(), _JSON_DOCS))
def test_limits_exit_code_contract(tmp_path_factory, doc):
    d = tmp_path_factory.mktemp("limits")
    (d / "t.json").write_text(json.dumps(doc))
    _exit_code(["limits", str(d / "t.json"), "--out", str(d / "l.json")])


@_CONTRACT
@given(samples=st.integers(-5, 3), seed=st.integers(-3, 3))
def test_sandwich_exit_code_contract(tmp_path_factory, samples, seed):
    out = tmp_path_factory.mktemp("sandwich") / "s.csv"
    code = _exit_code(["sandwich", "--samples", str(samples), "--seed", str(seed),
                       "--out", str(out)])
    assert code == (2 if samples < 0 or seed < 0 else 0)


_FAILED_CERTIFICATE = ("coherence failed", "divergence failed", "jump bound failed")


def _usage_exit_code(argv):
    # the exit code of main, or of argparse's SystemExit on a usage error,
    # which writes no --out; exit 1 comes only with a document of what failed
    out = Path(argv[argv.index("--out") + 1])
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert not out.exists()
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), err.getvalue()
    if code == 1:
        doc = json.loads(out.read_text())
        if argv[0] == "tree":
            assert doc.keys() >= {"error", "message"}
            assert any(failed in doc["message"] for failed in _FAILED_CERTIFICATE)
        else:
            assert doc["ok"] is False and doc["failures"]
    return code


_NOT_NUMBERS = st.sampled_from(["", "x", "1e", "0x10"])
_EPSILONS = ["nan", "inf", "-inf", "-0.0", "0", "1e-320", "1e400", "0.05", "0.1", "1.9"]
_J0S = [-1, 0, 10, 2**63, 10**21]


@st.composite
def _flags(draw, **values):
    # a value from each flag's set, and at most one flag given no number
    drawn = {name: str(draw(st.sampled_from(vals))) for name, vals in values.items()}
    word = draw(st.none() | st.tuples(st.sampled_from(sorted(values)), _NOT_NUMBERS))
    if word:
        drawn[word[0]] = word[1]
    return [f"--{name}={value}" for name, value in drawn.items()]


@_CONTRACT
@given(
    flags=_flags(
        depth=[-1, 0, 1, 2, 3, 51, 52, 57, 58, 30000],
        # no horizon that allocates, such as 2^31: those are the 2 GB child tests'
        horizon=[-1, 0, 3, 100, 3000, 2**59, 2**63 - 1, 10**21],
        epsilon=_EPSILONS,
        j0=_J0S,
    ),
    z_variant=st.booleans(),
    expect=st.none(),
)
@example(flags=["--depth=3", "--horizon=3000", f"--j0={2**63}"], z_variant=True, expect=2)
@example(flags=["--depth=1", "--horizon=100", "--epsilon=0"], z_variant=False, expect=1)
@example(flags=["--depth=52", "--horizon=100"], z_variant=False, expect=2)
@example(flags=["--depth=30000", "--horizon=100"], z_variant=False, expect=2)
# a j0 that leaves no window on the sparsest certified level certifies nothing
@example(flags=["--depth=1", "--horizon=35", "--j0=33"], z_variant=False, expect=2)
@example(flags=["--depth=2", "--horizon=20000", "--j0=100000"], z_variant=True, expect=2)
# no diameter exceeds 2, so an eps of 2 or more certifies nothing
@example(flags=["--depth=1", "--horizon=100", "--epsilon=2"], z_variant=False, expect=2)
def test_tree_exit_code_contract(tmp_path_factory, flags, z_variant, expect):
    out = tmp_path_factory.mktemp("tree") / "t.json"
    argv = ["tree", *flags, "--out", str(out)] + ["--z-variant"] * z_variant
    code = _usage_exit_code(argv)
    assert expect is None or code == expect
    if code == 2 and out.exists():
        # a horizon that is too small names one that can be given
        assert json.loads(out.read_text()).get("min_horizon", 0) < 2**59


@_CONTRACT
@given(flags=_flags(seed=[-1, 0, 7, 2**63], epsilon=_EPSILONS, j0=_J0S), expect=st.none())
@example(flags=["--j0=100000"], expect=2)
@example(flags=["--epsilon=2"], expect=2)
# verify runs one configuration: --fast is a usage error
@example(flags=["--fast"], expect=2)
def test_verify_exit_code_contract(tmp_path_factory, flags, expect):
    out = tmp_path_factory.mktemp("verify") / "v.json"
    code = _usage_exit_code(["verify", *flags, "--out", str(out)])
    assert expect is None or code == expect


# The emitter writes what json.dumps(doc, indent=2, sort_keys=True) writes.

_STRINGS = st.text(max_size=5) | st.sampled_from(['"q"', "back\\slash", "\n\t\x00\x1f", "é☃😀"])
_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")])
_FLOAT_RUNS = st.lists(st.tuples(_FLOATS, st.integers(1, 40)), min_size=1, max_size=6).map(
    lambda runs: [x for x, count in runs for _ in range(count)])
# as tree elements carry them: single runs, runs of one item, NaN, ±inf, and
# -0.0 next to 0.0
_RUN_LISTS = st.lists(st.tuples(_FLOATS, st.integers(1, 40)), min_size=0, max_size=6).map(
    lambda runs: RunList(np.array([x for x, _ in runs]), np.array([n for _, n in runs])))
_MIXED = st.lists(st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, None]), max_size=8)
_EMIT_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _STRINGS
    | _FLOAT_RUNS | _RUN_LISTS | _MIXED | st.lists(st.integers(), max_size=5),
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_STRINGS, kids, max_size=4),
    max_leaves=12,
)


# one RunList object at several nesting levels, and one node dict under
# several keys, as tree documents share them
_RUNS = RunList(np.array([1.5, -0.0, 2.0]), np.array([2, 3, 1]))
_NODE = {"horizon": 6, "phases": _RUNS, "tail": "constant"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_EMIT_DOCS)
@example(doc={"runs": [0.0] * 40 + [-0.0] * 40 + [0.0, float("nan")] * 20})
@example(doc={"runs": RunList(np.array([0.0, -0.0, 0.0, float("nan"), float("inf"), -np.inf]),
                              np.array([1, 3, 1, 2, 1, 1]))})
@example(doc=[RunList(np.array([1.5]), np.array([7])), RunList(np.array([1.5]), np.array([1]))])
@example(doc={"a": _RUNS, "b": [_RUNS, {"c": _RUNS}], "d": _RUNS, "e": [[_RUNS]]})
@example(doc={"a": RunList(np.array([]), np.array([], dtype=int))})
@example(doc={"nodes": {"": _NODE, "0": _NODE, "1": dict(_NODE, horizon=6)}, "again": _NODE})
@example(doc={"levels": [[True, 1, 2], [-3, 0, 2**70, -(2**70)], [7], [1, 2.0], [-1, None]]})
@example(doc={"flat": {"x": 1, "y": "z", "n": None}, "nested": {"k": {}, "a": 0.5, "z": []}})
@example(doc={2.5: "x", 1: [True], -4: {}, 0: {"b": 1, "a": 2}})
def test_emit_matches_json_dumps(tmp_path_factory, doc):
    out = tmp_path_factory.mktemp("emit") / "doc.json"
    cli._emit(doc, str(out))
    assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True, default=RunList.tolist) + "\n"


@pytest.mark.parametrize(
    "flags",
    [["--depth", "3", "--horizon", "3000"], ["--depth", "2", "--horizon", "20000", "--z-variant"]],
    ids=["depth3", "depth2-z-variant"],
)
def test_tree_output_matches_json_dumps(tmp_path, monkeypatch, flags):
    docs = []
    emit = cli._emit

    def capture(doc, out):
        docs.append(doc)
        emit(doc, out)

    monkeypatch.setattr(cli, "_emit", capture)
    out = tmp_path / "tree.json"
    assert run(["tree", *flags, "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(
        docs[0], indent=2, sort_keys=True, default=RunList.tolist
    ) + "\n"


@pytest.mark.parametrize(
    "call, past, failures",
    [(0, False, []), (0, True, ["quasi-unitary bound"]),
     (1, False, []), (1, True, ["stable quasi-unitary bound"])],
    ids=["tent-at-bound", "tent-ulp-above", "stable-at-bound", "stable-ulp-above"],
)
def test_verify_quasi_unitary_bound_at_its_edge(tmp_path, monkeypatch, call, past, failures):
    # verify passes tail_norm <= bound + 1e-12 and fails one ulp above it
    def tail(bound):
        edge = bound + 1e-12
        return float(np.nextafter(edge, np.inf)) if past else edge

    monkeypatch.setattr(cli, "quasi_unitary_residual", _tail_at(call, tail))
    out = tmp_path / "v.json"
    assert run(["verify", "--out", str(out)]) == (1 if past else 0)
    assert json.loads(out.read_text())["failures"] == failures


@pytest.mark.parametrize("past", [False, True], ids=["at-slack", "ulp-above"])
def test_verify_union_bound_at_slack(tmp_path, monkeypatch, past):
    # every profile exceeds the union bound by exactly SLACK, which passes,
    # or by one ulp more, which fails on every witness and level
    excess = float(np.nextafter(SLACK, np.inf)) if past else SLACK
    calls = []

    def profile(alpha, X):
        calls.append((alpha, X))
        return excess_profile(excess)

    monkeypatch.setattr(cli, "fx_profile", profile)
    out = tmp_path / "v.json"
    assert run(["verify", "--out", str(out)]) == (1 if past else 0)
    failures = json.loads(out.read_text())["failures"]
    assert calls and len(failures) == (len(calls) if past else 0)
    assert all(f.startswith("union bound ") for f in failures)


def test_verify_runs_hyp_weak_at_eps_0_1(tmp_path, monkeypatch):
    # --epsilon is the tree's tolerance, up to 2; HypWeak reads its own 0.1
    calls = []
    real = cli.hyp_check

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["mode"], bound.arguments["eps"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "hyp_check", spy)
    out = tmp_path / "v.json"
    assert run(["verify", "--epsilon", "1.5", "--j0", "2", "--out", str(out)]) == 0
    assert [eps for mode, eps in calls if mode == "HypWeak"] == [0.1]
