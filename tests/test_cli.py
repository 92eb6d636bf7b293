import json

import numpy as np
import pytest

from corona_lab.cli import main
from corona_lab.limits import constant_tower, free_group, tower_to_json
from corona_lab.operators import save_matrix


def run(argv):
    return main(argv)


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
    [["--j0", "-5"], ["--epsilon", "nan"], ["--depth", "-1"]],
    ids=["negative-j0", "nan-epsilon", "negative-depth"],
)
def test_tree_invalid_input(tmp_path, flags):
    out = tmp_path / "tree.json"
    assert run(["tree", "--horizon", "3000", *flags, "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"] == "PreconditionViolation"


def test_tree_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["tree", "--depth", "1", "--horizon", "3000", "--seed", "7", "--out", str(a)])
    run(["tree", "--depth", "1", "--horizon", "3000", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_stratify(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    m /= np.linalg.norm(m, 2)
    mat = tmp_path / "m.txt"
    save_matrix(mat, m)
    out = tmp_path / "w.json"
    code = run(["stratify", str(mat), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dd_exact"] and doc["tail_bounds_ok"]
    assert doc["reconstruction_residual"] <= 1e-12
    assert set(doc["parts"]) == {"m_e", "m_o", "a"}


def test_stratify_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not,a,matrix\n")
    assert run(["stratify", str(bad), "--out", str(tmp_path / "o.json")]) == 2


def test_sandwich_blocks(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sandwich", "--samples", "15", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,lower,sampled,two_delta,ok"
    assert len(lines) == 16


def test_sandwich_tent_and_self_test(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sandwich", "--samples", "4", "--model", "tent", "--out", str(out)]) == 0
    assert run(["sandwich", "--samples", "2", "--self-test", "--out", str(out)]) == 1


def test_limits_paper_model(tmp_path):
    out = tmp_path / "l.json"
    assert run(["limits", "--paper-model", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["six_term"]["lim1_F"] == "Nonzero"
    assert doc["flasque_T"]


def test_limits_tower_file(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(tower_to_json(constant_tower(free_group(1), 4)))
    out = tmp_path / "l.json"
    assert run(["limits", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["lim1"]["verdict"] == "Zero" and doc["flasque"]


def test_limits_invalid_tower(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"levels": [{"rank": 1, "relations": [[4]]}, '
                    '{"rank": 1, "relations": [[2]]}], "bonds": [[[1]]]}')
    assert run(["limits", str(path), "--out", str(tmp_path / "l.json")]) == 2
    assert run(["limits", "--out", str(tmp_path / "l2.json")]) == 2


def test_env_seed_override(tmp_path, monkeypatch):
    out = tmp_path / "v.json"
    monkeypatch.setenv("CORONA_LAB_SEED", "123")
    run(["sandwich", "--samples", "2", "--seed", "0", "--out", str(out)])
    # determinism under the env seed: repeating gives identical bytes
    out2 = tmp_path / "v2.json"
    run(["sandwich", "--samples", "2", "--seed", "55", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("CORONA_LAB_SEED", "notanint")
    assert run(["sandwich", "--samples", "1", "--out", str(out)]) == 2


def test_verify_fast(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--fast", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] and doc["failures"] == []
