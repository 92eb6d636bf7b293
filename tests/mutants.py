"""Mutation checks: does ``corona-lab verify`` or the Tier-1 suite fail
when a check of the package is loosened or shifted?

Each mutant is (name, file, old text, new text), and its old text must
occur exactly once in the file.  Each runs on its own copy of the
repository under a temporary directory: ``corona-lab verify --seed 0``,
then the Tier-1 suite.  The script prints a kill table, about a minute per
mutant.  pytest does not collect this file.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # the four that verify --seed 0 passed before it had a negative control
    ("tail bound 2^(5-i)", "src/corona_lab/operators.py", "2.0 ** (4 - i)", "2.0 ** (5 - i)"),
    ("DIVERGENCE_TOL 0.5", "src/corona_lab/tree.py",
     "DIVERGENCE_TOL = 1e-9", "DIVERGENCE_TOL = 0.5"),
    ("HypWeak 1 - 2 eps", "src/corona_lab/weak_units.py",
     "M[:, None, :], 1.0 - eps", "M[:, None, :], 1.0 - 2 * eps"),
    ("in_fx from j0 + 1", "src/corona_lab/partitions.py",
     "np.searchsorted(j, j0)", "np.searchsorted(j, j0 + 1)"),
    # the verdict record itself
    ("record < for <=", "src/corona_lab/verdicts.py",
     '"<=": (operator.le, 1.0)', '"<=": (operator.lt, 1.0)'),
    ("record slack dropped", "src/corona_lab/verdicts.py",
     "self.bound + sign * self.slack", "self.bound"),
    ("record NaN holds", "src/corona_lab/verdicts.py",
     "return bool(self.passes())", "return bool(self.passes()) or self.value != self.value"),
]

_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"
)


def mutated(repo: Path, path: str, old: str, new: str) -> str:
    """The text of ``repo / path`` with ``old``, which must occur once, as ``new``."""
    text = (repo / path).read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def run_mutant(path: str, old: str, new: str) -> tuple:
    """(verify's result, Tier-1's result) on a mutated copy, as text."""
    with tempfile.TemporaryDirectory(prefix="corona-mutant-") as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=_COPY_IGNORE)
        (repo / path).write_text(mutated(repo, path, old, new))
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        verify = subprocess.run(
            [sys.executable, "-m", "corona_lab.cli", "verify", "--seed", "0",
             "--out", str(Path(tmp) / "v.json")],
            cwd=repo, env=env, capture_output=True, text=True,
        )
        tier1 = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=repo, env=env, capture_output=True, text=True,
        )
    failed = re.search(r"(\d+) (failed|error)", tier1.stdout)
    verdict = "passes" if verify.returncode == 0 else "killed"
    return (
        f"{verdict} (exit {verify.returncode})",
        f"killed ({failed.group(0) if failed else tier1.returncode})" if tier1.returncode
        else "passes",
    )


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no mutant named {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    for _, path, old, new in chosen:  # refuse a bad mutant before running any
        mutated(ROOT, path, old, new)
    rows = [("mutant", "verify --seed 0", "Tier-1")]
    for name, path, old, new in chosen:
        rows.append((name, *run_mutant(path, old, new)))
        print(" | ".join(rows[-1]), file=sys.stderr, flush=True)
    width = [max(len(r[i]) for r in rows) for i in range(3)]
    rows.insert(1, ["-" * w for w in width])
    for row in rows:
        print("| " + " | ".join(cell.ljust(w) for cell, w in zip(row, width)) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
