#!/usr/bin/env python3
"""Apply each committed source mutant to a temporary copy and show that the tests kill it.

Each mutant is ``(name, file, old text, new text)``: ``old`` must appear
exactly once in ``file``.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` of the checkout it sits in to a temporary directory,
runs the unmutated copy once (it must pass), then, per mutant, puts back
the original file, writes the mutant, and runs ``pytest -x`` over the
acceptance, audit, rules and experiments tests with the copy's ``src``
first on the path.  A mutant is killed when that run fails, and the first
failing test is named.  The exit status is 1 when a mutant survives, 2 when
the unmutated copy fails or a mutant's old text is not found once.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AUDIT = "src/ifmsim/audit.py"
RULES = "src/ifmsim/rules.py"

MUTANTS = (
    ("c2-no-fano-transpose", AUDIT,
     "lambda rows: rows._replace(r=rows.r.swapaxes(-1, -2))",
     "lambda rows: rows"),
    ("c4-rotate-no-transpose", AUDIT,
     "rotations @ base.r[index] @ rotations.swapaxes(-1, -2)",
     "rotations @ base.r[index]"),
    ("c3-one-aligned-cell", AUDIT,
     "forms[:, 0] + forms[:, 3]",
     "forms[:, 0]"),
    ("c3-no-survive-floor", AUDIT,
     "side_a.p_scatter < 1.0 - 1e-6",
     "side_a.p_scatter <= 1.0"),
    ("bonferroni-family-of-one", AUDIT,
     "threshold = 1.0 - config.epsilon_mc / family",
     "threshold = 1.0 - config.epsilon_mc"),
    ("pair-verdict-argmin", AUDIT,
     "worst = int(np.argmax(disc))",
     "worst = int(np.argmin(disc))"),
    ("linear-law-no-transpose", RULES,
     "kept = _row_product(inp, operator.T)",
     "kept = _row_product(inp, operator)"),
    ("pair-sides-split-minus-one", AUDIT,
     "(_Fano(*(x[:grid.split] for x in rows)),\n"
     "            grid.map_b(_Fano(*(x[grid.split:] for x in rows))))",
     "(_Fano(*(x[:grid.split - 1] for x in rows)),\n"
     "            grid.map_b(_Fano(*(x[grid.split - 1:] for x in rows))))"),
    ("half-norm-never-rescales", AUDIT,
     "tiny = norm < 1e-140",
     "tiny = norm < 0.0"),
    ("mc-one-cell-agreement-dropped", AUDIT,
     "    p_values[((a + b > 0).sum(axis=1) == 1) & a.any(axis=1) & b.any(axis=1)] = 1.0\n",
     ""),
    ("reaching-widening", AUDIT,
     "upper * (1.0 + 1e-9) >= top * (1.0 - 1e-9)",
     "upper >= top"),
    ("corner-ray-tolerance-1e-3", AUDIT,
     "> 1.0 - 1e-12",
     "> 1.0 - 1e-3"),
)

TESTS = ("tests/test_acceptance.py", "tests/test_audit.py", "tests/test_rules.py",
         "tests/test_experiments.py")


def _pytest(copy: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *TESTS], cwd=copy, env=env, capture_output=True, text=True)


def _outcome(proc: subprocess.CompletedProcess) -> str:
    """The run's summary line, after the first failing test id when one failed."""
    lines = proc.stdout.strip().splitlines()
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    return f"{failed[0]}; {summary}" if failed else summary


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ifmsim-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        originals = {file: (ROOT / file).read_text() for _, file, _, _ in MUTANTS}
        for name, file, old, _ in MUTANTS:
            if originals[file].count(old) != 1:
                print(f"{name}: old text found {originals[file].count(old)} times in {file}")
                return 2

        start = time.perf_counter()
        baseline = _pytest(copy)
        print(f"unmutated  {time.perf_counter() - start:5.1f} s  {_outcome(baseline)}",
              flush=True)
        if baseline.returncode != 0:
            print(baseline.stdout[-2000:])
            return 2

        survivors = []
        for name, file, old, new in MUTANTS:
            (copy / file).write_text(originals[file].replace(old, new))
            start = time.perf_counter()
            proc = _pytest(copy)
            (copy / file).write_text(originals[file])
            killed = proc.returncode != 0
            if not killed:
                survivors.append(name)
            print(f"{'killed' if killed else 'SURVIVED':9}  {time.perf_counter() - start:5.1f} s  "
                  f"{name}: {_outcome(proc)}", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    if survivors:
        print("survived: " + ", ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
