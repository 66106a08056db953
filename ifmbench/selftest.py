"""Harness self-test at tiny sizes.

Run from the root of an ifmsim checkout: ``python3 ifmbench/selftest.py``.
It checks that every workload of ``BENCHMARK.json`` emits every end-to-end
and per-layer metric with its unit and passes the correctness gate, that a
deliberately wrong reference verdict is counted as a failed op, and that a
directory without the package makes the benchmark fail without a result.
Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def bench(*args, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def tiny(workload: str, trace: int, *extra) -> tuple[int, list[str], dict]:
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny", *extra)
    assert lines, f"{workload} trace={trace}: no output (exit {code})"
    return code, lines, json.loads(lines[-1])


def check_emits_every_metric(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = tiny(workload, trace)
            assert code == 0, f"{workload} trace={trace}: exit {code}: {lines[-6:]}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace={trace}: {set(got) ^ set(wanted)}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
                shown = [ln.split() for ln in lines[:-1]]
                assert [name, metric["unit"]] in [[r[0], r[-1]] for r in shown if r], name
            print(f"ok   {workload:<12} trace={trace}: {len(wanted)} metrics with units")


def check_wrong_reference_counts() -> None:
    code, lines, result = tiny("audit-exact", 0, "--corrupt-reference")
    singlet_ops = result["attempted"] // 7
    assert code == 1, f"corrupted reference: exit {code}, expected 1"
    assert result["correct"] is False, result
    assert result["failed"] == singlet_ops >= 1, result
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0, result
    expect = f"ops_failed_frac: {singlet_ops / result['attempted']:.6g}"
    assert any(expect in line for line in lines), lines
    print(f"ok   wrong reference verdict: {result['failed']} of {result['attempted']} ops failed")


def check_bare_directory_fails() -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".ifmbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "ifmbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "audit-exact", "--seed", "0", "--seconds", "1",
                            "--trace", "0", cwd=bare)
        assert code != 0 and not lines, (code, lines)
    finally:
        shutil.rmtree(bare)
    print(f"ok   directory without src/ifmsim: exit {code}, no result")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".ifmbench_out"), exist_ok=True)
    check_bare_directory_fails()
    check_wrong_reference_counts()
    check_emits_every_metric(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
