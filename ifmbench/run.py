"""ifmsim benchmark: one workload, one seed, one command.

Run from the root of an ifmsim checkout:

    python3 ifmbench/run.py --workload audit-exact --seed 0 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``audit-exact``  in-process ``audit_rule`` in exact mode over the six built-in
  rules plus the custom rule ``remove-aligned-xy``;
* ``audit-mc``     the same cycle with ``evaluation="mc"``;
* ``cli-session``  cold ``python -m ifmsim.cli`` subprocesses over a fixed mix.

Each workload is a closed loop with one caller, in a fresh worker process
with BLAS/OpenMP threads pinned to 1, measuring the checkout's own ``src``
tree.  Set-up is done three times in fresh workers and reported as the
median; the last worker runs the timed phase.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
End-to-end times are wall times scaled by a calibration kernel timed around
each op and each set-up (``calibrate.py``); the raw values are printed too.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it show every metric with its
unit and sample counts, and the environment.  Exit code 0 means every op
passed the correctness gate, 1 that some op failed it, 2 a usage problem or
a checkout without ``src/ifmsim``, 3 a worker that crashed or hung.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
READY_TIMEOUT_S = 120
PHASE_GRACE_S = 120
IMPORT_PROBES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 25.0)
TAIL_MIN_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    """A worker crashed, hung or spoke out of protocol."""


def worker_env(root: str) -> dict:
    env = workloads.cli_env(root)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def spawn_worker(args, root: str, out_dir: str, go_seconds: float | None):
    """Start one worker; return (set-up seconds, kernel seconds around it, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--root", root,
           "--out-dir", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    kernel_before = calibrate.kernel_s()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise WorkerError(f"worker did not get ready (got {line.strip()!r})")
        kernel = (kernel_before + calibrate.kernel_s()) / 2
        if go_seconds is None:
            proc.communicate("EXIT\n", timeout=PHASE_GRACE_S)
            return setup_s, kernel, None
        out, _ = proc.communicate(f"GO {go_seconds}\n", timeout=go_seconds + PHASE_GRACE_S)
        if proc.returncode != 0 or not out.strip():
            raise WorkerError(f"worker exited with code {proc.returncode}")
        return setup_s, kernel, json.loads(out.strip().splitlines()[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def tail(values: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return 0.0, min(values)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(setups: list[tuple[float, float]], result: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics, with times scaled to the reference speed of calibrate.py."""
    samples = result["samples"]
    raw = [s["s"] for s in samples]
    times = [calibrate.scaled(s["s"], s["kernel_s"]) for s in samples]
    setup_raw = [wall for wall, _ in setups]
    setup_times = [calibrate.scaled(wall, kernel) for wall, kernel in setups]
    failed = sum(1 for s in samples if s["failure"])
    pct, tail_s = tail(times)
    beyond = sum(1 for t in times if t > tail_s)
    speed = statistics.median(s["kernel_s"] for s in samples) / calibrate.REFERENCE_S
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ops_ok_frac": ((len(samples) - failed) / len(samples), "frac"),
    }
    notes = [
        f"times are scaled to the reference speed of calibrate.py; this run's kernel took "
        f"{speed:.3f}x the reference time",
        f"setup_s: median of {len(setup_times)} fresh workers; raw wall "
        f"{[round(s, 4) for s in setup_raw]}",
        f"op_s.p50: n={len(times)}; raw wall median {statistics.median(raw):.6g} s",
        f"op_s.tail: p{pct:g}, n={len(times)}, samples beyond={beyond}; "
        f"raw wall p{pct:g} {tail(raw)[1]:.6g} s",
        f"ops_per_s: raw wall {len(raw) / sum(raw):.6g} 1/s",
        f"ops_failed_frac: {failed / len(samples):.6g} ({failed} failed of {len(samples)} ops)",
    ]
    return metrics, notes


def cli_import_probes(root: str) -> dict:
    """Fresh-interpreter ``import ifmsim.cli`` and its cumulative scipy import time."""
    env = worker_env(root)
    timer = ("import time; t = time.perf_counter(); import ifmsim.cli; "
             "print(time.perf_counter() - t)")
    import_s, scipy_s = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", timer], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        import_s.append(float(proc.stdout.strip()))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ifmsim.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        scipy_s.append(scipy_import_s(proc.stderr))
    return {"cli.import_s": statistics.median(import_s),
            "cli.import_scipy_s": statistics.median(scipy_s)}


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def scipy_import_s(importtime_log: str) -> float:
    """Sum of cumulative times of scipy modules not imported by another scipy module."""
    rows = [m.groups() for m in map(_IMPORTTIME.match, importtime_log.splitlines()) if m]
    total_us = 0
    ancestors: list[str] = []
    for _, cumulative, indent, name in reversed(rows):  # parents come first when reversed
        depth = len(indent) // 2
        ancestors = ancestors[:depth] + [name]
        in_scipy = [a.split(".")[0] == "scipy" for a in ancestors]
        if in_scipy[-1] and not any(in_scipy[:-1]):
            total_us += int(cumulative)
    return total_us / 1e6


def per_layer_metrics(result: dict, root: str) -> tuple[dict, list[str]]:
    layers = dict(result["layers"])
    layers.update(cli_import_probes(root))
    untraced, traced = result["samples"], result["traced_samples"]
    for label in dict.fromkeys(s["op"] for s in untraced):
        key = f"cli.cmd.{label}.wall_s"
        if key in PER_LAYER_UNITS:
            layers[key] = statistics.median(s["s"] for s in untraced if s["op"] == label)
    for key in PER_LAYER_UNITS:
        layers.setdefault(key, 0.0)
    plain = statistics.median(s["s"] for s in untraced)
    layers["trace.overhead_frac"] = statistics.median(s["s"] for s in traced) / plain - 1.0
    metrics = {key: (layers[key], PER_LAYER_UNITS[key]) for key in PER_LAYER_UNITS}
    notes = [
        f"per-layer values are per op cycle of {len(untraced) // result['cycles']} ops, "
        f"over {result['cycles']} traced cycles; spans in {result['spans_path']}",
        f"trace.overhead_frac: {len(traced)} traced vs {len(untraced)} untraced ops",
        "experiments.mc_block_mb is computed from the inputs (trials x k x 8 bytes), not measured",
        "a layer a workload does not reach reports 0",
    ]
    return metrics, notes


def load_benchmark_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


SPEC = load_benchmark_spec()
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def environment(root: str) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    def git(*cmd):
        if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
            return None
        proc = subprocess.run(["git", *cmd], cwd=root, capture_output=True, text=True,
                              timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None

    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        try:
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                caches[f"L{level}"] = fh.read().strip()
        except OSError:
            continue
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input to self-test the harness")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="expect a wrong singlet verdict to self-test the gate")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ifmsim", "__init__.py")):
        print(f"error: {root} is not an ifmsim checkout (no src/ifmsim)", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".ifmbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    setups = []
    try:
        repeats = 1 if args.trace or args.tiny else SETUP_REPEATS
        for _ in range(repeats - 1):
            setups.append(spawn_worker(args, root, out_dir, None)[:2])
        setup_s, kernel, result = spawn_worker(args, root, out_dir, args.seconds)
        setups.append((setup_s, kernel))
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3

    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setups, **result}, fh)
    if args.trace:
        metrics, notes = per_layer_metrics(result, root)
        samples = result["samples"] + result["traced_samples"]
    else:
        metrics, notes = end_to_end(setups, result)
        samples = result["samples"]
    failures = [s for s in samples if s["failure"]]

    print(f"ifmbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(root)))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for failure in failures[:5]:
        print(f"  FAILED {failure['op']}: {failure['failure']}")
    summary = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
