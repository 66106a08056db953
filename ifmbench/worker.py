"""One benchmark worker: set up one workload, then run its timed phase.

Protocol with ``run.py`` over stdin/stdout: after set-up (imports, inputs,
the custom-rule file and one untimed warm-up op) the worker prints
``READY`` and reads one line.  ``EXIT`` ends it there, which is how set-up
is repeated; ``GO <seconds>`` starts the timed phase, after which it prints
one JSON line with the raw samples.

The timed phase runs whole op cycles, at least two and then until at least
``seconds`` have passed, so every rule or command of the cycle has the same
weight and the op count does not hinge on a cycle ending near the deadline.
In a traced run each op runs twice in a row, once with the span wrappers
installed and once without, in alternating order, for at least one cycle;
per-layer metrics come from the traced twins and are reported per cycle.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import calibrate
import tracing
import workloads

MIN_CYCLES = 2


def run_op(op, recorder=None) -> dict:
    """Run and time one op, then apply its gate outside the timed region."""
    failure = None
    start = time.perf_counter()
    try:
        if recorder is None:
            result = op.run(None)
        else:
            result = recorder.call(f"op.{op.label}", op.run, (recorder,))
    except Exception:  # an op that raises is a failed op, not a crashed run
        failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
    duration = time.perf_counter() - start
    if failure is None:
        try:
            op.check(result)
        except workloads.GateError as exc:
            failure = str(exc)
    return {"op": op.label, "s": duration, "failure": failure}


def timed_phase(ops, seconds: float) -> dict:
    """Each sample carries the mean calibration-kernel time around its op."""
    samples = []
    cycles = 0
    before = calibrate.kernel_s()
    start = time.perf_counter()
    while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
        for op in ops:
            sample = run_op(op)
            after = calibrate.kernel_s()
            sample["kernel_s"] = (before + after) / 2
            before = after
            samples.append(sample)
        cycles += 1
    return {"samples": samples}


def traced_phase(ops, seconds: float, spans_path: str) -> dict:
    recorder = tracing.Recorder()
    samples, traced = [], []
    cycles = 0
    start = time.perf_counter()
    while cycles < 1 or time.perf_counter() - start < seconds:
        for op in ops:
            for with_trace in ((False, True) if cycles % 2 == 0 else (True, False)):
                if with_trace:
                    restore = recorder.install()
                    try:
                        traced.append(run_op(op, recorder))
                    finally:
                        restore()
                else:
                    samples.append(run_op(op))
        cycles += 1
    recorder.write(spans_path)
    return {
        "samples": samples,
        "traced_samples": traced,
        "cycles": cycles,
        "layers": tracing.per_layer(recorder.spans, cycles),
    }


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this worker, or of its largest child for the CLI workload."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    import ifmsim  # noqa: F401  (set-up covers the package import)

    ctx = workloads.Context(args.root, args.out_dir, args.seed, args.tiny, args.corrupt_reference)
    ops, warm_up = workloads.build(args.workload, ctx)
    warm_up()
    print("READY", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "GO":
        return
    seconds = float(command[1])
    if args.trace:
        spans_path = os.path.join(args.out_dir, "spans.jsonl")
        result = traced_phase(ops, seconds, spans_path)
        result["spans_path"] = spans_path
    else:
        result = timed_phase(ops, seconds)
    result["peak_rss_mb"] = peak_rss_mb(args.workload)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
