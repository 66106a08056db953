"""The three benchmark workloads: their inputs, their ops and the correctness gate.

Every workload is a fixed cycle of ops run round-robin by one caller.  An op
is a callable ``run(recorder)`` returning a result, plus ``check(result)``,
which raises ``GateError`` when the result is wrong.  ``build`` returns the
ops and the untimed warm-up op that set-up ends with.  ``recorder`` is None in
untraced runs; in-process ops are traced through installed wrappers and
ignore it, CLI ops use it to run the traced entry shim instead of
``python -m ifmsim.cli``.

The package receives only what the workload seed generates: the audit seed,
the CLI ``--seed`` and probe/object states spelled as Bloch angles.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

import tracing

WORKLOADS = ("audit-exact", "audit-mc", "cli-session")

CUSTOM_NAME = "remove-aligned-xy"
CUSTOM_DIAGONAL = (0.0, 1.0, 1.0, 0.0)

# C1-C4 verdicts pinned by tests/test_acceptance.py; checks added later are ignored.
CHECK_ORDER = (
    "C1_indistinguishability",
    "C2_role_symmetry",
    "C3_anti_alignment",
    "C4_basis_covariance",
)
EXPECTED_VERDICTS = {
    "probe-rigid": "FFFP",
    "object-rigid": "FFFP",
    "singlet": "PPPP",
    "random-mix": "PPFP",
    "preferred-basis:sigma": "PPFF",
    "coherent-projection:xy": "PPFF",
    CUSTOM_NAME: "PPFF",
}
# The verdict that a reference-corruption self-test expects instead for singlet.
CORRUPTED_SINGLET = "FPPP"

# Full sizes are the package defaults; tiny sizes serve the harness self-test.
AUDIT_SIZES = {
    False: {},
    True: {"input_samples": 6, "unitary_samples": 3, "mc_trials": 20_000,
           "mc_input_samples": 2, "mc_unitary_samples": 1},
}
# The audit-mc warm-up runs the first rule at this many trials: it takes every
# code path of a timed op, without adding a full op to each set-up.
MC_WARM_UP_TRIALS = 10_000
CLI_TRIALS = {False: 2_000_000, True: 20_000}
CLI_TIMEOUT_S = 120
EXACT_ATOL = 1e-12


class GateError(Exception):
    """An op returned a wrong result."""


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable


@dataclass
class Context:
    """Where a workload runs and what it was given."""

    root: str
    out_dir: str
    seed: int
    tiny: bool
    corrupt_reference: bool


def expected_verdicts(ctx: Context) -> dict[str, str]:
    table = dict(EXPECTED_VERDICTS)
    if ctx.corrupt_reference:
        table["singlet"] = CORRUPTED_SINGLET
    return table


def write_custom_rule(ctx: Context) -> str:
    """Write the README's custom rule K = diag(0, 1, 1, 0) as a rule file."""
    rows = [[[d if r == c else 0.0, 0.0] for c in range(4)] for r, d in enumerate(CUSTOM_DIAGONAL)]
    path = os.path.join(ctx.out_dir, f"{CUSTOM_NAME}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": CUSTOM_NAME, "survive_operator": rows}, fh)
    return path


class _FirstSeen:
    """Byte-identity against the first occurrence of a key within the run."""

    def __init__(self):
        self._first: dict = {}

    def check(self, key, text: str) -> None:
        first = self._first.setdefault(key, text)
        if text != first:
            raise GateError(f"output of {key!r} differs from its first occurrence in this run")


def _check_verdicts(report, rule_name: str, expected: str) -> None:
    got = {c.check_id: c.passed for c in report.checks}
    for check_id, want in zip(CHECK_ORDER, expected):
        if check_id not in got:
            raise GateError(f"{rule_name}: report lacks {check_id}")
        if got[check_id] != (want == "P"):
            verdict = "pass" if got[check_id] else "fail"
            raise GateError(f"{rule_name}: {check_id} gave {verdict}, expected {want}")
    if report.rule_name != rule_name:
        raise GateError(f"report names rule {report.rule_name!r}, expected {rule_name!r}")
    if bool(report.overall_pass) != (rule_name == "singlet"):
        raise GateError(f"{rule_name}: overall_pass={report.overall_pass}; only singlet passes")


def audit_workload(ctx: Context, evaluation: str):
    """One op is one in-process ``audit_rule`` call; the cycle is the seven rules."""
    import ifmsim.audit
    import ifmsim.rules
    import numpy as np

    write_custom_rule(ctx)
    custom = ifmsim.rules.validate_custom_rule(np.diag(CUSTOM_DIAGONAL), name=CUSTOM_NAME)
    rules = list(ifmsim.rules.builtin_rules()) + [custom]
    config = ifmsim.audit.AuditConfig(
        seed=ctx.seed, evaluation=evaluation, **AUDIT_SIZES[ctx.tiny]
    )
    table = expected_verdicts(ctx)
    first = _FirstSeen()

    def make(rule):
        def run(recorder):
            return ifmsim.audit.audit_rule(rule, config)

        def check(report):
            _check_verdicts(report, rule.name, table[rule.name])
            first.check((rule.name, evaluation, ctx.seed), report.to_json())

        return Op(rule.name, run, check)

    def warm_up():
        warm_config = config
        if evaluation == "mc":
            warm_config = replace(config, mc_trials=min(config.mc_trials, MC_WARM_UP_TRIALS))
        ifmsim.audit.audit_rule(rules[0], warm_config)

    return [make(rule) for rule in rules], warm_up


def _bloch_spelling(rng: random.Random) -> str:
    """A uniformly drawn state spelled as Bloch angles ``theta,phi``."""
    theta = math.acos(2.0 * rng.random() - 1.0)
    phi = 2.0 * math.pi * rng.random()
    return f"{theta!r},{phi!r}"


def cli_env(root: str) -> dict:
    """Environment for CLI children: the measured tree's ``src`` first on the path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("IFM_SEED", None)
    return env


def cli_workload(ctx: Context):
    """One op is one cold ``python -m ifmsim.cli`` invocation from a fixed mix."""
    import ifmsim.experiments
    import ifmsim.rules
    import ifmsim.states

    custom_path = write_custom_rule(ctx)
    rng = random.Random(ctx.seed)
    rule_names = [r.name for r in ifmsim.rules.builtin_rules()] + [CUSTOM_NAME]
    filter_rule = rule_names[rng.randrange(len(rule_names))]
    filter_rule_arg = custom_path if filter_rule == CUSTOM_NAME else filter_rule
    object_state = _bloch_spelling(rng)
    probe_state = _bloch_spelling(rng)
    partner_state = _bloch_spelling(rng)
    trials = CLI_TRIALS[ctx.tiny]
    seed = str(ctx.seed)
    report_path = os.path.join(ctx.out_dir, "singlet-report.json")
    env = cli_env(ctx.root)
    shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
    spans_path = os.path.join(ctx.out_dir, "cli-spans.jsonl")
    audit_args = ["audit", "--rule", "singlet", "--seed", seed, "--report", report_path]
    if ctx.tiny:
        audit_config = os.path.join(ctx.out_dir, "tiny-audit.json")
        with open(audit_config, "w", encoding="utf-8") as fh:
            json.dump({k: v for k, v in AUDIT_SIZES[True].items() if "mc" not in k}, fh)
        audit_args += ["--config", audit_config]
    first = _FirstSeen()

    filter_cfg = ifmsim.experiments.FilterConfig(
        rule=ifmsim.rules.load_rule_file(custom_path)
        if filter_rule == CUSTOM_NAME
        else ifmsim.rules.rule_from_name(filter_rule),
        object_state=ifmsim.states.parse_state_spec(object_state),
    )
    reference = ifmsim.experiments.run_filter_exact(filter_cfg)

    def invoke(args, recorder):
        if recorder is None:
            cmd = [sys.executable, "-m", "ifmsim.cli", *args]
        else:
            cmd = [sys.executable, shim, spans_path, *args]
        proc = subprocess.run(cmd, cwd=ctx.root, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if recorder is not None:
            recorder.merge(tracing.read_spans(spans_path), recorder.current())
            os.unlink(spans_path)
        return proc

    def ok_stdout(label, proc):
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise GateError(f"{label}: exit code {proc.returncode}: {tail[0]}")
        first.check(label, proc.stdout)
        return proc.stdout

    def parse(label, proc):
        try:
            return json.loads(ok_stdout(label, proc))
        except json.JSONDecodeError as exc:
            raise GateError(f"{label}: output is not JSON: {exc}") from None

    def check_list(proc):
        names = {line.split()[0] for line in ok_stdout("rules-list", proc).splitlines() if line.strip()}
        missing = [n for n in rule_names[:-1] if n not in names]
        if missing:
            raise GateError(f"rules-list: missing {missing}")

    def check_validate(proc):
        if not ok_stdout("rules-validate", proc).startswith(f"OK {CUSTOM_NAME}:"):
            raise GateError("rules-validate: no OK line")

    def check_filter_exact(proc):
        dist = parse("run-filter-exact", proc)["distribution"]
        want = reference.to_dict()
        for key in ("p_click_b1", "p_click_b2", "p_scatter"):
            if abs(dist[key] - want[key]) > EXACT_ATOL:
                raise GateError(f"run-filter-exact: {key}={dist[key]!r}, in-process {want[key]!r}")
        got_c, want_c = dist["conditional_on_survival"], want["conditional_on_survival"]
        if (got_c is None) != (want_c is None) or (
            got_c is not None and max(abs(a - b) for a, b in zip(got_c, want_c)) > EXACT_ATOL
        ):
            raise GateError(f"run-filter-exact: conditional {got_c!r}, in-process {want_c!r}")

    def check_filter_mc(proc):
        dist = parse("run-filter-mc", proc)["distribution"]
        if dist["trials"] != trials or sum(dist["counts"]) != trials:
            raise GateError(f"run-filter-mc: counts {dist['counts']} do not sum to {trials}")

    def check_correlate(proc):
        result = parse("run-correlate-mc", proc)["result"]
        counts, survivors = result["counts"], result["survivors"]
        if result["trials"] != trials or sum(counts) != survivors or not 0 < survivors <= trials:
            raise GateError(f"run-correlate-mc: counts {counts}, survivors {survivors}, "
                            f"trials {result['trials']}")

    def check_flip(proc):
        payload = parse("run-flip-mc", proc)
        counts = payload["counts"]
        if payload["trials"] != trials or not 0 < sum(counts) <= trials:
            raise GateError(f"run-flip-mc: counts {counts} for {payload['trials']} trials")

    def check_audit(proc):
        doc = parse("audit-singlet", proc)
        with open(report_path, encoding="utf-8") as fh:
            written = fh.read()
        if written != proc.stdout:
            raise GateError("audit-singlet: --report file differs from stdout")
        verdicts = {c["check_id"]: c["passed"] for c in doc["checks"]}
        if not doc["overall_pass"] or not all(verdicts.get(c) for c in CHECK_ORDER):
            raise GateError(f"audit-singlet: singlet report does not pass: {verdicts}")

    mc = ["--mode", "mc", "--trials", str(trials), "--seed", seed]
    mix = [
        ("rules-list", ["rules", "list"], check_list),
        ("rules-validate", ["rules", "validate", custom_path], check_validate),
        ("run-filter-exact", ["run", "filter", "--rule", filter_rule_arg,
                              "--object-state", object_state, "--mode", "exact"],
         check_filter_exact),
        ("run-filter-mc", ["run", "filter", "--rule", filter_rule_arg,
                           "--object-state", object_state, *mc], check_filter_mc),
        ("run-correlate-mc", ["run", "correlate", "--rule", "singlet", "--probe-state",
                              probe_state, "--object-state", partner_state, *mc],
         check_correlate),
        ("run-flip-mc", ["run", "flip", "--rule", "singlet", "--probe-state", probe_state,
                         "--object-state", partner_state, *mc], check_flip),
        ("audit-singlet", audit_args, check_audit),
    ]
    ops = [
        Op(label, lambda recorder, args=args: invoke(args, recorder), check)
        for label, args, check in mix
    ]
    return ops, lambda: ops[0].run(None)


def build(name: str, ctx: Context):
    if name == "audit-exact":
        return audit_workload(ctx, "exact")
    if name == "audit-mc":
        return audit_workload(ctx, "mc")
    if name == "cli-session":
        return cli_workload(ctx)
    raise ValueError(f"unknown workload {name!r}")
