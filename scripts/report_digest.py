#!/usr/bin/env python3
"""Print SHA-256 digests over a fixed grid of 240 audit reports, the verdict digest last.

The grid crosses ten rules (the six built-ins, ``remove-aligned-xy``,
K = 0, ``coherent-projection:sigma`` and ``preferred-basis:xy``), seeds
0-3, the default bases and (xy, sigma), and three evaluations: exact, and
Monte Carlo at 1e5 and at 5 trials.  A change meant to keep every report byte must print the same
first line before and after it.  The next two lines hash the exact and the
Monte Carlo reports apart, so a change meant to move one evaluation's bytes
can show that the other's stayed.  Report floats can differ between CPUs,
so compare report digests taken on one machine.  The last line hashes
the verdict rows alone, one ``P``/``F`` per check (``PPFF``) and report,
which should not depend on the CPU.
"""

import hashlib

import numpy as np

from ifmsim import AuditConfig, audit_rule, builtin_rules, rule_from_name, validate_custom_rule
from ifmsim.states import BASIS_SIGMA, BASIS_XY

RULES = (*builtin_rules(),
         validate_custom_rule(np.diag([0, 1, 1, 0]), name="remove-aligned-xy"),
         validate_custom_rule(np.zeros((4, 4)), name="k-zero"),
         rule_from_name("coherent-projection:sigma"),
         rule_from_name("preferred-basis:xy"))
SEEDS = range(4)
BASES = (AuditConfig().bases, (BASIS_XY, BASIS_SIGMA))
MODES = (("exact", 100_000), ("mc", 100_000), ("mc", 5))


def main() -> None:
    digest, verdicts, count = hashlib.sha256(), hashlib.sha256(), 0
    by_mode = {evaluation: [hashlib.sha256(), 0] for evaluation, _ in MODES}
    for evaluation, trials in MODES:
        for bases in BASES:
            for seed in SEEDS:
                config = AuditConfig(bases=bases, seed=seed, evaluation=evaluation, mc_trials=trials)
                for rule in RULES:
                    report = audit_rule(rule, config)
                    for hashed in (digest, by_mode[evaluation][0]):
                        hashed.update(report.to_json().encode() + b"\n")
                    verdicts.update("".join("PF"[not c.passed] for c in report.checks).encode() + b"\n")
                    count += 1
                    by_mode[evaluation][1] += 1
    print(f"{digest.hexdigest()}  {count} reports")
    for evaluation, (hashed, reports) in by_mode.items():
        print(f"{hashed.hexdigest()}  {reports} {evaluation} reports")
    print(f"{verdicts.hexdigest()}  {count} verdict rows")


if __name__ == "__main__":
    main()
