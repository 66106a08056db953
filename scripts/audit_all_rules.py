#!/usr/bin/env python3
"""Audit every built-in rule and print a verdict table.

Only the singlet rule should survive all four checks.  Pass --out DIR to
also write one JSON report per rule.
"""

import argparse
import os

from ifmsim import AuditConfig, ConfigError, audit_rule, builtin_rules


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["exact", "mc"], default="exact")
    parser.add_argument("--trials", type=int, default=100_000,
                        help="Monte Carlo trials per comparison (mc mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="directory for JSON reports")
    args = parser.parse_args()

    try:
        config = AuditConfig(evaluation=args.mode, mc_trials=args.trials, seed=args.seed)
    except ConfigError as exc:
        parser.error(str(exc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    header = f"{'rule':<26} {'overall':<8} " + " ".join(f"{cid.split('_')[0]:<12}" for cid in (
        "C1_", "C2_", "C3_", "C4_"))
    print(header)
    print("-" * len(header))
    for rule in builtin_rules():
        report = audit_rule(rule, config)
        cells = []
        for check in report.checks:
            verdict = "pass" if check.passed else "FAIL"
            cells.append(f"{verdict}({check.metric:.1g})".ljust(12))
        overall = "PASS" if report.overall_pass else "FAIL"
        print(f"{rule.name:<26} {overall:<8} " + " ".join(cells))
        if args.out:
            path = os.path.join(args.out, f"audit-{rule.name.replace(':', '-')}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
    if args.out:
        print(f"\nreports written to {args.out}/")


if __name__ == "__main__":
    main()
