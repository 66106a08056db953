#!/usr/bin/env python3
"""Mode-distinguishability tables for the filter device.

For each built-in rule and each role assignment, run the device in both
source modes and report the detector statistics and their separation.
The two modes share one density matrix, so any nonzero separation means
the rule lets the device tell identically-prepared ensembles apart.
"""

import argparse

from ifmsim import ConfigError, FilterConfig, builtin_rules, run_filter_exact, tvd


def describe(dist) -> str:
    p = dist.probabilities()
    return f"(clicks {p[0]:.4f}/{p[1]:.4f}, scatter {p[2]:.4f})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--noise-q", type=float, default=0.0, help="fly-by probability")
    args = parser.parse_args()

    try:
        runs = [(rule, swapped, [FilterConfig(rule=rule, source_mode=mode, noise_q=args.noise_q,
                                              swapped_roles=swapped) for mode in (1, 2)])
                for rule in builtin_rules() for swapped in (False, True)]
    except ConfigError as exc:
        parser.error(str(exc))

    for rule, swapped, (mode1, mode2) in runs:
        if not swapped:
            print(f"\n=== {rule.name} (q={args.noise_q:g}) ===")
        role = "swapped" if swapped else "normal "
        d1, d2 = run_filter_exact(mode1), run_filter_exact(mode2)
        separation = tvd(d1.probabilities(), d2.probabilities())
        verdict = "indistinguishable" if separation < 1e-9 else "DISTINGUISHABLE"
        print(f"  roles={role}  mode1 {describe(d1)}  mode2 {describe(d2)}"
              f"  tvd={separation:.4f}  -> {verdict}")


if __name__ == "__main__":
    main()
