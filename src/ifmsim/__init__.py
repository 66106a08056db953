"""Two-qubit interaction-free coupling simulator and non-interaction rule audit.

The package root exports the entry points of the command line, the example
scripts and the benchmark; every other helper is imported from its module
(``ifmsim.states``, ``ifmsim.rules``, ``ifmsim.experiments``, ``ifmsim.audit``).
``import ifmsim`` loads none of those modules: each exported name is read from
its home module on first use (PEP 562) and kept here, so ``from ifmsim import
audit_rule`` loads ``ifmsim.audit`` and a command that never audits does not.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "audit": ("AuditConfig", "AuditReport", "audit_rule", "tvd"),
    "experiments": ("ConfigError", "FilterConfig", "run_correlation", "run_correlation_mc",
                    "run_filter", "run_filter_exact", "run_flip", "run_flip_mc"),
    "rules": ("InvalidRuleError", "builtin_rules", "contraction_slack", "coupling_channel",
              "load_rule_file", "rule_from_name", "singlet_rule", "validate_custom_rule"),
    "states": ("BASIS_SIGMA", "STATE_X", "STATE_Y", "parse_basis_spec", "parse_state_spec",
               "state_label"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
