"""Two-qubit interaction-free coupling simulator and non-interaction rule audit.

The package root exports the entry points of the command line, the example
scripts and the benchmark; every other helper is imported from its module
(``ifmsim.states``, ``ifmsim.rules``, ``ifmsim.experiments``, ``ifmsim.audit``).
"""

from .audit import AuditConfig, AuditReport, audit_rule, tvd
from .experiments import (
    ConfigError,
    FilterConfig,
    run_correlation,
    run_correlation_mc,
    run_filter,
    run_filter_exact,
    run_flip,
    run_flip_mc,
)
from .rules import (
    InvalidRuleError,
    builtin_rules,
    contraction_slack,
    coupling_channel,
    load_rule_file,
    rule_description,
    rule_from_name,
    singlet_rule,
    validate_custom_rule,
)
from .states import (
    BASIS_SIGMA,
    STATE_X,
    STATE_Y,
    parse_basis_spec,
    parse_state_spec,
    state_label,
)

__version__ = "0.1.0"
