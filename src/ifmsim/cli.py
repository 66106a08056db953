"""Command-line front end: run experiments, audit rules, emit reports.

Exit codes: 0 for success (a rule failing its audit is a result, not an
error), 2 for usage or validation problems, 3 for internal errors.
Reports carry no timestamps, so identical invocations with identical
seeds produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
from dataclasses import fields

import click
import numpy as np
from click.core import ParameterSource

from .audit import AuditConfig, AuditReport, audit_rule
from .experiments import (
    ConfigError,
    FilterConfig,
    json_fits,
    run_correlation,
    run_correlation_mc,
    run_filter,
    run_flip,
    run_flip_mc,
)
from .rules import (
    InvalidRuleError,
    builtin_rules,
    contraction_slack,
    load_rule_file,
    rule_description,
    rule_from_name,
)
from .states import parse_basis_spec, parse_state_spec, state_label


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (click.ClickException, click.exceptions.Abort, SystemExit):
            raise
        except ValueError as exc:  # every validation error of the package is one
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:  # pragma: no cover - defensive catch-all
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _resolve_rule(text: str):
    """A rule spelling is a built-in name or a path to a custom-rule file."""
    if os.path.exists(text):
        return load_rule_file(text)
    try:
        return rule_from_name(text)
    except InvalidRuleError:
        if os.sep in text or text.endswith(".json"):
            raise InvalidRuleError(f"rule file {text!r} not found") from None
        raise


def _write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file so partial output is never left behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ifmsim-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config_doc(path: str | None, allowed: dict, what: str) -> dict:
    """The JSON config at ``path``, or {}; ``allowed`` maps its keys to field annotations."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} config must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown {what} config keys: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    for key, value in doc.items():
        if not json_fits(allowed[key], value):
            raise ConfigError(
                f"{what} config key {key!r}: expected {allowed[key]}, got {json.dumps(value)}"
            )
    return doc


# Config keys spelled as text.  They are parsed in this order, the rule first and
# then in field order, so the first bad spelling is the one reported.
_PARSERS = {
    "rule": _resolve_rule,
    "bases": lambda labels: tuple(parse_basis_spec(label) for label in labels),
    "source_basis": parse_basis_spec,
    "object_state": parse_state_spec,
    "analyzer_basis": parse_basis_spec,
}


def _config_values(ctx, config_cls, what: str) -> dict:
    """The rule and the ``config_cls`` fields set for ``ctx``'s command, text spellings parsed.

    Each flag is named after the config key it sets.  A flag given on the
    command line or through its environment variable wins, then the
    ``--config`` file; a key neither sets is left out, so its config
    default applies.
    """
    allowed = {"rule": "Rule"} | {f.name: f.type for f in fields(config_cls)}
    values = _load_config_doc(ctx.params["config_path"], allowed, what)
    for key, value in ctx.params.items():
        if key in allowed and ctx.get_parameter_source(key) in (ParameterSource.COMMANDLINE,
                                                                 ParameterSource.ENVIRONMENT):
            values[key] = value
    if not values.get("rule"):
        raise ConfigError("no rule given; pass --rule or put 'rule' in the config file")
    for key, parse in _PARSERS.items():
        if values.get(key) is not None:
            values[key] = parse(values[key])
    return values


def _nonnegative_seed(ctx, param, value):
    if value < 0:
        raise click.BadParameter(f"seed must be >= 0, got {value}", ctx=ctx, param=param)
    return value


# Options several commands share, each declared once.  A negative seed is
# refused in every mode.
_rule_option = functools.partial(click.option, "--rule",
                                 help="Built-in rule name or custom-rule JSON file.")
_seed_option = click.option("--seed", type=int, default=0, show_default=True, envvar="IFM_SEED",
                            show_envvar=True, callback=_nonnegative_seed,
                            help="Seed for every sampled quantity.")
_mode_option = click.option("--mode", "evaluation", type=click.Choice(["exact", "mc"]),
                            default="exact", show_default=True,
                            help="Exact channel evaluation or Monte Carlo sampling.")
_trials_option = click.option("--trials", type=int, default=100_000, show_default=True,
                              help="Monte Carlo trials.")
_config_option = click.option("--config", "config_path",
                              type=click.Path(exists=True, dir_okay=False), default=None,
                              help="JSON config file; explicit flags and IFM_SEED override it.")
_noise_q_option = click.option("--noise-q", type=float, default=0.0, show_default=True,
                               help="Fly-by probability.")
_probe_state_option = click.option("--probe-state", default="y", show_default=True)
_object_state_option = click.option("--object-state", default="x", show_default=True)


def _matrix_to_json(matrix):
    if matrix is None:
        return None
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


@click.group()
def main():
    """Simulate interaction-free coupling of two qubits and audit non-interaction rules."""


@main.command()
@_rule_option()
@_mode_option
@click.option("--trials", "mc_trials", type=int, default=100_000, show_default=True,
              help="Monte Carlo trials per comparison.")
@_seed_option
@click.option("--noise-q", "noise_levels", type=float, default=None,
              callback=lambda ctx, param, q: None if q is None else (q,),
              help="Audit at this single fly-by probability (default: levels 0 and 0.5).")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the JSON report to this path.")
@_config_option
@click.pass_context
@_guarded
def audit(ctx, report_path, **_):
    """Run the four-check audit battery against one rule."""
    values = _config_values(ctx, AuditConfig, "audit")
    report = audit_rule(values.pop("rule"), AuditConfig(**values))
    text = report.to_json()
    click.echo(text)
    if report_path:
        _write_text_atomic(report_path, text + "\n")


def _run_config(evaluation, trials, seed, **inputs) -> dict:
    """The ``config`` echo of a run: its inputs, the evaluation, and trials and seed if sampled."""
    sampled = evaluation == "mc"
    return {**inputs, "evaluation": evaluation, "trials": trials if sampled else None,
            "seed": seed if sampled else None}


@main.group()
def run():
    """Run a single experiment."""


@run.command("filter")
@_rule_option()
@click.option("--source-mode", type=click.IntRange(1, 2), default=1, show_default=True,
              help="1: source emits the filter particle's eigenbasis; 2: a conjugate basis.")
@click.option("--source-basis", default=None, help="Override the source basis (xy|sigma|diag).")
@click.option("--object-state", default="x", show_default=True,
              help="Filter particle state (stage B).")
@click.option("--analyzer-basis", default="xy", show_default=True,
              help="Analyzer projection basis (stage C).")
@_noise_q_option
@click.option("--swap-roles", "swapped_roles", is_flag=True, default=False,
              help="Exchange which particle carries the probe role.")
@_mode_option
@_trials_option
@_seed_option
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write a per-detector histogram CSV (outcome,count,probability).")
@_config_option
@click.pass_context
@_guarded
def run_filter_cmd(ctx, csv_path, **_):
    """Run the three-stage filter device once."""
    cfg = FilterConfig(**_config_values(ctx, FilterConfig, "filter"))
    dist = run_filter(cfg)
    labels = [state_label(cfg.analyzer_basis.b1), state_label(cfg.analyzer_basis.b2), "scatter"]
    payload = {
        "command": "run filter",
        "config": _run_config(
            cfg.evaluation, cfg.trials, cfg.seed, rule=cfg.rule.name, source_mode=cfg.source_mode,
            source_basis=cfg.resolved_source_basis().label.lower(),
            object_state=state_label(cfg.object_state),
            analyzer_basis=cfg.analyzer_basis.label.lower(), noise_q=cfg.noise_q,
            swapped_roles=cfg.swapped_roles,
        ),
        "outcomes": labels,
        "distribution": dist.to_dict(),
    }
    click.echo(json.dumps(payload, indent=2))
    if csv_path:
        counts = dist.counts if dist.counts is not None else ("", "", "")
        lines = ["outcome,count,probability"]
        for label, count, prob in zip(labels, counts, dist.probabilities()):
            lines.append(f"{label},{count},{float(prob)!r}")
        _write_text_atomic(csv_path, "\n".join(lines) + "\n")


@run.command("correlate")
@_rule_option(required=True)
@_probe_state_option
@_object_state_option
@click.option("--basis", default="sigma", show_default=True,
              help="Basis in which both survivors are measured.")
@_noise_q_option
@_mode_option
@_trials_option
@_seed_option
@_guarded
def run_correlate_cmd(rule, probe_state, object_state, basis, noise_q, evaluation, trials, seed):
    """Measure both survivors in one basis and report the aligned-cell weight."""
    rule = _resolve_rule(rule)
    probe = parse_state_spec(probe_state)
    obj = parse_state_spec(object_state)
    chosen = parse_basis_spec(basis)
    if evaluation == "exact":
        result = run_correlation(probe, obj, chosen, rule, noise_q)
    else:
        result = run_correlation_mc(probe, obj, chosen, rule, noise_q, trials=trials, seed=seed)
    payload = {
        "command": "run correlate",
        "config": _run_config(evaluation, trials, seed, rule=rule.name,
                              probe_state=state_label(probe), object_state=state_label(obj),
                              basis=chosen.label.lower(), noise_q=noise_q),
        "result": result.to_dict(),
    }
    click.echo(json.dumps(payload, indent=2))


@run.command("flip")
@_rule_option(required=True)
@_probe_state_option
@_object_state_option
@_noise_q_option
@_mode_option
@_trials_option
@_seed_option
@_guarded
def run_flip_cmd(rule, probe_state, object_state, noise_q, evaluation, trials, seed):
    """Measure the survivor's probe in XY and condition the object on the outcome."""
    rule = _resolve_rule(rule)
    probe = parse_state_spec(probe_state)
    obj = parse_state_spec(object_state)
    if evaluation == "exact":
        result = run_flip(probe, obj, rule, noise_q)
    else:
        result = run_flip_mc(probe, obj, rule, noise_q, trials=trials, seed=seed)
    payload = {
        "command": "run flip",
        "config": _run_config(evaluation, trials, seed, rule=rule.name,
                              probe_state=state_label(probe), object_state=state_label(obj),
                              noise_q=noise_q),
        "probe_probs": {"x": float(result.probe_probs[0]), "y": float(result.probe_probs[1])},
        "object_given_x": _matrix_to_json(result.object_given[0]),
        "object_given_y": _matrix_to_json(result.object_given[1]),
        "counts": None if result.counts is None else [int(c) for c in result.counts],
        "trials": result.trials,
    }
    click.echo(json.dumps(payload, indent=2))


@main.group("rules")
def rules_group():
    """Inspect and validate non-interaction rules."""


@rules_group.command("list")
@_guarded
def rules_list():
    """Enumerate the built-in rules with one-line descriptions."""
    for rule in builtin_rules():
        click.echo(f"{rule.name:<24} {rule_description(rule)}")
    click.echo(f"{'custom (JSON file)':<24} survive operator K from a file; "
               "scatter probability is 1 - |K psi|^2")
    click.echo()
    click.echo("preferred-basis and coherent-projection take a basis parameter: "
               ":xy, :sigma or :diag")


@rules_group.command("validate")
@click.argument("rule_file", type=click.Path(exists=True, dir_okay=False))
@_guarded
def rules_validate(rule_file):
    """Validate a custom-rule JSON file against the contraction bound."""
    rule = load_rule_file(rule_file)
    click.echo(
        f"OK {rule.name}: contraction bound satisfied "
        f"(min eigenvalue of I - K^dag K = {contraction_slack(rule.operator):.6g})"
    )


def load_report(path: str) -> AuditReport:
    """Re-read an audit report written by this CLI."""
    with open(path, encoding="utf-8") as fh:
        return AuditReport.from_json(fh.read())


if __name__ == "__main__":
    main()
