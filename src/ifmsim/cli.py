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


# JSON types a config value may take, by the annotation of its config field;
# rules, bases and states are spelled as strings and tuples as lists.
_JSON_TYPES = {
    "int": int, "float": (int, float), "bool": bool, "str": str, "Rule": str, "Basis": str,
    "QubitState": str, "Basis | None": (str, type(None)),
}


def _json_fits(annotation: str, value) -> bool:
    if annotation.startswith("tuple["):
        item = annotation[len("tuple["):-len(", ...]")]
        return isinstance(value, list) and all(_json_fits(item, v) for v in value)
    # JSON true and false are no numbers, though Python's bool subclasses int
    return isinstance(value, _JSON_TYPES[annotation]) and (
        isinstance(value, bool) == (annotation == "bool")
    )


def _load_config_doc(path: str | None, config_cls, what: str) -> dict:
    """The JSON config at ``path``, or {}; keys and types follow ``config_cls`` plus ``rule``."""
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
    allowed = {"rule": "Rule"} | {f.name: f.type for f in fields(config_cls)}
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown {what} config keys: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    for key, value in doc.items():
        if not _json_fits(allowed[key], value):
            raise ConfigError(
                f"{what} config key {key!r}: expected {allowed[key]}, got {json.dumps(value)}"
            )
    return doc


def _explicit(ctx, param_name: str) -> bool:
    """Whether the flag was given on the command line or through its environment variable."""
    source = ctx.get_parameter_source(param_name)
    return source in (ParameterSource.COMMANDLINE, ParameterSource.ENVIRONMENT)


def _pick(ctx, param_name: str, flag_value, doc: dict, doc_key: str):
    """CLI flag when given explicitly, else config value, else the flag default."""
    if _explicit(ctx, param_name):
        return flag_value
    if doc_key in doc:
        return doc[doc_key]
    return flag_value


def _nonnegative_seed(ctx, param, value):
    if value < 0:
        raise click.BadParameter(f"seed must be >= 0, got {value}", ctx=ctx, param=param)
    return value


# One --seed for every command, so a negative seed is refused in every mode.
_seed_option = click.option("--seed", type=int, default=0, show_default=True, envvar="IFM_SEED",
                            show_envvar=True, callback=_nonnegative_seed,
                            help="Seed for every sampled quantity.")


def _matrix_to_json(matrix):
    if matrix is None:
        return None
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


@click.group()
def main():
    """Simulate interaction-free coupling of two qubits and audit non-interaction rules."""


@main.command()
@click.option("--rule", "rule_spec", default=None, help="Built-in rule name or custom-rule JSON file.")
@click.option("--mode", "evaluation", type=click.Choice(["exact", "mc"]), default="exact",
              show_default=True, help="Exact channel evaluation or Monte Carlo sampling.")
@click.option("--trials", type=int, default=100_000, show_default=True,
              help="Monte Carlo trials per comparison.")
@_seed_option
@click.option("--noise-q", type=float, default=None,
              help="Audit at this single fly-by probability (default: levels 0 and 0.5).")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the JSON report to this path.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON audit config; explicit flags override it.")
@click.pass_context
@_guarded
def audit(ctx, rule_spec, evaluation, trials, seed, noise_q, report_path, config_path):
    """Run the four-check audit battery against one rule."""
    doc = _load_config_doc(config_path, AuditConfig, "audit")
    rule_text = rule_spec if rule_spec is not None else doc.get("rule")
    if not rule_text:
        raise ConfigError("no rule given; pass --rule or put 'rule' in the config file")
    rule = _resolve_rule(rule_text)

    given = {key: value for key, value in doc.items() if key != "rule"}
    if "bases" in given:
        given["bases"] = tuple(parse_basis_spec(label) for label in given["bases"])
    if "noise_levels" in given:
        given["noise_levels"] = tuple(float(q) for q in given["noise_levels"])
    if noise_q is not None:
        given["noise_levels"] = (float(noise_q),)
    flags = {"seed": ("seed", seed), "evaluation": ("evaluation", evaluation),
             "trials": ("mc_trials", trials)}
    for param, (key, value) in flags.items():
        if _explicit(ctx, param):
            given[key] = value
    report = audit_rule(rule, AuditConfig(**given))
    text = report.to_json()
    click.echo(text)
    if report_path:
        _write_text_atomic(report_path, text + "\n")


@main.group()
def run():
    """Run a single experiment."""


def _filter_config_from_inputs(ctx, doc, rule_spec, source_mode, source_basis, object_state,
                               analyzer_basis, noise_q, swap_roles, evaluation, trials, seed):
    rule_text = _pick(ctx, "rule_spec", rule_spec, doc, "rule")
    if not rule_text:
        raise ConfigError("no rule given; pass --rule or put 'rule' in the config file")
    basis_spec = _pick(ctx, "source_basis", source_basis, doc, "source_basis")
    return FilterConfig(
        rule=_resolve_rule(rule_text),
        source_mode=_pick(ctx, "source_mode", source_mode, doc, "source_mode"),
        source_basis=None if basis_spec is None else parse_basis_spec(basis_spec),
        object_state=parse_state_spec(_pick(ctx, "object_state", object_state, doc, "object_state")),
        analyzer_basis=parse_basis_spec(_pick(ctx, "analyzer_basis", analyzer_basis, doc, "analyzer_basis")),
        noise_q=float(_pick(ctx, "noise_q", noise_q, doc, "noise_q")),
        swapped_roles=_pick(ctx, "swap_roles", swap_roles, doc, "swapped_roles"),
        evaluation=_pick(ctx, "evaluation", evaluation, doc, "evaluation"),
        trials=_pick(ctx, "trials", trials, doc, "trials"),
        seed=_pick(ctx, "seed", seed, doc, "seed"),
    )


@run.command("filter")
@click.option("--rule", "rule_spec", default=None, help="Built-in rule name or custom-rule JSON file.")
@click.option("--source-mode", type=click.IntRange(1, 2), default=1, show_default=True,
              help="1: source emits the filter particle's eigenbasis; 2: a conjugate basis.")
@click.option("--source-basis", default=None, help="Override the source basis (xy|sigma|diag).")
@click.option("--object-state", default="x", show_default=True,
              help="Filter particle state (stage B).")
@click.option("--analyzer-basis", default="xy", show_default=True,
              help="Analyzer projection basis (stage C).")
@click.option("--noise-q", type=float, default=0.0, show_default=True,
              help="Fly-by probability.")
@click.option("--swap-roles", is_flag=True, default=False,
              help="Exchange which particle carries the probe role.")
@click.option("--mode", "evaluation", type=click.Choice(["exact", "mc"]), default="exact",
              show_default=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@_seed_option
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write a per-detector histogram CSV (outcome,count,probability).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON filter config; explicit flags override it.")
@click.pass_context
@_guarded
def run_filter_cmd(ctx, rule_spec, source_mode, source_basis, object_state, analyzer_basis,
                   noise_q, swap_roles, evaluation, trials, seed, csv_path, config_path):
    """Run the three-stage filter device once."""
    doc = _load_config_doc(config_path, FilterConfig, "filter")
    cfg = _filter_config_from_inputs(ctx, doc, rule_spec, source_mode, source_basis,
                                     object_state, analyzer_basis, noise_q, swap_roles,
                                     evaluation, trials, seed)
    dist = run_filter(cfg)
    labels = [state_label(cfg.analyzer_basis.b1), state_label(cfg.analyzer_basis.b2), "scatter"]
    payload = {
        "command": "run filter",
        "config": {
            "rule": cfg.rule.name,
            "source_mode": cfg.source_mode,
            "source_basis": cfg.resolved_source_basis().label.lower(),
            "object_state": state_label(cfg.object_state),
            "analyzer_basis": cfg.analyzer_basis.label.lower(),
            "noise_q": cfg.noise_q,
            "swapped_roles": cfg.swapped_roles,
            "evaluation": cfg.evaluation,
            "trials": cfg.trials if cfg.evaluation == "mc" else None,
            "seed": cfg.seed if cfg.evaluation == "mc" else None,
        },
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
@click.option("--rule", "rule_spec", required=True, help="Built-in rule name or custom-rule JSON file.")
@click.option("--probe-state", default="y", show_default=True)
@click.option("--object-state", default="x", show_default=True)
@click.option("--basis", default="sigma", show_default=True,
              help="Basis in which both survivors are measured.")
@click.option("--noise-q", type=float, default=0.0, show_default=True)
@click.option("--mode", "evaluation", type=click.Choice(["exact", "mc"]), default="exact",
              show_default=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@_seed_option
@_guarded
def run_correlate_cmd(rule_spec, probe_state, object_state, basis, noise_q, evaluation,
                      trials, seed):
    """Measure both survivors in one basis and report the aligned-cell weight."""
    rule = _resolve_rule(rule_spec)
    probe = parse_state_spec(probe_state)
    obj = parse_state_spec(object_state)
    chosen = parse_basis_spec(basis)
    if evaluation == "exact":
        result = run_correlation(probe, obj, chosen, rule, noise_q)
    else:
        result = run_correlation_mc(probe, obj, chosen, rule, noise_q, trials=trials, seed=seed)
    payload = {
        "command": "run correlate",
        "config": {
            "rule": rule.name,
            "probe_state": state_label(probe),
            "object_state": state_label(obj),
            "basis": chosen.label.lower(),
            "noise_q": noise_q,
            "evaluation": evaluation,
            "trials": trials if evaluation == "mc" else None,
            "seed": seed if evaluation == "mc" else None,
        },
        "result": result.to_dict(),
    }
    click.echo(json.dumps(payload, indent=2))


@run.command("flip")
@click.option("--rule", "rule_spec", required=True, help="Built-in rule name or custom-rule JSON file.")
@click.option("--probe-state", default="y", show_default=True)
@click.option("--object-state", default="x", show_default=True)
@click.option("--noise-q", type=float, default=0.0, show_default=True)
@click.option("--mode", "evaluation", type=click.Choice(["exact", "mc"]), default="exact",
              show_default=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@_seed_option
@_guarded
def run_flip_cmd(rule_spec, probe_state, object_state, noise_q, evaluation, trials, seed):
    """Measure the survivor's probe in XY and condition the object on the outcome."""
    rule = _resolve_rule(rule_spec)
    probe = parse_state_spec(probe_state)
    obj = parse_state_spec(object_state)
    if evaluation == "exact":
        result = run_flip(probe, obj, rule, noise_q)
    else:
        result = run_flip_mc(probe, obj, rule, noise_q, trials=trials, seed=seed)
    payload = {
        "command": "run flip",
        "config": {
            "rule": rule.name,
            "probe_state": state_label(probe),
            "object_state": state_label(obj),
            "noise_q": noise_q,
            "evaluation": evaluation,
            "trials": trials if evaluation == "mc" else None,
            "seed": seed if evaluation == "mc" else None,
        },
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
