import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

import ifmsim
from ifmsim.audit import AuditReport
from ifmsim.cli import load_report, main
from ifmsim.experiments import json_fits as _json_fits


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def test_rules_list_names_all_builtins(runner):
    result = invoke(runner, "rules", "list")
    assert result.exit_code == 0
    for name in ("probe-rigid", "object-rigid", "singlet", "random-mix",
                 "preferred-basis:sigma", "coherent-projection:xy", "custom"):
        assert name in result.output


def test_run_filter_exact_json(runner):
    result = invoke(runner, "run", "filter", "--rule", "probe-rigid", "--source-mode", "2")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    dist = doc["distribution"]
    assert dist["p_click_b1"] == pytest.approx(0.25, abs=1e-12)
    assert dist["p_click_b2"] == pytest.approx(0.25, abs=1e-12)
    assert dist["p_scatter"] == pytest.approx(0.5, abs=1e-12)
    assert doc["config"]["source_basis"] == "sigma"


def test_run_filter_csv(runner, tmp_path):
    csv_path = tmp_path / "hist.csv"
    result = invoke(
        runner, "run", "filter", "--rule", "singlet", "--mode", "mc",
        "--trials", "1000", "--seed", "3", "--csv", str(csv_path),
    )
    assert result.exit_code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "outcome,count,probability"
    assert len(lines) == 4
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["x", "y", "scatter"]
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 1000


def test_run_filter_mc_deterministic(runner):
    args = ("run", "filter", "--rule", "singlet", "--mode", "mc", "--trials", "5000",
            "--seed", "11")
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.output == second.output


def test_seed_env_override(runner):
    flagged = invoke(runner, "run", "filter", "--rule", "singlet", "--mode", "mc",
                     "--trials", "2000", "--seed", "77")
    via_env = invoke(runner, "run", "filter", "--rule", "singlet", "--mode", "mc",
                     "--trials", "2000", env={"IFM_SEED": "77"})
    assert flagged.output == via_env.output


def test_run_correlate_json(runner):
    result = invoke(runner, "run", "correlate", "--rule", "singlet")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["result"]["aligned_weight"] == pytest.approx(0.0, abs=1e-12)
    assert doc["result"]["cells"]["b1b2"] == pytest.approx(0.5, abs=1e-12)


def test_run_flip_json(runner):
    result = invoke(runner, "run", "flip", "--rule", "singlet")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["probe_probs"]["x"] == pytest.approx(0.5, abs=1e-12)
    given_x = np.array([[complex(re, im) for re, im in row] for row in doc["object_given_x"]])
    assert np.allclose(given_x, [[0, 0], [0, 1]], atol=1e-12)


def test_audit_singlet_passes_exit_zero(runner):
    result = invoke(runner, "audit", "--rule", "singlet", "--mode", "exact")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["overall_pass"] is True


def test_audit_failing_rule_still_exit_zero(runner, tmp_path):
    report_path = tmp_path / "report.json"
    result = invoke(runner, "audit", "--rule", "probe-rigid", "--report", str(report_path))
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["overall_pass"] is False
    on_disk = load_report(str(report_path))
    assert isinstance(on_disk, AuditReport)
    assert on_disk.to_json() + "\n" == report_path.read_text()


def test_audit_report_bodies_byte_identical(runner, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    invoke(runner, "audit", "--rule", "object-rigid", "--seed", "5", "--report", str(p1))
    invoke(runner, "audit", "--rule", "object-rigid", "--seed", "5", "--report", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_audit_noise_q_flag(runner):
    result = invoke(runner, "audit", "--rule", "singlet", "--noise-q", "0.5")
    doc = json.loads(result.output)
    assert doc["noise_levels"] == [0.5]


def test_rules_validate_good_file(runner, tmp_path):
    op = np.eye(4)
    doc = {"name": "pass-through",
           "survive_operator": [[[float(v), 0.0] for v in row] for row in op]}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, "rules", "validate", str(path))
    assert result.exit_code == 0
    assert "OK pass-through" in result.output


def test_rules_validate_contraction_violation(runner, tmp_path):
    doc = {"name": "too-big",
           "survive_operator": [[[2.0 if r == c else 0.0, 0.0] for c in range(4)]
                                for r in range(4)]}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rules", "validate", str(path)])
    assert result.exit_code == 2
    assert "contraction" in result.output or "contraction" in (result.stderr or "")


def test_rules_validate_cites_entry(runner, tmp_path):
    doc = {"name": "broken", "survive_operator": [[[1, 0]] * 4] * 3}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rules", "validate", str(path)])
    assert result.exit_code == 2


def test_bad_state_spec_exits_2(runner):
    result = runner.invoke(main, ["run", "filter", "--rule", "singlet",
                                  "--object-state", "wibble"])
    assert result.exit_code == 2


def test_unknown_rule_exits_2(runner):
    result = runner.invoke(main, ["audit", "--rule", "nonsense"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["audit", "--rule", "missing/file.json"])
    assert result.exit_code == 2


@pytest.mark.parametrize("q", [2.0, -1.0, float("nan")])
def test_noise_q_outside_unit_interval_rejected(runner, q):
    message = f"noise_q must be within [0, 1], got {q}"
    rule = ifmsim.singlet_rule()
    with pytest.raises(ValueError, match=re.escape(message)):
        ifmsim.run_correlation_mc(ifmsim.STATE_Y, ifmsim.STATE_X, ifmsim.BASIS_SIGMA, rule,
                                  noise_q=q)
    with pytest.raises(ValueError, match=re.escape(message)):
        ifmsim.run_flip_mc(ifmsim.STATE_Y, ifmsim.STATE_X, rule, noise_q=q)
    for command in ("correlate", "flip"):
        for mode in ("exact", "mc"):
            result = runner.invoke(main, ["run", command, "--rule", "singlet", "--mode", mode,
                                          "--noise-q", str(q)])
            assert result.exit_code == 2, (command, mode)
            assert message in result.output


@pytest.mark.parametrize("command", [["audit"], ["run", "filter"], ["run", "correlate"],
                                     ["run", "flip"]], ids=" ".join)
def test_negative_seed_exits_2(runner, command):
    result = runner.invoke(main, [*command, "--rule", "singlet", "--seed", "-1"])
    assert result.exit_code == 2
    assert "seed must be >= 0, got -1" in result.output


@pytest.mark.parametrize("command", [["audit"], ["run", "filter"], ["run", "correlate"],
                                     ["run", "flip"]], ids=" ".join)
def test_trials_above_int64_exit_2(runner, command):
    result = runner.invoke(main, [*command, "--rule", "singlet", "--mode", "mc",
                                  "--trials", str(2**63)])
    assert result.exit_code == 2
    assert f"trials must be <= 2**63 - 1, got {2**63}" in result.output


def test_audit_zero_trials_names_mc_trials(runner):
    result = runner.invoke(main, ["audit", "--rule", "singlet", "--mode", "mc", "--trials", "0"])
    assert result.exit_code == 2
    assert "mc_trials must be >= 1, got 0" in result.output


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("command", [["audit"], ["run", "filter"], ["run", "correlate"],
                                     ["run", "flip"]], ids=" ".join)
def test_negative_seed_from_environment_exits_2(runner, command, mode):
    result = runner.invoke(main, [*command, "--rule", "singlet", "--mode", mode],
                           env={"IFM_SEED": "-1"})
    assert result.exit_code == 2
    assert "seed must be >= 0, got -1" in result.output


def test_unknown_flag_rejected(runner):
    result = runner.invoke(main, ["run", "filter", "--rule", "singlet", "--frobnicate"])
    assert result.exit_code == 2


def test_custom_rule_through_audit(runner, tmp_path):
    op = np.eye(4)
    doc = {"name": "pass-through",
           "survive_operator": [[[float(v), 0.0] for v in row] for row in op]}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, "run", "filter", "--rule", str(path))
    assert result.exit_code == 0
    dist = json.loads(result.output)["distribution"]
    assert dist["p_scatter"] == pytest.approx(0.0, abs=1e-12)


def test_filter_config_file_and_flag_override(runner, tmp_path):
    cfg = {"rule": "probe-rigid", "source_mode": 2, "analyzer_basis": "xy"}
    path = tmp_path / "filter.json"
    path.write_text(json.dumps(cfg))
    result = invoke(runner, "run", "filter", "--config", str(path))
    doc = json.loads(result.output)
    assert doc["config"]["rule"] == "probe-rigid"
    assert doc["config"]["source_mode"] == 2
    # explicit flag beats the config document
    result = invoke(runner, "run", "filter", "--config", str(path), "--source-mode", "1")
    doc = json.loads(result.output)
    assert doc["config"]["source_mode"] == 1


_SMALL_AUDIT = {"input_samples": 5, "unitary_samples": 2, "mc_input_samples": 2,
                "mc_unitary_samples": 2}


@pytest.mark.parametrize("flag, key, value", [
    (["--rule", "singlet"], "rule", "singlet"),
    (["--seed", "7"], "seed", 7),
    (["--trials", "1000"], "mc_trials", 1000),
    (["--mode", "mc"], "evaluation", "mc"),
    (["--noise-q", "0.25"], "noise_levels", [0.25]),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_audit_flag_overrides_config_file(runner, tmp_path, flag, key, value):
    cfg = {"rule": "probe-rigid", "seed": 3, "mc_trials": 2000, "evaluation": "exact",
           "noise_levels": [0.0, 0.5], **_SMALL_AUDIT}
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(cfg))

    def settings(*args):
        doc = json.loads(invoke(runner, "audit", "--config", str(path), *args).output)
        return {"rule": doc["rule"], **doc["config"]}

    from_file = settings()
    assert {k: from_file[k] for k in cfg} == cfg
    assert settings(*flag) == {**from_file, key: value}


@pytest.mark.parametrize("command", [["audit"], ["run", "filter"]], ids=" ".join)
def test_seed_environment_overrides_config_file(runner, tmp_path, command):
    sizes = {**_SMALL_AUDIT, "mc_trials": 1000} if command == ["audit"] else {"trials": 1000}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rule": "singlet", "seed": 3, "evaluation": "mc", **sizes}))
    args = [*command, "--config", str(path)]
    from_file = invoke(runner, *args)
    from_env = invoke(runner, *args, env={"IFM_SEED": "8"})
    assert json.loads(from_file.output)["config"]["seed"] == 3
    assert json.loads(from_env.output)["config"]["seed"] == 8
    assert from_env.output == invoke(runner, *args, "--seed", "8").output


def test_filter_config_rejects_unknown_keys(runner, tmp_path):
    path = tmp_path / "filter.json"
    path.write_text(json.dumps({"rule": "singlet", "wormhole": True}))
    result = runner.invoke(main, ["run", "filter", "--config", str(path)])
    assert result.exit_code == 2
    assert "wormhole" in result.output or "wormhole" in (result.stderr or "")


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("filter", "swapped_roles", "false"),
        ("filter", "swapped_roles", 1),
        ("filter", "source_mode", 1.9),
        ("filter", "trials", 2.5),
        ("filter", "seed", 1.7),
        ("filter", "seed", True),
        ("filter", "noise_q", [0.1]),
        ("filter", "object_state", 1),
        ("audit", "noise_levels", 0.5),
        ("audit", "noise_levels", [0.0, "0.5"]),
        ("audit", "input_samples", None),
        ("audit", "mc_trials", 1e5),
        ("audit", "bases", 5),
        ("audit", "bases", ["xy", 1]),
        ("audit", "epsilon_exact", "1e-9"),
    ],
)
def test_config_file_rejects_wrong_json_types(runner, tmp_path, command, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rule": "singlet", key: value}))
    args = ["audit"] if command == "audit" else ["run", "filter"]
    result = runner.invoke(main, [*args, "--config", str(path)])
    assert result.exit_code == 2
    assert f"config key {key!r}" in result.output


def test_config_file_fields_have_json_types():
    for cls in (ifmsim.AuditConfig, ifmsim.FilterConfig):
        for field in fields(cls):
            _json_fits(field.type, [None])  # KeyError for a type without a JSON form


def test_audit_config_file(runner, tmp_path):
    cfg = {"rule": "random-mix", "noise_levels": [0.0], "unitary_samples": 5,
           "input_samples": 10}
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(cfg))
    result = invoke(runner, "audit", "--config", str(path))
    doc = json.loads(result.output)
    assert doc["rule"] == "random-mix"
    assert doc["config"]["unitary_samples"] == 5


def test_help_documents_every_flag(runner):
    spec = {
        ("audit",): {"--rule", "--mode", "--trials", "--seed", "--noise-q", "--report",
                     "--config"},
        ("run", "filter"): {"--rule", "--source-mode", "--source-basis", "--object-state",
                            "--analyzer-basis", "--noise-q", "--swap-roles", "--mode",
                            "--trials", "--seed", "--csv", "--config"},
        ("run", "correlate"): {"--rule", "--probe-state", "--object-state", "--basis",
                               "--noise-q", "--mode", "--trials", "--seed"},
        ("run", "flip"): {"--rule", "--probe-state", "--object-state", "--noise-q",
                          "--mode", "--trials", "--seed"},
    }
    for command, flags in spec.items():
        result = invoke(runner, *command, "--help")
        assert result.exit_code == 0
        for flag in flags:
            assert flag in result.output, (command, flag)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, ifmsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ifmsim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_package_root_exports_only_the_pinned_names():
    exported = {name for name, value in vars(ifmsim).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {
        "AuditConfig", "AuditReport", "audit_rule", "tvd",
        "ConfigError", "FilterConfig", "run_correlation", "run_correlation_mc", "run_filter",
        "run_filter_exact", "run_flip", "run_flip_mc",
        "InvalidRuleError", "builtin_rules", "contraction_slack", "coupling_channel",
        "load_rule_file", "rule_description", "rule_from_name", "singlet_rule",
        "validate_custom_rule",
        "BASIS_SIGMA", "STATE_X", "STATE_Y", "parse_basis_spec", "parse_state_spec", "state_label",
    }
