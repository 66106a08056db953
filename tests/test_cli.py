import ast
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

import ifmsim
from ifmsim.cli import main
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
    assert report_path.read_text() == result.output


@pytest.mark.parametrize("command", [["audit", "--report"], ["run", "filter", "--csv"]],
                         ids=" ".join)
def test_write_into_missing_directory_exits_2(runner, tmp_path, command):
    target = tmp_path / "missing" / "out.json"
    result = runner.invoke(main, [*command, str(target), "--rule", "singlet"])
    assert result.exit_code == 2
    assert f"error: cannot write {str(target)!r}: No such file or directory" in result.output
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_temp_file(runner, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "out.json"
    result = runner.invoke(main, ["audit", "--rule", "singlet", "--report", str(target)])
    assert result.exit_code == 2
    assert f"error: cannot write {str(target)!r}: Permission denied" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o002])
@pytest.mark.parametrize("args", [
    ("audit", "--rule", "singlet", "--report"),
    ("run", "filter", "--rule", "singlet", "--mode", "mc", "--trials", "100", "--csv"),
])
def test_report_and_csv_files_get_the_mode_of_a_plain_open(runner, tmp_path, umask, args):
    previous = os.umask(umask)
    try:
        invoke(runner, *args, str(tmp_path / "out"))
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(previous)
    mode = (tmp_path / "out").stat().st_mode & 0o777
    assert mode == (tmp_path / "plain").stat().st_mode & 0o777 == 0o666 & ~umask


def test_audit_report_bodies_byte_identical(runner, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    invoke(runner, "audit", "--rule", "object-rigid", "--seed", "5", "--report", str(p1))
    invoke(runner, "audit", "--rule", "object-rigid", "--seed", "5", "--report", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_audit_noise_q_flag(runner):
    # the audit couples at level 0, whose verdict is that of every level, so it takes no level
    result = runner.invoke(main, ["audit", "--rule", "singlet", "--noise-q", "0.5"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--noise-q" in result.output
    doc = json.loads(invoke(runner, "audit", "--rule", "singlet").output)
    assert "noise_levels" not in doc and "noise_levels" not in doc["config"]


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


def test_rules_validate_refuses_an_overflowing_operator(runner, tmp_path):
    doc = {"name": "huge",
           "survive_operator": [[[1e200 if (r, c) == (0, 0) else 0.0, 0.0] for c in range(4)]
                                for r in range(4)]}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rules", "validate", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "contraction bound" in result.stderr


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
    for mode in ("mc", "exact"):
        result = runner.invoke(main, [*command, "--rule", "singlet", "--mode", mode,
                                      "--trials", str(2**63)])
        assert result.exit_code == 2
        assert f"trials must be <= 2**63 - 1, got {2**63}" in result.output


def test_audit_config_file_trials_above_int64_exit_2(runner, tmp_path):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"rule": "singlet", "evaluation": "exact", "mc_trials": 2**63}))
    result = runner.invoke(main, ["audit", "--config", str(path)])
    assert result.exit_code == 2
    assert f"error: mc_trials must be <= 2**63 - 1, got {2**63}" in result.output


def test_audit_config_file_sample_count_above_cap_exit_2(runner, tmp_path):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"rule": "singlet", "input_samples": 100_000_000}))
    result = runner.invoke(main, ["audit", "--config", str(path)])
    assert result.exit_code == 2
    assert "error: input_samples must be <= 100000, got 100000000" in result.output


def test_audit_config_file_noise_levels_above_cap_exit_2(runner, tmp_path):
    # an audit config names no noise level, however many
    path = tmp_path / "audit.json"
    for levels in ([0.0] * 17, [0.0, 0.5]):
        path.write_text(json.dumps({"rule": "singlet", "noise_levels": levels}))
        result = runner.invoke(main, ["audit", "--config", str(path)])
        assert result.exit_code == 2
        assert "error: unknown audit config keys: noise_levels" in result.output


def test_audit_at_noise_level_one_only_exit_2(runner):
    # at q = 1 every pair flies by, so C1, C2 and C4 would pass any rule; the
    # audit takes no level and couples at 0
    result = runner.invoke(main, ["audit", "--rule", "probe-rigid", "--noise-q", "1"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--noise-q" in result.output


HUGE = 10**400  # an integer JSON number beyond the float range


@pytest.mark.parametrize("command, key, value, message", [
    (["run", "filter"], "noise_q", HUGE, "noise_q must be a number within the float range"),
    (["audit"], "epsilon_mc", HUGE, "epsilon_mc must be a number within the float range"),
], ids=["filter-noise_q", "audit-epsilon_mc"])
def test_config_file_integer_beyond_the_float_range_exits_2(runner, tmp_path, command, key,
                                                            value, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rule": "singlet", key: value}))
    result = runner.invoke(main, [*command, "--config", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_rules_validate_refuses_an_integer_beyond_the_float_range(runner, tmp_path):
    doc = {"name": "huge",
           "survive_operator": [[[HUGE if (r, c) == (0, 1) else 0, 0] for c in range(4)]
                                for r in range(4)]}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rules", "validate", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: survive_operator[0][1]: entries must be finite\n"


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("command", [["run", "filter"], ["run", "correlate"], ["run", "flip"]],
                         ids=" ".join)
def test_zero_trials_exit_2(runner, command, mode):
    result = runner.invoke(main, [*command, "--rule", "singlet", "--mode", mode, "--trials", "0"])
    assert result.exit_code == 2
    assert "trials must be >= 1, got 0" in result.output


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


def test_builtin_rule_names_win_over_paths_in_the_working_directory(runner, tmp_path,
                                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "singlet").mkdir()
    doc = {"name": "stray", "survive_operator": [[[float(i == j), 0.0] for j in range(4)]
                                                 for i in range(4)]}
    (tmp_path / "random-mix").write_text(json.dumps(doc))
    for name in ("singlet", "random-mix"):
        audited = invoke(runner, "audit", "--rule", name)
        assert json.loads(audited.output)["rule"] == name
        flipped = invoke(runner, "run", "flip", "--rule", name)
        assert json.loads(flipped.output)["config"]["rule"] == name
    from_file = invoke(runner, "run", "flip", "--rule", "./random-mix")
    assert json.loads(from_file.output)["config"]["rule"] == "stray"


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
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_audit_flag_overrides_config_file(runner, tmp_path, flag, key, value):
    cfg = {"rule": "probe-rigid", "seed": 3, "mc_trials": 2000, "evaluation": "exact",
           **_SMALL_AUDIT}
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


@pytest.mark.parametrize("source", ["flag", "config"])
def test_filter_mode_2_refuses_the_mode_1_basis(runner, tmp_path, source):
    # an x object's mode 1 emits xy; mode 2 naming xy would compare mode 1 with itself
    settings = {"rule": "probe-rigid", "source_mode": 2, "source_basis": "xy"}
    if source == "flag":
        args = ["--rule", "probe-rigid", "--source-mode", "2", "--source-basis", "xy"]
    else:
        path = tmp_path / "filter.json"
        path.write_text(json.dumps(settings))
        args = ["--config", str(path)]
    result = runner.invoke(main, ["run", "filter", *args])
    assert result.exit_code == 2
    assert result.output.strip().endswith(
        "error: source_mode 2 needs a source basis other than the mode-1 basis XY, "
        "got source_basis XY")
    # a generic object's mode 2 takes sigma, named or by default
    generic = ["--rule", "probe-rigid", "--source-mode", "2", "--object-state", "0.3,0.2"]
    named = invoke(runner, "run", "filter", *generic, "--source-basis", "sigma")
    assert named.exit_code == 0
    assert named.output == invoke(runner, "run", "filter", *generic).output


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
        ("audit", "epsilon_mc", True),
        ("audit", "seed", [3]),
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
    cfg = {"rule": "random-mix", "unitary_samples": 5, "input_samples": 10}
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(cfg))
    result = invoke(runner, "audit", "--config", str(path))
    doc = json.loads(result.output)
    assert doc["rule"] == "random-mix"
    assert doc["config"]["unitary_samples"] == 5


def test_help_documents_every_flag(runner):
    spec = {
        ("audit",): {"--rule", "--mode", "--trials", "--seed", "--report", "--config"},
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


def _checkout_env() -> dict:
    """The environment of a new interpreter that imports this checkout's ``ifmsim``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ifmsim.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's ``ifmsim``."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env(), timeout=120, check=True)


@pytest.mark.parametrize("flag, value, field", [("--trials", "0", "mc_trials"),
                                               ("--seed", "-1", "seed")])
def test_audit_all_rules_script_refuses_a_bad_config_with_a_usage_error(flag, value, field):
    # argparse's usage error: the message and exit status 2, no traceback
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "audit_all_rules.py"
    proc = subprocess.run([sys.executable, str(script), flag, value], capture_output=True,
                          text=True, env=_checkout_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: {field} must be >= " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("level", ["2", "-0.5"])
def test_filter_demo_script_refuses_a_level_outside_the_unit_interval_with_a_usage_error(level):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "filter_device_demo.py"
    proc = subprocess.run([sys.executable, str(script), "--noise-q", level], capture_output=True,
                          text=True, env=_checkout_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: noise_q must be within [0, 1], got {float(level)}" in proc.stderr
    assert "Traceback" not in proc.stderr


def _modules_after(args: list[str]) -> list[str]:
    """The numpy and ``ifmsim`` modules a fresh interpreter holds after running ``args``."""
    code = "\n".join([
        "import sys",
        "from ifmsim.cli import main",
        f"main({args!r}, standalone_mode=False)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'ifmsim')),"
        " file=sys.stderr)",
    ])
    return ast.literal_eval(_fresh_python(code).stderr)


@pytest.mark.parametrize("args", [["rules", "list"], ["--help"], ["rules", "--help"],
                                  ["run", "filter", "--help"], ["audit", "--help"]])
def test_commands_that_do_no_numerics_load_no_numpy(args):
    # the numpy-free modules: the package root, the CLI and the built-in table
    assert _modules_after(args) == ["ifmsim", "ifmsim.catalog", "ifmsim.cli"]


def test_rules_validate_loads_neither_experiments_nor_audit(tmp_path):
    doc = {"name": "pass-through",
           "survive_operator": [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    loaded = _modules_after(["rules", "validate", str(path)])
    assert "ifmsim.rules" in loaded
    assert "ifmsim.experiments" not in loaded
    assert "ifmsim.audit" not in loaded


def test_rules_list_prints_the_builtin_rules_factories_build():
    from ifmsim.rules import builtin_rules
    lines = [f"{rule.name:<24} {rule.description}" for rule in builtin_rules()]
    lines += [f"{'custom (JSON file)':<24} survive operator K from a file; "
              "scatter probability is 1 - |K psi|^2",
              "",
              "preferred-basis and coherent-projection take a basis parameter: "
              ":xy, :sigma or :diag"]
    code = "from ifmsim.cli import main; main(['rules', 'list'], standalone_mode=False)"
    assert _fresh_python(code).stdout == "\n".join(lines) + "\n"


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, ifmsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code).stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_random():
    # the first draw loads numpy.random, so commands that draw nothing skip it
    code = "import sys, ifmsim.cli; print('numpy.random' in sys.modules)"
    assert _fresh_python(code).stdout.strip() == "False"


def test_only_the_audit_command_loads_the_audit_module():
    # markers go to stderr, the commands' output to stdout
    code = "\n".join([
        "import sys, ifmsim",
        "print(sorted(m for m in sys.modules if m.startswith('ifmsim.')), file=sys.stderr)",
        "from ifmsim.cli import main",
        "main(['run', 'filter', '--rule', 'singlet', '--source-mode', '2', '--mode', 'mc',"
        " '--trials', '1000'], standalone_mode=False)",
        "print('ifmsim.audit' in sys.modules, file=sys.stderr)",
        "main(['audit', '--rule', 'singlet'], standalone_mode=False)",
        "print('ifmsim.audit' in sys.modules, file=sys.stderr)",
    ])
    proc = _fresh_python(code)
    assert proc.stderr.splitlines() == ["[]", "False", "True"]
    from ifmsim.audit import audit_rule
    from ifmsim.rules import singlet_rule
    assert proc.stdout.endswith("}\n" + audit_rule(singlet_rule()).to_json() + "\n")


def test_internal_error_names_its_exception_type(runner, monkeypatch):
    def boom(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr("ifmsim.experiments.run_filter", boom)
    result = runner.invoke(main, ["run", "filter", "--rule", "singlet"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "internal error: RuntimeError: boom\n"


_ROOT_EXPORTS = {
    "audit": {"AuditConfig", "AuditReport", "audit_rule", "tvd"},
    "experiments": {"ConfigError", "FilterConfig", "run_correlation", "run_correlation_mc",
                    "run_filter", "run_filter_exact", "run_flip", "run_flip_mc"},
    "rules": {"InvalidRuleError", "builtin_rules", "contraction_slack", "coupling_channel",
              "load_rule_file", "rule_from_name", "singlet_rule", "validate_custom_rule"},
    "states": {"BASIS_SIGMA", "STATE_X", "STATE_Y", "parse_basis_spec", "parse_state_spec",
               "state_label"},
}


def test_package_root_exports_only_the_pinned_names():
    pinned = set().union(*_ROOT_EXPORTS.values())
    assert len(ifmsim.__all__) == len(pinned) == 26
    assert set(ifmsim.__all__) == pinned
    listed = {name for name in dir(ifmsim)
              if not name.startswith("_") and not inspect.ismodule(getattr(ifmsim, name))}
    assert listed == pinned
    for module, names in _ROOT_EXPORTS.items():
        home = importlib.import_module(f"ifmsim.{module}")
        for name in names:
            assert getattr(ifmsim, name) is getattr(home, name), name
    for name in ("no_such_name", "apply_rule", "json_fits"):
        with pytest.raises(AttributeError, match=name):
            getattr(ifmsim, name)
    namespace = {}
    exec("from ifmsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == pinned


# Public functions that only tests reach, each kept as an oracle for other code.
_TEST_ORACLES = {
    "is_density": "test_rules checks every survivor is a density with it",
    "entanglement_entropy": "acceptance 06 checks the singlet carries one bit of entanglement",
    "interaction_probability": "acceptance 12 checks aligned states always interact",
}


def _public_definitions(source: str, module: str):
    """Public top-level functions and public methods; ``cli`` command callbacks are exempt."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            if not (module == "cli.py" and node.decorator_list):
                yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _used_names(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_function_has_a_caller_outside_the_tests():
    root = pathlib.Path(__file__).resolve().parents[1]
    defined = {name for path in (root / "src" / "ifmsim").glob("*.py")
               for name in _public_definitions(path.read_text(encoding="utf-8"), path.name)}
    used = {name for folder in ("src/ifmsim", "scripts", "ifmbench")
            for path in (root / folder).rglob("*.py")
            for name in _used_names(path.read_text(encoding="utf-8"))}
    assert sorted(defined - used - set(_TEST_ORACLES)) == []
    assert set(_TEST_ORACLES) <= defined - used
