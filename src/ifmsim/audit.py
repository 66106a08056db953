"""The four-check audit battery for candidate non-interaction rules.

Checks (exact evaluation is the verdict of record; Monte Carlo is a
statistical cross-check):

* C1 indistinguishability - the two source modes of the filter device
  must stay indistinguishable for every role assignment, object/analyzer
  basis pairing and noise level; metric is the worst total variation
  distance between mode-1 and mode-2 statistics (full, including the
  scatter outcome, and conditional on survival).
* C2 role symmetry - applying the rule with the partners exchanged and
  mapping back through SWAP must reproduce the same outcome; the exact
  metric is the worst trace distance between the two outcomes, each the
  sub-normalised operator ``p (+) (1 - p) rho`` of scatter probability and
  survivor.  It is linear in the law, continuous in the rule, on C1's total
  variation scale, and bounds the total variation distance of the
  five-outcome law in every basis, which Monte Carlo samples.
* C3 anti-alignment - survivors of an actual coupling must carry zero
  weight on the aligned cells of every configured basis; evaluated on
  the coupled (q = 0) survivor, since fly-by events leave the untouched
  product state behind by construction and would mask the signature of
  every rule equally.
* C4 basis covariance - rotating both inputs by the same unitary must
  commute with the rule; metric as in C2, between the outcome of the rotated
  inputs and the rotated outcome.

Monte Carlo mode draws each comparison's counts at ``mc_trials`` trials
as one multinomial draw of the case's exact law, the same law the exact
evaluator builds, so the work grows with the number of cells, not with
the number of trials.  All cases of a check and side come from one Philox
stream, ``derive_rng(seed, stream, side)``.  One stacked two-sample
chi-square call per check compares all of its counts; the p-value
threshold ``epsilon_mc`` is spent family-wise across the check's
informative comparisons (Bonferroni), so a rule whose exact metric is
zero is not failed by a single unlucky case among many.  C3's Monte
Carlo verdict demands zero aligned events among the coupled survivors.

Fly-by noise is one axis, blended in after the rule map (``coupling_channel``
for C2/C4, ``filter_law`` for C1): each rule runs once per input pair, and
a check's rows run case-major, then noise level.

Every sampled quantity derives from ``AuditConfig.seed`` through fixed
streams, so identical configs produce identical reports.  Each check's
rule-independent case grid is built once per configuration and reused
across rules.  Its cache holds one read-only entry keyed on the values the
grid reads, none of them a noise level, so memory stays that of one audit
and reports do not depend on call order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .experiments import (
    ConfigError,
    check_fields,
    check_mode_equivalence,
    conditional_clicks,
    derive_rng,
    filter_branches,
    filter_law,
    sample_counts,
)
from .rules import Coupling, Rule, coupling_channel, swapped_coupling_channel
from .states import (
    BASIS_DIAG,
    BASIS_SIGMA,
    BASIS_XY,
    Basis,
    D_MINUS,
    D_PLUS,
    QubitState,
    SIGMA_MINUS,
    SIGMA_PLUS,
    STATE_X,
    STATE_Y,
    basis_change_unitary,
    haar_unitaries,
    joint_born_distribution,
    mutually_unbiased,
    state_label,
    uniform_state_amps,
)


class DimensionMismatchError(ValueError):
    """Two distributions live on different outcome spaces."""


class DegenerateDataError(ValueError):
    """Too little data for a two-sample test."""


CHECK_IDS = (
    "C1_indistinguishability",
    "C2_role_symmetry",
    "C3_anti_alignment",
    "C4_basis_covariance",
)

CORNER_STATES = (STATE_X, STATE_Y, SIGMA_PLUS, SIGMA_MINUS, D_PLUS, D_MINUS)
_CORNER_PAIRS = tuple((a, b) for a in CORNER_STATES for b in CORNER_STATES)

# Compact input set for Monte Carlo replays of C2/C4.
_MC_CORNER_PAIRS = (
    (STATE_X, STATE_X),
    (STATE_Y, STATE_X),
    (SIGMA_PLUS, STATE_X),
    (SIGMA_PLUS, SIGMA_PLUS),
    (SIGMA_PLUS, SIGMA_MINUS),
    (D_PLUS, SIGMA_MINUS),
)


def tvd(d1, d2):
    """Total variation distance ``0.5 * sum |d1 - d2|`` between distributions.

    A float for two vectors; for stacks ``(..., k)`` an array over the
    leading axes, which broadcast.  Entries must be finite and non-negative,
    and every row must sum to 1.
    """
    a = np.asarray(d1, dtype=float)
    b = np.asarray(d2, dtype=float)
    if a.shape[-1:] != b.shape[-1:]:
        raise DimensionMismatchError(f"outcome spaces differ: {a.shape} vs {b.shape}")
    for name, dist in (("first", a), ("second", b)):
        if not np.all(np.isfinite(dist) & (dist >= 0.0)):
            raise ValueError(f"{name} distribution has a negative or non-finite entry")
        sums = dist.sum(axis=-1)
        bad = np.abs(sums - 1.0) > 1e-6
        if np.any(bad):
            raise ValueError(f"{name} distribution sums to {sums[bad].flat[0]}, expected 1")
    t = 0.5 * np.abs(a - b).sum(axis=-1)
    return float(t) if t.ndim == 0 else t


def chi_square_two_sample(counts_a, counts_b):
    """Two-sample chi-square statistic and p-value over pooled expected counts.

    Cells with pooled count zero are dropped; degrees of freedom are the
    remaining cell count minus one; the p-value is the chi-square survival
    function at the statistic.  Two vectors give floats, and a
    ``DegenerateDataError`` when a sample is empty or fewer than two cells
    remain.  Stacks ``(..., k)`` broadcast over the leading axes and give
    arrays, NaN on such degenerate rows.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape[-1:] != b.shape[-1:]:
        raise DimensionMismatchError(f"outcome spaces differ: {a.shape} vs {b.shape}")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("counts must be non-negative")
    a, b = np.broadcast_arrays(a, b)
    total_a, total_b = a.sum(axis=-1), b.sum(axis=-1)
    pooled = a + b
    keep = pooled > 0
    dof = keep.sum(axis=-1) - 1
    filled = (total_a > 0) & (total_b > 0)
    if a.ndim == 1 and not filled:
        raise DegenerateDataError("each sample needs at least one count")
    if a.ndim == 1 and dof < 1:
        raise DegenerateDataError("fewer than 2 nonzero pooled cells")
    valid = filled & (dof >= 1)
    use = keep & valid[..., None]
    grand_total = (total_a + total_b)[..., None]

    def squared_deviations(x, total):
        expected = np.divide(total[..., None] * pooled, grand_total,
                             out=np.zeros_like(pooled), where=use)
        return np.divide((x - expected) ** 2, expected,
                         out=np.zeros_like(pooled), where=use).sum(axis=-1)

    stat = np.where(valid, squared_deviations(a, total_a) + squared_deviations(b, total_b), np.nan)
    if stat.ndim == 0:
        return float(stat), _chi_square_sf(float(stat), int(dof))
    p_value = np.full(stat.shape, np.nan)
    p_value[valid] = np.vectorize(_chi_square_sf, otypes=[float])(stat[valid], dof[valid])
    return stat, p_value


def _chi_square_sf(stat: float, dof: int) -> float:
    """Upper tail ``P(X >= stat)`` of a chi-square law with integer ``dof >= 1``.

    Closed forms of Abramowitz & Stegun 26.4.4 (odd dof) and 26.4.5 (even
    dof): a finite series times ``exp(-stat/2)``, plus ``erfc`` for odd dof.
    """
    half = stat / 2.0
    if dof % 2 == 0:
        term = math.exp(-half)
        total = term
        for r in range(1, dof // 2):
            term *= half / r
            total += term
    else:
        total = math.erfc(math.sqrt(half))
        term = math.exp(-half) * math.sqrt(2.0 * stat / math.pi)
        for r in range(1, (dof + 1) // 2):
            total += term
            term *= stat / (2 * r + 1)
    return min(max(total, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class CheckResult:
    """Verdict of one check; ``passed`` holds exactly when ``metric < threshold``."""

    check_id: str
    passed: bool
    metric: float
    threshold: float
    witness: str
    evidence: dict | None = None


@dataclass(frozen=True, eq=False)
class AuditConfig:
    """Knobs of the audit battery."""

    bases: tuple[Basis, ...] = (BASIS_XY, BASIS_SIGMA, BASIS_DIAG)
    epsilon_exact: float = 1e-9
    epsilon_mc: float = 1e-3
    unitary_samples: int = 100
    input_samples: int = 200
    noise_levels: tuple[float, ...] = (0.0, 0.5)
    seed: int = 0
    evaluation: str = "exact"
    mc_trials: int = 100_000
    mc_input_samples: int = 12
    mc_unitary_samples: int = 6

    def __post_init__(self):
        check_fields(self)  # plain Python numbers, so numpy scalars still give a JSON report
        if not self.bases:
            raise ConfigError("bases must not be empty")
        for name in ("epsilon_exact", "epsilon_mc"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {value!r}")
        for name in ("unitary_samples", "input_samples", "mc_trials", "mc_input_samples",
                     "mc_unitary_samples"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if not self.noise_levels:
            raise ConfigError("noise_levels must not be empty")
        for q in self.noise_levels:
            if not 0.0 <= float(q) <= 1.0:
                raise ConfigError(f"noise level {q!r} outside [0, 1]")
        if self.evaluation not in ("exact", "mc"):
            raise ConfigError(f"evaluation must be 'exact' or 'mc', got {self.evaluation!r}")


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Per-rule verdicts for all four checks."""

    rule_name: str
    checks: tuple[CheckResult, ...]
    overall_pass: bool
    evaluation: str
    noise_levels: tuple[float, ...]
    seed: int
    config_echo: dict

    def check(self, check_id: str) -> CheckResult:
        for result in self.checks:
            if result.check_id == check_id:
                return result
        raise KeyError(check_id)

    def to_json(self) -> str:
        payload = {
            "rule": self.rule_name,
            "overall_pass": self.overall_pass,
            "evaluation": self.evaluation,
            "noise_levels": list(self.noise_levels),
            "seed": self.seed,
            "config": self.config_echo,
            "checks": [
                {
                    "check_id": c.check_id,
                    "passed": c.passed,
                    "metric": c.metric,
                    "threshold": c.threshold,
                    "witness": c.witness,
                    "evidence": c.evidence,
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "AuditReport":
        doc = json.loads(text)
        checks = tuple(
            CheckResult(
                check_id=c["check_id"],
                passed=bool(c["passed"]),
                metric=float(c["metric"]),
                threshold=float(c["threshold"]),
                witness=str(c["witness"]),
                evidence=c.get("evidence"),
            )
            for c in doc["checks"]
        )
        return AuditReport(
            rule_name=doc["rule"],
            checks=checks,
            overall_pass=bool(doc["overall_pass"]),
            evaluation=doc["evaluation"],
            noise_levels=tuple(float(q) for q in doc["noise_levels"]),
            seed=int(doc["seed"]),
            config_echo=doc["config"],
        )


def _config_echo(config: AuditConfig) -> dict:
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    echo["bases"] = [b.label.lower() for b in config.bases]
    echo["noise_levels"] = [float(q) for q in config.noise_levels]
    return echo


def _corner_unitaries(bases) -> list[tuple[str, np.ndarray]]:
    out = [("identity", np.eye(2, dtype=complex))]
    for src in bases:
        for dst in bases:
            if dst is not src:
                out.append((f"{src.label}->{dst.label}", basis_change_unitary(src, dst)))
    return out


def _amps(states) -> np.ndarray:
    return np.array([s.amps for s in states]).reshape(-1, 2)


def _input_label(probe: np.ndarray, obj: np.ndarray) -> str:
    return f"input=({state_label(QubitState(probe))}, {state_label(QubitState(obj))})"


def _no_cases(check_id: str, threshold: float) -> CheckResult:
    """A check that evaluated no case shows nothing, so it fails."""
    return CheckResult(check_id, False, 1.0, threshold, "no cases evaluated", None)


def _exact_verdict(check_id: str, worst: float, witness: str, evidence, config) -> CheckResult:
    worst = max(worst, 0.0)
    return CheckResult(
        check_id, worst < config.epsilon_exact, worst, config.epsilon_exact, witness, evidence
    )


def _outcome_distance(out_a: Coupling, out_b: Coupling) -> np.ndarray:
    """Per row, the trace distance between the two sides' outcomes ``p (+) (1 - p) rho``.

    That is ``0.5 * (|p_a - p_b| + ||(1 - p_a) rho_a - (1 - p_b) rho_b||_1)``,
    the trace norm being the sum of ``|eigvalsh|`` of the Hermitian
    difference.  A row that is not ``alive`` has ``p = 1`` and a zero
    survivor, so it needs no branch.
    """
    diff = ((1.0 - out_a.p_scatter)[:, None, None] * out_a.survivors
            - (1.0 - out_b.p_scatter)[:, None, None] * out_b.survivors)
    trace_norm = np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    return 0.5 * (np.abs(out_a.p_scatter - out_b.p_scatter) + trace_norm)


def _exact_pair_verdict(check_id, config, label, out_a: Coupling, out_b: Coupling, names):
    """C2/C4 exact: the first row of worst ``_outcome_distance`` of the two couplings.

    ``names`` name the two sides in the evidence keys ``p_scatter_<name>``.
    """
    disc = _outcome_distance(out_a, out_b)
    row = int(np.argmax(disc))
    evidence = {f"p_scatter_{name}": float(out.p_scatter[row])
                for name, out in zip(names, (out_a, out_b))}
    return _exact_verdict(check_id, float(disc[row]), label(row), evidence, config)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _input_grid(corner_pairs, seed: int, stream: int, count: int) -> tuple[np.ndarray, ...]:
    """Probe and object amplitudes: the corner pairs, then ``count`` uniform pairs."""
    u = derive_rng(seed, stream).random((count, 4))
    probes = np.concatenate([_amps(p for p, _ in corner_pairs), uniform_state_amps(u[:, 0:2])])
    objects = np.concatenate([_amps(o for _, o in corner_pairs), uniform_state_amps(u[:, 2:4])])
    return _read_only(probes, objects)


# Each builder of a rule-independent grid keeps one entry, keyed on the values
# it reads; C2 and C3 keep their own, as one audit draws both.
_role_inputs = functools.lru_cache(maxsize=1)(_input_grid)
_anti_alignment_inputs = functools.lru_cache(maxsize=1)(_input_grid)


def _role_cases(rule: Rule, config: AuditConfig, corner_pairs, stream: int, count: int):
    """C2 cases, input-major then noise level: row labeller, direct and mirrored couplings."""
    probes, objects = _role_inputs(corner_pairs, config.seed, stream, count)
    levels = config.noise_levels
    direct = coupling_channel(rule, probes, objects, levels)
    mirrored = swapped_coupling_channel(rule, probes, objects, levels)

    def label(row: int) -> str:
        n, k = divmod(row, len(levels))
        return f"{_input_label(probes[n], objects[n])} q={levels[k]:g}"

    return label, direct, mirrored


@functools.lru_cache(maxsize=1)
def _covariance_grid(bases, corner_pairs, seed: int, stream: int, count: int):
    """C4 unitary names, inputs, rotated inputs, and ``U (x) U`` per input as ``(N, 1, 4, 4)``.

    Inputs are every corner unitary on every corner pair, then ``count``
    Haar unitaries, each with a uniform pair, drawn from one stream.
    """
    corners = _corner_unitaries(bases)
    u = derive_rng(seed, stream).random((count, 7))
    names = [name for name, _ in corners for _ in corner_pairs]
    names += [f"haar[{i}]" for i in range(count)]
    unitaries = np.concatenate(
        [np.repeat([m for _, m in corners], len(corner_pairs), axis=0), haar_unitaries(u[:, 0:3])]
    )
    corner_probes = np.tile(_amps(p for p, _ in corner_pairs), (len(corners), 1))
    corner_objects = np.tile(_amps(o for _, o in corner_pairs), (len(corners), 1))
    probes = np.concatenate([corner_probes, uniform_state_amps(u[:, 3:5])])
    objects = np.concatenate([corner_objects, uniform_state_amps(u[:, 5:7])])
    rotated_probes = np.einsum("nij,nj->ni", unitaries, probes)
    rotated_objects = np.einsum("nij,nj->ni", unitaries, objects)
    uu = np.einsum("nij,nkl->nikjl", unitaries, unitaries).reshape(-1, 1, 4, 4)
    return tuple(names), *_read_only(probes, objects, rotated_probes, rotated_objects, uu)


def _covariance_cases(rule: Rule, config: AuditConfig, corner_pairs, stream: int, count: int):
    """C4 cases, input-major then noise level: row labeller, rotated and conjugated couplings."""
    levels = config.noise_levels
    names, probes, objects, rotated_probes, rotated_objects, uu = _covariance_grid(
        tuple(config.bases), corner_pairs, config.seed, stream, count
    )
    rotated = coupling_channel(rule, rotated_probes, rotated_objects, levels)
    base = coupling_channel(rule, probes, objects, levels)
    survivors = uu @ base.survivors.reshape(len(probes), -1, 4, 4) @ uu.conj().swapaxes(-1, -2)
    conjugated = base._replace(survivors=survivors.reshape(-1, 4, 4))

    def label(row: int) -> str:
        n, k = divmod(row, len(levels))
        return f"unitary={names[n]} {_input_label(probes[n], objects[n])} q={levels[k]:g}"

    return label, rotated, conjugated


def _anti_alignment_cases(rule: Rule, config: AuditConfig, corner_pairs, stream: int, count: int):
    """C3 cases: the inputs whose q = 0 coupling can survive, as a labeller and their couplings."""
    probes, objects = _anti_alignment_inputs(corner_pairs, config.seed, stream, count)
    out = coupling_channel(rule, probes, objects, 0.0)
    rows = np.flatnonzero(out.alive & (out.p_scatter < 1.0 - 1e-6))

    def label(i: int) -> str:
        return _input_label(probes[rows[i]], objects[rows[i]])

    return label, Coupling(*(field[rows] for field in out))


@functools.lru_cache(maxsize=1)
def _mode_pair_grid(bases, analyzers: str):
    """C1 cases ``(swapped, object_basis, analyzer, mode2_basis)`` and their rows.

    ``analyzers`` is 'all' or 'object' (analyzer = object basis).  Mode 1
    emits the object basis, mode 2 the mode-2 basis; each pair of the two is
    checked once to share a density matrix.  Rows: ``filter_branches``
    inputs.  The analyzer rows run four per case (mode, then source state);
    each takes its coupling from one row per distinct ``(swapped,
    object_basis, source state)``, as the analyzer only changes the click
    projection.
    """
    cases = []
    for swapped in (False, True):
        for object_basis in bases:
            analyzer_list = bases if analyzers == "all" else (object_basis,)
            for analyzer in analyzer_list:
                for mode2_basis in bases:
                    if mode2_basis is object_basis:
                        continue
                    if not mutually_unbiased(object_basis, mode2_basis):
                        continue
                    cases.append((swapped, object_basis, analyzer, mode2_basis))
    for object_basis, mode2_basis in dict.fromkeys((c[1], c[3]) for c in cases):
        check_mode_equivalence(object_basis, mode2_basis)
    # one key (swapped, object basis, source basis, source state) per analyzer row
    keys = [(c[0], c[1], source, k) for c in cases for source in (c[1], c[3]) for k in (0, 1)]
    couplings = {key: n for n, key in enumerate(dict.fromkeys(keys))}
    return tuple(cases), _read_only(
        _amps(source.states()[k] for _, _, source, k in couplings),
        _amps(object_basis.b1 for _, object_basis, _, _ in couplings),
        np.array([swapped for swapped, *_ in couplings], dtype=bool),
        np.repeat([_amps(c[2].states()) for c in cases], 4, axis=0),
        np.array([couplings[key] for key in keys], dtype=int),
    )


def _mode_pair_laws(rule: Rule, config: AuditConfig, rows) -> np.ndarray:
    """Detector laws of the C1 rows, case-major then noise level, over (source mode, outcome)."""
    q = np.asarray(config.noise_levels, dtype=float)[:, None]
    branches = (x.reshape(-1, 1, 2, 2, *x.shape[1:]) for x in filter_branches(rule, *rows))
    return filter_law(q, *branches).reshape(-1, 2, 3)


# C1 compares the full detector law and the click law given survival.
_C1_VIEWS = ("full", "conditional")


def _mode_pair_witness(config: AuditConfig, cases, row: int, view: int) -> str:
    """Label of C1 row ``row`` (case-major, then noise level) in view ``view``."""
    n, k = divmod(row, len(config.noise_levels))
    swapped, object_basis, analyzer, mode2_basis = cases[n]
    role = "swapped" if swapped else "normal"
    return (
        f"roles={role} object_basis={object_basis.label} analyzer={analyzer.label} "
        f"mode2={mode2_basis.label} q={float(config.noise_levels[k]):g} view={_C1_VIEWS[view]}"
    )


def check_indistinguishability(rule: Rule, config: AuditConfig) -> CheckResult:
    """C1: mode-1 and mode-2 source statistics must be identical."""
    if config.evaluation == "mc":
        return _check_c1_mc(rule, config)
    cases, rows = _mode_pair_grid(tuple(config.bases), "all")
    if not cases:
        return _no_cases(CHECK_IDS[0], config.epsilon_exact)
    laws = _mode_pair_laws(rule, config, rows)
    conditional, defined = conditional_clicks(laws)
    both = defined.all(axis=1)
    t_full = tvd(laws[:, 0], laws[:, 1])
    t_cond = np.full(len(laws), -1.0)
    t_cond[both] = tvd(conditional[both, 0], conditional[both, 1])
    views = np.stack([t_full, t_cond], axis=1)
    n, k = divmod(int(np.argmax(views)), 2)
    evidence = {
        "mode1": [float(x) for x in laws[n, 0]],
        "mode2": [float(x) for x in laws[n, 1]],
        "tvd_full": float(t_full[n]),
        "tvd_conditional": float(t_cond[n]) if both[n] else None,
    }
    witness = _mode_pair_witness(config, cases, n, k)
    return _exact_verdict(CHECK_IDS[0], float(views[n, k]), witness, evidence, config)


def _check_c1_mc(rule: Rule, config: AuditConfig) -> CheckResult:
    cases, rows = _mode_pair_grid(tuple(config.bases), "object")
    if not cases:
        return _no_cases(CHECK_IDS[0], 1.0)
    laws = _mode_pair_laws(rule, config, rows)
    d1, d2 = (sample_counts(config.seed, config.mc_trials, laws[:, m], 11, m + 1) for m in (0, 1))
    # One column per view; the conditional one zeroes the scatter cell, which
    # the test then drops as a pooled-zero cell.
    views1, views2 = (np.stack([d, d * [1, 1, 0]], axis=1) for d in (d1, d2))

    def evidence(idx: int, view: int) -> dict:
        cells = slice(None) if view == 0 else slice(0, 2)
        return {"counts_mode1": list(map(int, d1[idx, cells])),
                "counts_mode2": list(map(int, d2[idx, cells]))}

    witness = functools.partial(_mode_pair_witness, config, cases)
    return _mc_verdict(CHECK_IDS[0], config, views1, views2, witness, evidence)


def _mc_verdict(check_id: str, config: AuditConfig, counts_a, counts_b, witness,
                evidence) -> CheckResult:
    """Family-wise verdict of one chi-square test over ``(rows, columns, cells)`` counts.

    Every comparison with a p-value must clear the shared budget
    ``epsilon_mc`` (Bonferroni).  Only the first worst one is labelled, by
    ``witness(row, column)``, with ``evidence(row, column)`` and its p-value.
    """
    _, p_values = chi_square_two_sample(counts_a, counts_b)
    informative = ~np.isnan(p_values)
    if not informative.any():
        return _no_cases(check_id, 1.0)
    threshold = 1.0 - config.epsilon_mc / int(informative.sum())
    row, column = divmod(int(np.argmax(np.where(informative, 1.0 - p_values, -1.0))),
                         p_values.shape[1])
    p_value = float(p_values[row, column])
    worst = 1.0 - p_value
    return CheckResult(check_id, worst < threshold, worst, threshold, witness(row, column),
                       {**evidence(row, column), "p_value": p_value})


def check_role_symmetry(rule: Rule, config: AuditConfig) -> CheckResult:
    """C2: exchanging the partners and SWAPping back must change nothing."""
    if config.evaluation == "mc":
        cases = _role_cases(rule, config, _MC_CORNER_PAIRS, 21, config.mc_input_samples)
        return _mc_pair_verdict(CHECK_IDS[1], config, *cases, 22)
    cases = _role_cases(rule, config, _CORNER_PAIRS, 2, config.input_samples)
    return _exact_pair_verdict(CHECK_IDS[1], config, *cases, ("direct", "swapped"))


def _outcome_laws(out: Coupling, basis: Basis) -> np.ndarray:
    """Per row, the five-outcome law: the four joint cells in ``basis`` plus scatter."""
    cells = joint_born_distribution(out.survivors, basis, basis)
    survive = 1.0 - out.p_scatter
    return np.clip(np.column_stack([survive[:, None] * cells, out.p_scatter]), 0.0, None)


def _basis_laws(out: Coupling, bases) -> np.ndarray:
    """Five-outcome laws of every row in every basis, ``(rows, bases, 5)``."""
    return np.stack([_outcome_laws(out, b) for b in bases], axis=1)


def _mc_pair_verdict(check_id, config, label, out_a: Coupling, out_b: Coupling, stream):
    """C2/C4 Monte Carlo: the two couplings' five-outcome laws compared in every basis."""
    counts_a, counts_b = (
        sample_counts(config.seed, config.mc_trials, _basis_laws(out, config.bases), stream, side)
        for side, out in ((1, out_a), (2, out_b))
    )

    def witness(row: int, k: int) -> str:
        return f"{label(row)} basis={config.bases[k].label}"

    return _mc_verdict(check_id, config, counts_a, counts_b, witness, lambda row, k: {})


def check_anti_alignment(rule: Rule, config: AuditConfig) -> CheckResult:
    """C3: coupled (q = 0) survivors carry zero aligned-cell weight in every basis."""
    if config.evaluation == "mc":
        return _check_c3_mc(rule, config)
    label, out = _anti_alignment_cases(rule, config, _CORNER_PAIRS, 3, config.input_samples)
    if not out.alive.size:
        return _no_cases(CHECK_IDS[2], config.epsilon_exact)
    cells = np.stack(
        [joint_born_distribution(out.survivors, b, b) for b in config.bases], axis=1
    )
    aligned = cells[..., 0] + cells[..., 3]
    n, k = np.unravel_index(np.argmax(aligned), aligned.shape)
    evidence = {"cells": [float(c) for c in cells[n, k]], "aligned_weight": float(aligned[n, k])}
    witness = f"{label(n)} basis={config.bases[k].label}"
    return _exact_verdict(CHECK_IDS[2], float(aligned[n, k]), witness, evidence, config)


def _check_c3_mc(rule: Rule, config: AuditConfig) -> CheckResult:
    label, out = _anti_alignment_cases(
        rule, config, _MC_CORNER_PAIRS, 31, config.mc_input_samples
    )
    threshold = 0.5 / config.mc_trials
    counts = sample_counts(config.seed, config.mc_trials, _basis_laws(out, config.bases), 32, 1)
    survivors = config.mc_trials - counts[..., 4]
    aligned_events = counts[..., 0] + counts[..., 3]
    if not survivors.any():
        return _no_cases(CHECK_IDS[2], threshold)
    fraction = aligned_events / np.maximum(survivors, 1)
    n, k = np.unravel_index(np.argmax(fraction), fraction.shape)
    worst = float(fraction[n, k])
    if worst == 0.0:
        witness, evidence = "no aligned events observed", None
    else:
        witness = f"{label(n)} basis={config.bases[k].label}"
        evidence = {"aligned_events": int(aligned_events[n, k]), "survivors": int(survivors[n, k])}
    return CheckResult(CHECK_IDS[2], worst < threshold, worst, threshold, witness, evidence)


def check_basis_covariance(rule: Rule, config: AuditConfig) -> CheckResult:
    """C4: the rule must commute with identical rotations of both inputs."""
    if config.evaluation == "mc":
        cases = _covariance_cases(rule, config, _MC_CORNER_PAIRS, 41, config.mc_unitary_samples)
        return _mc_pair_verdict(CHECK_IDS[3], config, *cases, 42)
    cases = _covariance_cases(rule, config, _CORNER_PAIRS, 4, config.unitary_samples)
    return _exact_pair_verdict(CHECK_IDS[3], config, *cases, ("rotated", "base"))


def audit_rule(rule: Rule, config: AuditConfig | None = None) -> AuditReport:
    """Run the full battery C1-C4 and combine the verdicts."""
    cfg = config if config is not None else AuditConfig()
    checks = (
        check_indistinguishability(rule, cfg),
        check_role_symmetry(rule, cfg),
        check_anti_alignment(rule, cfg),
        check_basis_covariance(rule, cfg),
    )
    return AuditReport(
        rule_name=rule.name,
        checks=checks,
        overall_pass=all(c.passed for c in checks),
        evaluation=cfg.evaluation,
        noise_levels=tuple(float(q) for q in cfg.noise_levels),
        seed=cfg.seed,
        config_echo=_config_echo(cfg),
    )
