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
  five-outcome law in every basis, which Monte Carlo samples.  Exact mode
  evaluates it at the lowest noise level only (see below).
* C3 anti-alignment - survivors of an actual coupling must carry zero
  weight on the aligned cells of every configured basis; evaluated on
  the coupled (q = 0) survivor, since fly-by events leave the untouched
  product state behind by construction and would mask the signature of
  every rule equally.
* C4 basis covariance - rotating both inputs by the same unitary must
  commute with the rule; metric as in C2, between the outcome of the rotated
  inputs and the rotated outcome, and like C2 evaluated at the lowest noise
  level only in exact mode.

Monte Carlo mode draws each comparison's counts at ``mc_trials`` trials
as one multinomial draw of the case's exact law, the same law the exact
evaluator builds, so the work grows with the number of cells, not with
the number of trials.  All cases of a check and side come from one Philox
stream, ``derive_rng(seed, stream, side)``, and one Born call reads the
laws of every basis.  Each check takes the two-sample chi-square p-value
of every informative comparison in one elementwise call.  The p-value
threshold ``epsilon_mc`` is spent family-wise across the check's
informative comparisons (Bonferroni), so a rule whose exact metric is zero
is not failed by a single unlucky case among many.  C3's Monte Carlo
verdict demands zero aligned events among the coupled survivors.

Fly-by noise is one axis, blended in after the rule map (``coupling_channel``
for C2/C4, ``filter_law`` for C1): each rule runs once per input pair, and
a check's rows run case-major, then noise level.  A level of 0 adds no
input term, so exact C2-C4 rows at ``q = 0`` hold only what the rule
itself gives.  C1 and Monte Carlo C2/C4 run every configured level.
Exact C2/C4 run the lowest level ``q_min`` only: a fly-by leaves the
untouched product input, which SWAP and ``U (x) U`` map alike, so it
cancels from the two sides' difference and a row at level ``q`` reads
``(1 - q) / (1 - q_min)`` times its ``q_min`` value, never more.

Every sampled quantity derives from ``AuditConfig.seed`` through fixed
streams, so identical configs produce identical reports.  Each check's
rule-independent case grid is built once per configuration and reused
across rules, and so are the joint-basis vectors every Born call reads and
C4's ``U (x) U`` adjoint.  Each cache holds one read-only entry keyed on
the values it reads, none of them a noise level, so memory stays that of
one audit and reports do not depend on call order.
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
    _expectations,
    _joint_vectors,
    basis_change_unitary,
    haar_unitaries,
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

    Counts must be finite and non-negative.  Cells with pooled count zero
    are dropped; degrees of freedom are the remaining cell count minus one;
    the p-value is the chi-square survival function at the statistic.  Two
    vectors give floats, and a ``DegenerateDataError`` when a sample is
    empty or fewer than two cells remain.  Stacks ``(..., k)`` broadcast
    over the leading axes and give arrays, NaN on such degenerate rows.

    A row whose arithmetic leaves the float range, as ``total * pooled``
    does for counts near 1e300, takes the scaled form of
    ``_scaled_statistic``; every other row, each of counts below 2**63
    among them, keeps the bits of the direct pooled-expectation form.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape[-1:] != b.shape[-1:]:
        raise DimensionMismatchError(f"outcome spaces differ: {a.shape} vs {b.shape}")
    for name, counts in (("first", a), ("second", b)):
        if not np.all(np.isfinite(counts) & (counts >= 0.0)):
            raise ValueError(f"{name} sample has a negative or non-finite count")
    a, b = np.broadcast_arrays(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
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

        stat = squared_deviations(a, total_a) + squared_deviations(b, total_b)
        overflow = valid & ~np.isfinite(stat)
        if overflow.any():
            stat = np.where(overflow, _scaled_statistic(a, b, use), stat)
    stat = np.where(valid, stat, np.nan)
    # a NaN statistic gives a NaN p-value
    return (float(stat) if stat.ndim == 0 else stat), _chi_square_sf(stat, dof)


def _scaled_statistic(a: np.ndarray, b: np.ndarray, use: np.ndarray) -> np.ndarray:
    """Per row, the two-sample statistic over the ``use`` cells, formed with no product of counts.

    The statistic equals ``T_a T_b sum (a/T_a - b/T_b)^2 / (a + b)``, with
    ``T`` the sample totals, and is homogeneous of degree 1 in the counts:
    each row is divided by its largest count, so that no total overflows,
    and its statistic multiplied back, reading ``inf`` beyond the float range.
    """
    scale = np.maximum(a.max(axis=-1), b.max(axis=-1))[..., None]
    a, b = a / scale, b / scale
    total_a, total_b = a.sum(axis=-1, keepdims=True), b.sum(axis=-1, keepdims=True)
    terms = np.divide((a / total_a - b / total_b) ** 2, a + b, out=np.zeros_like(a), where=use)
    return (terms.sum(axis=-1, keepdims=True) * total_a * total_b * scale)[..., 0]


# ``math.exp`` and ``math.erfc`` per element: ``np.exp`` differs from ``math.exp``
# in the last bit on some inputs.
_exp = np.frompyfunc(math.exp, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _chi_square_sf(stat, dof):
    """Upper tail ``P(X >= stat)`` of chi-square laws with integer ``dof >= 1``, elementwise.

    Closed forms of Abramowitz & Stegun 26.4.4 (odd dof) and 26.4.5 (even
    dof): a finite series times ``exp(-stat/2)``, plus ``erfc`` for odd dof.
    ``stat`` and ``dof`` broadcast; two scalars give a float.  A statistic
    above 1e300, whose tail is 0.0 like that of 1e300, is read as 1e300, so
    that ``2 * stat`` stays finite.
    """
    stat, dof = np.broadcast_arrays(np.minimum(np.asarray(stat, dtype=float), 1e300),
                                    np.asarray(dof, dtype=int))
    half = stat / 2.0
    odd = dof % 2 == 1
    exp = np.asarray(_exp(-half), dtype=float)
    term = np.where(odd, exp * np.sqrt(2.0 * stat / math.pi), exp)
    erfc = np.asarray(_erfc(np.sqrt(half)), dtype=float)
    total = np.where(odd, np.where(dof >= 3, erfc + term, erfc), exp)
    # the scalar series' operations in its order, so each element has its bits
    steps = (dof - 2) // 2
    for r in range(1, int(steps.max(initial=0)) + 1):
        term = np.where(steps >= r, term * np.where(odd, stat / (2 * r + 1), half / r), term)
        total = np.where(steps >= r, total + term, total)
    p_value = np.clip(total, 0.0, 1.0)
    return float(p_value) if p_value.ndim == 0 else p_value


@dataclass(frozen=True, eq=False)
class CheckResult:
    """Verdict of one check; ``passed`` holds exactly when ``metric < threshold``."""

    check_id: str
    passed: bool
    metric: float
    threshold: float
    witness: str
    evidence: dict | None = None


# C1 and the Monte Carlo C2/C4 grids grow with the level count, so it is capped
# like the sample counts (``experiments._BOUNDS``).
_MAX_NOISE_LEVELS = 16


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
        _check_noise_levels(self)


def _check_noise_levels(config: AuditConfig) -> None:
    """Refuse an empty, over-long or out-of-range level sequence.

    ``AuditConfig`` keeps the caller's sequence, which may change after
    construction, so each check calls this again before it builds rows.
    """
    if not config.noise_levels:
        raise ConfigError("noise_levels must not be empty")
    if len(config.noise_levels) > _MAX_NOISE_LEVELS:
        raise ConfigError(f"noise_levels must hold at most {_MAX_NOISE_LEVELS} levels, "
                          f"got {len(config.noise_levels)}")
    for q in config.noise_levels:
        if not 0.0 <= float(q) <= 1.0:
            raise ConfigError(f"noise level {q!r} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Per-rule verdicts for all four checks."""

    rule_name: str
    checks: tuple[CheckResult, ...]
    overall_pass: bool
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
            **{key: self.config_echo[key] for key in ("evaluation", "noise_levels", "seed")},
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


def _survivor_difference(out_a: Coupling, out_b: Coupling) -> np.ndarray:
    """Per row, ``(1 - p_a) rho_a - (1 - p_b) rho_b``, Hermitian up to rounding."""
    return ((1.0 - out_a.p_scatter)[:, None, None] * out_a.survivors
            - (1.0 - out_b.p_scatter)[:, None, None] * out_b.survivors)


def _outcome_distance(out_a: Coupling, out_b: Coupling) -> np.ndarray:
    """Per row, the trace distance between the two sides' outcomes ``p (+) (1 - p) rho``.

    That is ``0.5 * (|p_a - p_b| + ||(1 - p_a) rho_a - (1 - p_b) rho_b||_1)``,
    the trace norm being the sum of ``|eigvalsh|`` of the Hermitian
    difference.  A row that scatters with certainty has ``p = 1`` and a zero
    survivor, so it needs no branch.
    """
    return 0.5 * (np.abs(out_a.p_scatter - out_b.p_scatter)
                  + _trace_norm(_survivor_difference(out_a, out_b)))


def _trace_norm(diff: np.ndarray) -> np.ndarray:
    """Per row, the sum of ``|eigvalsh|`` of the Hermitian ``diff``."""
    return np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


# eigvalsh reads the six entries below the diagonal, each standing for itself
# and its mirror, and the real part of the four diagonal ones
_TRIL = np.tril_indices(4, -1)
_FROBENIUS_WEIGHTS = np.array([2.0] * 6 + [1.0] * 4)


def _eigvalsh_frobenius(diff: np.ndarray) -> np.ndarray:
    """Per row, the Frobenius norm of the Hermitian matrix ``eigvalsh`` reads from ``diff``.

    Each row is scaled by its largest entry first, so that squares of tiny
    differences do not underflow.
    """
    entries = np.concatenate([np.abs(diff[:, _TRIL[0], _TRIL[1]]),
                              np.abs(np.diagonal(diff, axis1=1, axis2=2).real)], axis=1)
    scale = entries.max(axis=1, keepdims=True)
    unit = entries / np.where(scale > 0.0, scale, 1.0)
    return scale[:, 0] * np.sqrt(unit ** 2 @ _FROBENIUS_WEIGHTS)


def _exact_pair_verdict(check_id, config, label, out_a: Coupling, out_b: Coupling, names):
    """C2/C4 exact: the first row of worst ``_outcome_distance`` of the two couplings.

    ``names`` name the two sides in the evidence keys ``p_scatter_<name>``.
    Only rows that can be the worst get their trace norm.  A Hermitian 4x4
    matrix of Frobenius norm ``F`` has trace norm in ``[F, 2F]``, so row ``n``
    lies within ``0.5 * (gap_n + [F_n, 2 F_n])``, with ``gap = |p_a - p_b|``
    and ``F`` taken of what ``eigvalsh`` reads (``_eigvalsh_frobenius``).
    When the largest ``gap + F`` is 0, every row is zero as ``eigvalsh``
    reads it, so row 0 is the worst at distance 0 and no ``eigvalsh`` runs.
    Otherwise the rows whose upper end, widened by 1e-9 for rounding, reaches
    the largest lower end, narrowed by as much, are the candidates, and their
    trace norms are taken of the difference already screened.  Every row
    that ties the worst is one, and ``eigvalsh`` works on each matrix alone,
    so the first worst row and its value are those of all rows.
    """
    gap = np.abs(out_a.p_scatter - out_b.p_scatter)
    diff = _survivor_difference(out_a, out_b)
    frobenius = _eigvalsh_frobenius(diff)
    top = (gap + frobenius).max()
    row, distance = 0, 0.0
    if top != 0.0:
        rows = np.flatnonzero((gap + 2.0 * frobenius) * (1.0 + 1e-9) >= top * (1.0 - 1e-9))
        disc = 0.5 * (gap[rows] + _trace_norm(diff[rows]))
        worst = int(np.argmax(disc))
        row, distance = int(rows[worst]), float(disc[worst])
    evidence = {f"p_scatter_{name}": float(out.p_scatter[row])
                for name, out in zip(names, (out_a, out_b))}
    return _exact_verdict(check_id, distance, label(row), evidence, config)


def _exact_pair_levels(config: AuditConfig) -> tuple[float]:
    """The one noise level exact C2/C4 evaluate: the lowest configured one.

    A fly-by leaves the product input, which SWAP and ``U (x) U`` map alike,
    so it is the same on both sides and cancels from their difference: at
    level ``q`` a row's distance is ``(1 - q)`` times its coupled one.  No
    higher level can beat the lowest, so the worst row and the verdict are
    those of every level.
    """
    return (min(config.noise_levels),)


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


def _role_cases(rule: Rule, config: AuditConfig, corner_pairs, stream: int, count: int,
                levels=None):
    """C2 cases, input-major then noise level: row labeller, direct and mirrored couplings.

    The levels are ``levels``, by default every configured one.
    """
    probes, objects = _role_inputs(corner_pairs, config.seed, stream, count)
    levels = config.noise_levels if levels is None else levels
    direct = coupling_channel(rule, probes, objects, levels)
    mirrored = swapped_coupling_channel(rule, probes, objects, levels)

    def label(row: int) -> str:
        n, k = divmod(row, len(levels))
        return f"{_input_label(probes[n], objects[n])} q={levels[k]:g}"

    return label, direct, mirrored


@functools.lru_cache(maxsize=1)
def _covariance_grid(bases, corner_pairs, seed: int, stream: int, count: int):
    """C4 names, distinct inputs, input index, rotated inputs, ``(U (x) U)^dag`` and ``U (x) U``.

    Inputs are every corner unitary on every corner pair, then ``count``
    Haar unitaries, each with a uniform pair, drawn from one stream.  The
    corner pairs repeat once per corner unitary, so the distinct probe and
    object amplitudes are the corner pairs then the uniform pairs, and input
    ``n`` is distinct input ``index[n]``.  The rotated inputs and ``U (x) U``,
    as ``(N, 1, 4, 4)``, run one row per input; its adjoint is the transposed
    view of its conjugate.
    """
    corners = _corner_unitaries(bases)
    u = derive_rng(seed, stream).random((count, 7))
    names = [name for name, _ in corners for _ in corner_pairs]
    names += [f"haar[{i}]" for i in range(count)]
    unitaries = np.concatenate(
        [np.repeat([m for _, m in corners], len(corner_pairs), axis=0), haar_unitaries(u[:, 0:3])]
    )
    probes = np.concatenate([_amps(p for p, _ in corner_pairs), uniform_state_amps(u[:, 3:5])])
    objects = np.concatenate([_amps(o for _, o in corner_pairs), uniform_state_amps(u[:, 5:7])])
    index = np.concatenate([np.tile(np.arange(len(corner_pairs)), len(corners)),
                            len(corner_pairs) + np.arange(count)])
    rotated_probes = np.einsum("nij,nj->ni", unitaries, probes[index])
    rotated_objects = np.einsum("nij,nj->ni", unitaries, objects[index])
    uu = np.einsum("nij,nkl->nikjl", unitaries, unitaries).reshape(-1, 1, 4, 4)
    return tuple(names), *_read_only(probes, objects, index, rotated_probes, rotated_objects,
                                     uu.conj().swapaxes(-1, -2), uu)


def _covariance_cases(rule: Rule, config: AuditConfig, corner_pairs, stream: int, count: int,
                      levels=None):
    """C4 cases, input-major then noise level: row labeller, rotated and conjugated couplings.

    The levels are ``levels``, by default every configured one.  The base
    coupling runs once per distinct input; its rows are gathered per input
    before the ``U (x) U`` conjugation.
    """
    levels = config.noise_levels if levels is None else levels
    names, probes, objects, index, rotated_probes, rotated_objects, uu_dagger, uu = (
        _covariance_grid(tuple(config.bases), corner_pairs, config.seed, stream, count))
    rotated = coupling_channel(rule, rotated_probes, rotated_objects, levels)
    base = coupling_channel(rule, probes, objects, levels)
    p_scatter = base.p_scatter.reshape(len(probes), -1)[index]
    survivors = base.survivors.reshape(len(probes), -1, 4, 4)[index]
    survivors = uu @ survivors @ uu_dagger
    conjugated = Coupling(p_scatter.reshape(-1), survivors.reshape(-1, 4, 4))

    def label(row: int) -> str:
        n, k = divmod(row, len(levels))
        m = index[n]
        return f"unitary={names[n]} {_input_label(probes[m], objects[m])} q={levels[k]:g}"

    return label, rotated, conjugated


def _anti_alignment_cases(rule: Rule, config: AuditConfig, corner_pairs, stream: int, count: int):
    """C3 cases: the inputs whose q = 0 coupling can survive, as a labeller and their couplings."""
    probes, objects = _anti_alignment_inputs(corner_pairs, config.seed, stream, count)
    out = coupling_channel(rule, probes, objects, 0.0)
    rows = np.flatnonzero(out.p_scatter < 1.0 - 1e-6)

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
    _check_noise_levels(config)
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

    Every informative comparison must clear the shared budget ``epsilon_mc``
    (Bonferroni), so the verdict reads only the family size and the largest
    ``1 - p``.  It takes the p-value of every informative comparison; the
    first worst one is labelled by ``witness(row, column)``, with
    ``evidence(row, column)`` and its p-value.
    """
    _, p_values = chi_square_two_sample(counts_a, counts_b)
    informative = ~np.isnan(p_values)
    family = int(informative.sum())
    if not family:
        return _no_cases(check_id, 1.0)
    threshold = 1.0 - config.epsilon_mc / family
    flat = int(np.argmax(np.where(informative, 1.0 - p_values, -1.0)))
    row, column = divmod(flat, p_values.shape[1])
    p_value = float(p_values[row, column])
    worst = 1.0 - p_value
    return CheckResult(check_id, worst < threshold, worst, threshold, witness(row, column),
                       {**evidence(row, column), "p_value": p_value})


def check_role_symmetry(rule: Rule, config: AuditConfig) -> CheckResult:
    """C2: exchanging the partners and SWAPping back must change nothing.

    Exact mode evaluates the lowest noise level only, which no other level
    can beat (``_exact_pair_levels``); Monte Carlo samples every level.
    """
    _check_noise_levels(config)
    if config.evaluation == "mc":
        cases = _role_cases(rule, config, _MC_CORNER_PAIRS, 21, config.mc_input_samples)
        return _mc_pair_verdict(CHECK_IDS[1], config, *cases, 22)
    cases = _role_cases(rule, config, _CORNER_PAIRS, 2, config.input_samples,
                        _exact_pair_levels(config))
    return _exact_pair_verdict(CHECK_IDS[1], config, *cases, ("direct", "swapped"))


@functools.lru_cache(maxsize=1)
def _basis_vectors(bases) -> np.ndarray:
    """The joint vectors ``|b_k b_l>`` of every basis, ``(bases, 4, 4)``, read-only."""
    return _read_only(np.stack([_joint_vectors(b, b) for b in bases]))[0]


def _basis_cells(survivors: np.ndarray, bases) -> np.ndarray:
    """Joint cells of every survivor in every basis, ``(rows, bases, 4)``, from one Born call."""
    return _expectations(survivors[:, None], _basis_vectors(tuple(bases)))


def _basis_laws(out: Coupling, bases) -> np.ndarray:
    """Five-outcome laws of every row in every basis, ``(rows, bases, 5)``.

    The law in a basis is its four joint cells, then scatter.
    """
    cells = _basis_cells(out.survivors, bases)
    scatter = np.broadcast_to(out.p_scatter[:, None, None], (*cells.shape[:2], 1))
    laws = np.concatenate([(1.0 - out.p_scatter)[:, None, None] * cells, scatter], axis=2)
    return np.clip(laws, 0.0, None)


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
    _check_noise_levels(config)
    if config.evaluation == "mc":
        return _check_c3_mc(rule, config)
    label, out = _anti_alignment_cases(rule, config, _CORNER_PAIRS, 3, config.input_samples)
    if not out.p_scatter.size:
        return _no_cases(CHECK_IDS[2], config.epsilon_exact)
    cells = _basis_cells(out.survivors, config.bases)
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
    """C4: the rule must commute with identical rotations of both inputs.

    Levels as in ``check_role_symmetry``: the lowest in exact mode, every one
    in Monte Carlo.
    """
    _check_noise_levels(config)
    if config.evaluation == "mc":
        cases = _covariance_cases(rule, config, _MC_CORNER_PAIRS, 41, config.mc_unitary_samples)
        return _mc_pair_verdict(CHECK_IDS[3], config, *cases, 42)
    cases = _covariance_cases(rule, config, _CORNER_PAIRS, 4, config.unitary_samples,
                              _exact_pair_levels(config))
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
        config_echo=_config_echo(cfg),
    )
