"""The four-check audit battery for candidate non-interaction rules.

Exact evaluation is the verdict of record; Monte Carlo is a statistical
cross-check.

* C1 indistinguishability - the two source modes of the filter device must stay
  indistinguishable for every role assignment and object/analyzer basis
  pairing: the worst total variation distance between their detector laws,
  scatter included, the distance given survival as evidence.  Monte Carlo
  samples the cases whose analyzer is the object basis.
* C2 role symmetry - the rule applied with the partners exchanged and mapped
  back through SWAP must give the same outcome: the worst trace distance
  between the two outcomes ``p (+) sigma``, scatter probability and survive
  branch ``sigma = (1 - p) rho``.  It is on C1's scale, continuous in the rule,
  and bounds the distance of the five-outcome law in every basis, which Monte
  Carlo samples.
* C3 anti-alignment - survive branches must carry no weight on the aligned
  cells of any configured basis: the worst aligned weight, on the same scale,
  over the inputs that survive with more than 1e-6.
* C4 basis covariance - rotating both inputs by the same unitary must commute
  with the rule; metric as in C2.

C2-C4 read each survive branch once as its real Fano matrix
``r_ab = tr(sigma P_a (x) P_b)``, ``P = (I, X, Y, Z)`` (``_fano``).  SWAP is then
``r^T``, ``U (x) U`` is ``O r O^T`` with ``O_ab = tr(P_a U P_b U^dag) / 2``, a
basis's cells are linear forms of ``r``, and its aligned weight, for Bloch axis
``m``, is ``(r_00 + m^T R m) / 2`` with ``R = r[1:, 1:]``: 0 for the singlet's
``(1 - p) diag(1, -1, -1, -1)``.  C2 and C4 bracket each row's trace norm before
they take it.  Stage 1 reads ``[F, 2 F]``, ``F = ||r_a - r_b||_2 / 2`` the
Frobenius norm of the branch difference.  When more than 44 rows remain
candidates for the worst, stage 2 reads, with ``t = dr_00`` the difference's
trace, ``L = sqrt(max(t^2, 2 F^2 - t^2))``, exact at rank 2 or less, and, for
PSD branches of traces ``a`` and ``b``, the purified Fuchs-van de Graaf bound
``U = min(2 F, sqrt((a + b)^2 - r_a . r_b))``, exact for pure branches: the
screen reads the positivity every law builds.  A row whose ``F`` or ``a + b``
lies below 1e-140, where those squares underflow, keeps ``[F, 2 F]``.  Only
the rows left take the trace norm of the rebuilt ``sum_ab dr_ab P_a (x) P_b /
4``, so the worst row and its value are those of every row.  C1 reads ``sigma``
with no division through ``experiments.filter_laws``, the filter device's one
law, which ``run filter`` reads too.  Every product gives a row the bits it has
in a batch of any size, one row included.

Every check couples at fly-by level 0.  A fly-by leaves the untouched product
input, which both C1 source modes turn into the click law of ``I/2`` and which
SWAP and ``U (x) U`` map alike, so at level ``q`` every C1, C2 and C4 metric is
``(1 - q)`` times its level-0 value, and C3 reads the rule's own survive
branch, which a fly-by only blends with the input: the level-0 verdict is the
verdict for every level in [0, 1).

Both modes run the four checks as one pass per rule, each check gathering its
rows of the pass.  One builder (``_table``) gives both modes' tables: the two
differ only in their corner pairs (``_CORNER_PAIRS`` or the compact
``_MC_CORNER_PAIRS``) and their two sample counts.  A table holds the 36 pairs
of ``CORNER_STATES`` once, then every other input of C1's, C2's and C4's
grids, 636 rows and one block at the default exact config, where coupling
each check alone took 1232, and 72 rows at the default Monte Carlo one.  It is
coupled and converted to Fano rows in blocks of 16384 rows (``_couple``), and
only the Fano rows and C1's coupling rows are kept.  Every law is a function
of rays, so an input on the rays of a corner pair reads that pair's row: C1's
coupling rows, C2's exchanged corners and C4's corners, which a basis change
among the named bases maps onto corners up to phase.  An input whose
amplitudes are not the corner's bit for bit, as C4's rotated corners and the
states of an in-process basis on corner rays, reads a row that differs from a
call of its own at rounding level.  Every other row, an input on no corner's
rays, has the bits of its check's own call.

Monte Carlo draws each comparison's counts at ``mc_trials`` trials as one
multinomial draw of the case's exact law, so the work grows with the cells, not
the trials.  Its pass (``_mc_pass``) runs one law map and one chi-square call
over every comparison of C1, C2 and C4, C1's padded with zero cells; each gives
a check's rows the bits of the check's own call, and each check keeps its own
streams, family, witness and verdict.  ``epsilon_mc`` is spent family-wise
(Bonferroni) across a check's informative comparisons, those with a p-value and
those whose two nonempty samples fill one and the same cell, at p = 1.  C3
demands zero aligned events among the survivors.

In both modes C2 draws its inputs from stream 2 and C4 from stream 4, and C3
reads C2's side a (``_anti_alignment_cases``), so stream 3 is unused.  A draw
of fewer samples is a prefix of a draw of more, and the compact corner pairs
are corner pairs, so at the default sample counts every Monte Carlo case is an
exact case.  Monte
Carlo draws the counts of each side from stream ``(10 s + 2, side)`` for check
``s``, C1's from 11, so identical configs give identical reports.  Each
table, read-only, carries its rule-independent grids (C1's with its wiring;
C2's and C4's ``_PairGrid`` of both sides' inputs, side b's map back and the
input labeller) and the basis forms.  Its cache keeps two entries, one per
mode, keyed on the values it reads, so reports do not depend on call order;
it is the module's only cache, and a pass keeps none of its rows once it
returns.  Report floats can differ
between CPUs in their last bits, verdicts should not
(``scripts/report_digest.py`` hashes them apart).  A witness label is
``state_label`` of its amplitudes, via ``_canonical_phase`` and
``_amps_label``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .experiments import (
    ConfigError,
    check_fields,
    conditional_clicks,
    derive_rng,
    filter_laws,
    sample_counts,
)
from .rules import Coupling, Rule, coupling_channel
from .states import (
    BASIS_DIAG,
    BASIS_SIGMA,
    BASIS_XY,
    Basis,
    D_MINUS,
    D_PLUS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    STATE_X,
    STATE_Y,
    _amps_label,
    _bloch,
    _canonical_phase,
    _row_product,
    basis_change_unitary,
    haar_unitaries,
    mutually_unbiased,
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
        # both samples' squared deviations in one pass, stacked on a new first axis
        samples = np.stack([a, b])
        expected = np.divide(np.stack([total_a, total_b])[..., None] * pooled,
                             (total_a + total_b)[..., None], out=np.zeros_like(samples), where=use)
        deviations = np.divide((samples - expected) ** 2, expected,
                               out=np.zeros_like(samples), where=use).sum(axis=-1)
        stat = deviations[0] + deviations[1]
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
    A cell or sample total that underflows to 0 when scaled lies below float
    resolution and adds 0; each term divides before it squares, so that a
    small difference does not underflow.
    """
    scale = np.maximum(a.max(axis=-1), b.max(axis=-1))[..., None]
    a, b = a / scale, b / scale
    total_a, total_b = a.sum(axis=-1, keepdims=True), b.sum(axis=-1, keepdims=True)
    deviation = (np.divide(a, total_a, out=np.zeros_like(a), where=total_a > 0)
                 - np.divide(b, total_b, out=np.zeros_like(b), where=total_b > 0))
    terms = deviation * np.divide(deviation, a + b, out=np.zeros_like(a), where=use & (a + b > 0))
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
    that ``2 * stat`` stays finite.  A NaN statistic gives NaN; ``math.exp``
    runs on the other statistics only, and ``math.erfc`` on those of odd dof.
    """
    stat, dof = np.broadcast_arrays(np.minimum(np.asarray(stat, dtype=float), 1e300),
                                    np.asarray(dof, dtype=int))
    half = stat / 2.0
    odd = dof % 2 == 1
    known = ~np.isnan(half)
    exp, erfc = np.full(half.shape, np.nan), np.full(half.shape, np.nan)
    exp[known] = _exp(-half[known])
    erfc[known & odd] = _erfc(np.sqrt(half[known & odd]))
    term = np.where(odd, exp * np.sqrt(2.0 * stat / math.pi), exp)
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


@dataclass(frozen=True, eq=False)
class AuditConfig:
    """Knobs of the audit battery."""

    bases: tuple[Basis, ...] = (BASIS_XY, BASIS_SIGMA, BASIS_DIAG)
    epsilon_exact: float = 1e-9
    epsilon_mc: float = 1e-3
    unitary_samples: int = 100
    input_samples: int = 200
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
            **{key: self.config_echo[key] for key in ("evaluation", "seed")},
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
    probe_label, obj_label = (_amps_label(*_canonical_phase(s.tolist())) for s in (probe, obj))
    return f"input=({probe_label}, {obj_label})"


def _no_cases(check_id: str, threshold: float) -> CheckResult:
    """A check that evaluated no case shows nothing, so it fails."""
    return CheckResult(check_id, False, 1.0, threshold, "no cases evaluated", None)


def _exact_verdict(check_id: str, worst: float, witness: str, evidence, config) -> CheckResult:
    worst = max(worst, 0.0)
    return CheckResult(
        check_id, worst < config.epsilon_exact, worst, config.epsilon_exact, witness, evidence
    )


# Pauli matrices I, X, Y, Z; ``P_a (x) P_b / 4`` is row ``4 a + b`` of ``_FANO_BASIS``.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_FANO_BASIS = np.einsum("aij,bkl->abikjl", _PAULIS, _PAULIS).reshape(16, 16) / 4.0
_FANO_DUAL = 4.0 * _FANO_BASIS.conj().T


class _Fano(NamedTuple):
    """Coupling rows in Fano form: ``p_scatter`` and the real ``r_ab = tr(sigma P_a (x) P_b)``."""

    p_scatter: np.ndarray
    r: np.ndarray


def _fano(out: Coupling) -> _Fano:
    """The coupling rows ``out`` in Fano form; each row's bits do not depend on the batch."""
    r = _row_product(out.survived.reshape(-1, 16), _FANO_DUAL).real
    return _Fano(out.p_scatter, np.ascontiguousarray(r).reshape(-1, 4, 4))


def _pauli_sum(r: np.ndarray) -> np.ndarray:
    """Per row, the Hermitian ``sum_ab r_ab P_a (x) P_b / 4`` of the real ``(N, 4, 4)`` ``r``."""
    return _row_product(r.reshape(-1, 16), _FANO_BASIS).reshape(-1, 4, 4)


def _fano_rotations(unitaries: np.ndarray) -> np.ndarray:
    """``O_ab = tr(P_a U P_b U^dag) / 2`` of each ``(2, 2)`` unitary ``U``, real ``(N, 4, 4)``."""
    turned = np.einsum("nij,bjk,nlk->nbil", unitaries, _PAULIS, unitaries.conj())
    return 0.5 * np.einsum("aji,nbij->nab", _PAULIS, turned).real


def _outcome_distance(rows_a: _Fano, rows_b: _Fano) -> np.ndarray:
    """Per row, the trace distance ``0.5 * (|p_a - p_b| + ||sigma_a - sigma_b||_1)``.

    The trace norm is the sum of ``|eigvalsh|`` of the branch difference,
    rebuilt from the difference of the Fano matrices.
    """
    return 0.5 * (np.abs(rows_a.p_scatter - rows_b.p_scatter)
                  + np.abs(np.linalg.eigvalsh(_pauli_sum(rows_a.r - rows_b.r))).sum(axis=-1))


def _half_norm(diff: np.ndarray) -> np.ndarray:
    """Per row, ``||diff||_2 / 2``, the Frobenius norm of the Pauli sum of the real ``diff``.

    A row of norm below 1e-140, whose squares can underflow, is scaled by ``2**600`` first, exactly.
    """
    flat = diff.reshape(len(diff), 16)
    norm = np.sqrt(np.einsum("nf,nf->n", flat, flat))
    tiny = norm < 1e-140
    if tiny.any():
        scaled = flat[tiny] * 2.0 ** 600
        norm[tiny] = np.sqrt(np.einsum("nf,nf->n", scaled, scaled)) * 2.0 ** -600
    return 0.5 * norm


# Stage 2 of the C2/C4 screen, the bracket, runs only on more stage-1 candidates
# than this.  On a 2-CPU x86-64 host (numpy 2.4.6) it costs about 22 us, and the
# gather and trace norm of a row about 1.0 us, so it pays once it drops 22 rows.
# It drops none of the rows tied at the worst, and C4's corner rows tie up to 34
# to a call, so it waits for twice the break-even.  Over the six built-ins and
# remove-aligned-xy at seeds 0-40, each of the 208 calls above 44 candidates
# dropped at least 22 rows; 2 of the 106 calls with 17-44 did.
_BRACKET_MIN_ROWS = 44
# Under the root of the purified bound: a share of ``(a + b)^2`` that covers the
# rounding of Fano rows whose branches are PSD in exact arithmetic, with room
# for errors of about 4e4 ulps of ``(a + b)^2``.
_PURIFIED_SLACK = 1e-11


def _trace_norm_bracket(r_a: np.ndarray, r_b: np.ndarray, frobenius: np.ndarray):
    """Per row, a lower and an upper end of ``||sigma_a - sigma_b||_1`` from the Fano matrices.

    ``frobenius`` is ``F = ||r_a - r_b||_2 / 2``, the Frobenius norm of the
    branch difference, and ``t = r_a,00 - r_b,00`` its trace.  Its eigenvalues
    give ``(sum |l|)^2 = sum l^2 + sum_{i != j} |l_i l_j| >= F^2 + |t^2 - F^2|``:
    the lower end ``L = sqrt(max(t^2, 2 F^2 - t^2))``, exact when the
    difference has rank 2 or less.  For PSD branches of traces ``a`` and
    ``b`` and fidelity ``Fid``, purification gives ``||sigma_a - sigma_b||_1
    <= sqrt((a + b)^2 - 4 Fid^2)`` (Fuchs and van de Graaf), and
    ``r_a . r_b = 4 tr(sigma_a sigma_b) <= 4 Fid^2``: the upper end
    ``U = min(2 F, sqrt((a + b)^2 - r_a . r_b))``, exact when both branches are
    pure, its root taking ``_PURIFIED_SLACK (a + b)^2`` more for rounding.  It
    needs ``sigma >= 0``, which every law builds; a non-PSD pair can exceed
    it.  A row whose ``F`` or ``a + b`` lies below 1e-140, where squares can
    underflow, keeps ``[F, 2 F]``.
    """
    a, b = r_a[:, 0, 0], r_b[:, 0, 0]
    t, mass = a - b, a + b
    overlap = (r_a * r_b).sum(axis=(1, 2))
    lower = np.sqrt(np.maximum(t * t, 2.0 * frobenius * frobenius - t * t))
    squared = mass * mass
    upper = np.minimum(2.0 * frobenius,
                       np.sqrt(np.maximum(squared - overlap, 0.0) + _PURIFIED_SLACK * squared))
    tiny = np.minimum(frobenius, mass) < 1e-140
    if tiny.any():
        lower[tiny], upper[tiny] = frobenius[tiny], 2.0 * frobenius[tiny]
    return lower, upper


def _reaching(upper: np.ndarray, top: float) -> np.ndarray:
    """The rows whose upper end, widened by 1e-9 for rounding, reaches ``top`` narrowed by as much."""
    return np.flatnonzero(upper * (1.0 + 1e-9) >= top * (1.0 - 1e-9))


def _exact_pair_verdict(check_id, config, label, rows_a: _Fano, rows_b: _Fano, names):
    """C2/C4 exact: the first row of worst ``_outcome_distance`` of the two sides' Fano rows.

    ``names`` name the sides in the evidence keys ``p_scatter_<name>``.  Row
    ``n`` lies within ``0.5 * (gap_n + [lower_n, upper_n])``, ``gap = |p_a -
    p_b|``, for ends of the trace norm of its branch difference.  Stage 1 takes
    ``[F, 2 F]``, ``F = ||r_a - r_b||_2 / 2`` the Frobenius norm: when the
    largest ``gap + F`` is 0, row 0 is the worst at distance 0 and no
    ``eigvalsh`` runs.  Otherwise the rows whose upper end, widened by 1e-9
    for rounding, reaches the largest lower end, narrowed by as much, are the
    candidates.  When more than ``_BRACKET_MIN_ROWS`` remain, stage 2 screens
    them again within ``_trace_norm_bracket``'s tighter ends, which read the
    rank of the difference and the purity of the branches and need the PSD
    branches every law builds.  Only the rows left take a trace norm; each
    row's distance does not depend on the others, so the first worst row and
    its value are those of all rows.
    """
    gap = np.abs(rows_a.p_scatter - rows_b.p_scatter)
    frobenius = _half_norm(rows_a.r - rows_b.r)
    top = (gap + frobenius).max()
    row, distance = 0, 0.0
    if top != 0.0:
        rows = _reaching(gap + 2.0 * frobenius, top)
        if len(rows) > _BRACKET_MIN_ROWS:
            lower, upper = _trace_norm_bracket(rows_a.r[rows], rows_b.r[rows], frobenius[rows])
            gaps = gap[rows]
            rows = rows[_reaching(gaps + upper, (gaps + lower).max())]
        disc = _outcome_distance(_gather(rows_a, rows), _gather(rows_b, rows))
        worst = int(np.argmax(disc))
        row, distance = int(rows[worst]), float(disc[worst])
    evidence = {f"p_scatter_{name}": float(side.p_scatter[row])
                for name, side in zip(names, (rows_a, rows_b))}
    return _exact_verdict(check_id, distance, label(row), evidence, config)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _gather(rows: tuple, index) -> tuple:
    """The rows ``index`` of each array of the named tuple ``rows``, as one of its type."""
    return type(rows)(*(x[index] for x in rows))


class _PairGrid(NamedTuple):
    """A C2/C4 grid: side a's ``split`` inputs, then side b's, whose Fano rows ``map_b`` maps back.

    ``label(n)`` names input n.  Both passes' tables stack it.
    """

    probes: np.ndarray
    objects: np.ndarray
    split: int
    map_b: Callable[[_Fano], _Fano]
    label: Callable[[int], str]


def _pair_sides(grid: _PairGrid, rows: _Fano) -> tuple[_Fano, _Fano]:
    """Side a's Fano rows of the grid's inputs, ``rows``, and side b's mapped back."""
    return (_Fano(*(x[:grid.split] for x in rows)),
            grid.map_b(_Fano(*(x[grid.split:] for x in rows))))


def _role_grid(corner_pairs, seed: int, count: int) -> _PairGrid:
    """C2's grid: the inputs, the exchanged inputs and SWAP back, the transpose ``r^T``.

    The inputs are the corner pairs, then ``count`` uniform pairs drawn from
    stream 2; exact and Monte Carlo C3 read them too, as side a.
    """
    u = derive_rng(seed, 2).random((count, 4))
    probes = np.concatenate([_amps(p for p, _ in corner_pairs), uniform_state_amps(u[:, 0:2])])
    objects = np.concatenate([_amps(o for _, o in corner_pairs), uniform_state_amps(u[:, 2:4])])
    stacked = _read_only(np.concatenate([probes, objects]), np.concatenate([objects, probes]))
    return _PairGrid(*stacked, len(probes), lambda rows: rows._replace(r=rows.r.swapaxes(-1, -2)),
                     lambda n: _input_label(stacked[0][n], stacked[1][n]))


def _rotate(index, rotations, base: _Fano) -> _Fano:
    """C4's side b: the Fano rows ``base`` of the distinct inputs, gathered per input, rotated."""
    return _Fano(base.p_scatter[index], rotations @ base.r[index] @ rotations.swapaxes(-1, -2))


def _covariance_grid(bases, corner_pairs, seed: int, count: int) -> _PairGrid:
    """C4's grid: the rotated inputs, the distinct inputs and the gather and ``O r O^T`` back.

    Inputs are every corner unitary on every corner pair, then ``count`` Haar
    unitaries, each with a uniform pair, drawn from stream 4.  Input ``n`` is
    distinct input ``index[n]`` (the corner pairs, then the uniform pairs): side
    b couples the distinct inputs, and ``map_b`` gathers them per input.
    """
    corners = _corner_unitaries(bases)
    u = derive_rng(seed, 4).random((count, 7))
    names = [name for name, _ in corners for _ in corner_pairs]
    names += [f"haar[{i}]" for i in range(count)]
    unitaries = np.concatenate(
        [np.repeat([m for _, m in corners], len(corner_pairs), axis=0), haar_unitaries(u[:, 0:3])]
    )
    probes = np.concatenate([_amps(p for p, _ in corner_pairs), uniform_state_amps(u[:, 3:5])])
    objects = np.concatenate([_amps(o for _, o in corner_pairs), uniform_state_amps(u[:, 5:7])])
    index = np.concatenate([np.tile(np.arange(len(corner_pairs)), len(corners)),
                            len(corner_pairs) + np.arange(count)])
    stacked_probes = np.concatenate([np.einsum("nij,nj->ni", unitaries, probes[index]), probes])
    stacked_objects = np.concatenate([np.einsum("nij,nj->ni", unitaries, objects[index]), objects])
    rotations = _fano_rotations(unitaries)
    _read_only(index, stacked_probes, stacked_objects, rotations)

    def label(n: int) -> str:
        m = len(index) + index[n]  # distinct input index[n], in the stacked inputs the grid keeps
        return f"unitary={names[n]} {_input_label(stacked_probes[m], stacked_objects[m])}"

    return _PairGrid(stacked_probes, stacked_objects, len(index),
                     functools.partial(_rotate, index, rotations), label)


def _anti_alignment_cases(role: _PairGrid, side_a: _Fano):
    """C3's cases in both modes: side a of C2's grid ``role``, of Fano rows ``side_a``.

    Gives a labeller and the rows surviving with > 1e-6.  A row's aligned
    weight is at most its survive probability, so a row that all but surely
    scatters passes on weight alone; with no case left, a rule that almost
    always scatters (``K = 1e-5 I``) fails as ``K = 0`` does.
    """
    rows = np.flatnonzero(side_a.p_scatter < 1.0 - 1e-6)
    return (lambda i: role.label(rows[i])), _gather(side_a, rows)


class _ModePairGrid(NamedTuple):
    """C1's rule-independent arrays: the coupling rows, the cases and their analyzer rows.

    One coupling row per distinct ``(swapped, object_basis, source state)``:
    its probe-slot and object-slot amplitudes after the role swap, and
    whether the source particle sits in the object slot.  Four analyzer rows
    per case (mode, then source state): the analyzer basis vectors and the
    coupling row each projects (``take``).  Monte Carlo reads the cases
    ``sampled``, case ``n`` on analyzer rows ``4 n`` to ``4 n + 3``.
    """

    probes: np.ndarray
    objects: np.ndarray
    swapped: np.ndarray
    cases: tuple
    analyzers: np.ndarray
    take: np.ndarray
    sampled: np.ndarray


def _mode_pair_grid(bases) -> _ModePairGrid:
    """C1 cases ``(swapped, object_basis, analyzer, mode2_basis)`` and their rows, read-only.

    Mode 1 emits the object basis, mode 2 any basis unbiased with it; both
    are orthonormal (``Basis``), so each 50/50 ensemble is ``I/2``.  Exact
    runs every case; Monte Carlo samples the cases whose analyzer sits at
    the object basis's position in the bases.  Each analyzer row takes its
    coupling from one row per distinct ``(swapped, object_basis, source
    state)``, as the analyzer only changes the click projection.
    """
    cases, sampled = [], []
    for swapped in (False, True):
        for i, obj in enumerate(bases):
            mode2_bases = [b for b in bases if b is not obj and mutually_unbiased(obj, b)]
            for j, analyzer in enumerate(bases):
                if i == j:
                    sampled += range(len(cases), len(cases) + len(mode2_bases))
                cases += [(swapped, obj, analyzer, b) for b in mode2_bases]
    # one key (swapped, object basis, source basis, source state) per analyzer row
    keys = [(c[0], c[1], source, k) for c in cases for source in (c[1], c[3]) for k in (0, 1)]
    couplings = {key: n for n, key in enumerate(dict.fromkeys(keys))}
    sources = _amps(source.states()[k] for _, _, source, k in couplings)
    objects = _amps(object_basis.b1 for _, object_basis, _, _ in couplings)
    swapped = np.array([swapped for swapped, *_ in couplings], dtype=bool)
    analyzers = np.repeat(np.array([_amps(c[2].states()) for c in cases]).reshape(-1, 2, 2), 4,
                          axis=0)
    take = np.array([couplings[key] for key in keys], dtype=int)
    return _ModePairGrid(
        *_read_only(np.where(swapped[:, None], objects, sources),
                    np.where(swapped[:, None], sources, objects), swapped),
        tuple(cases), *_read_only(analyzers, take, np.array(sampled, dtype=int)),
    )


def _mode_pair_witness(cases, row: int) -> str:
    """Label of C1 case ``row``."""
    swapped, object_basis, analyzer, mode2_basis = cases[row]
    role = "swapped" if swapped else "normal"
    return (f"roles={role} object_basis={object_basis.label} analyzer={analyzer.label} "
            f"mode2={mode2_basis.label}")


def _checks(rule: Rule, config: AuditConfig) -> tuple[CheckResult, ...]:
    """The pass of ``config.evaluation`` for ``rule``: the results of C1-C4."""
    return (_mc_pass if config.evaluation == "mc" else _exact_pass)(rule, config)


def check_indistinguishability(rule: Rule, config: AuditConfig) -> CheckResult:
    """C1: mode-1 and mode-2 source statistics must be identical.

    Runs the whole pass of ``config.evaluation`` and keeps C1's result.
    """
    return _checks(rule, config)[0]


def _exact_c1(config: AuditConfig, grid: _ModePairGrid, out: Coupling) -> CheckResult:
    """Exact C1 of the grid's coupling rows ``out``."""
    if not grid.cases:
        return _no_cases(CHECK_IDS[0], config.epsilon_exact)
    laws = filter_laws(out, grid.swapped, grid.analyzers, grid.take).reshape(-1, 2, 3)
    conditional, defined = conditional_clicks(laws)
    both = defined.all(axis=1)
    # the full view scores the case; the view given survival, in the same call, explains
    # it, and where it is not defined both sides read all scatter
    given = np.where(both[:, None, None], conditional, [0.0, 0.0, 1.0])
    views = tvd(*np.stack([laws, given], axis=2).swapaxes(0, 1))
    n = int(np.argmax(views[:, 0]))
    evidence = {
        "mode1": [float(x) for x in laws[n, 0]],
        "mode2": [float(x) for x in laws[n, 1]],
        "tvd_full": float(views[n, 0]),
        "tvd_conditional": float(views[n, 1]) if both[n] else None,
    }
    witness = _mode_pair_witness(grid.cases, n)
    return _exact_verdict(CHECK_IDS[0], float(views[n, 0]), witness, evidence, config)


def check_role_symmetry(rule: Rule, config: AuditConfig) -> CheckResult:
    """C2: exchanging the partners and SWAPping back must change nothing.

    Runs the whole pass of ``config.evaluation`` and keeps C2's result.
    """
    return _checks(rule, config)[1]


def _basis_forms(bases) -> np.ndarray:
    """Linear forms on the 16 entries of a Fano matrix ``r``, ``(bases, 4, 16)``, read-only.

    Form ``2 k + l`` of a basis of Bloch axis ``m`` reads the cell ``|b_k b_l>``,
    ``u_k^T r u_l / 4`` with ``u_1 = (1, m)`` and, the basis being orthonormal, ``u_2 = (1, -m)``.
    """
    axes = np.array([_bloch(b.b1.a_x, b.b1.a_y) for b in bases])
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    u = np.concatenate([np.ones((len(bases), 2, 1)), np.stack([axes, -axes], axis=1)], axis=2)
    return _read_only(0.25 * np.einsum("jka,jlb->jklab", u, u).reshape(len(bases), 4, 16))[0]


def _fano_laws(rows: _Fano, forms: np.ndarray) -> np.ndarray:
    """Five-outcome laws ``(rows, bases, 5)``: four joint cells, clipped at zero, then scatter."""
    cells = np.clip(np.einsum("nf,jcf->njc", rows.r.reshape(-1, 16), forms), 0.0, None)
    scatter = np.broadcast_to(rows.p_scatter[:, None, None], (*cells.shape[:2], 1))
    return np.concatenate([cells, scatter], axis=2)


def check_anti_alignment(rule: Rule, config: AuditConfig) -> CheckResult:
    """C3: survive branches carry zero aligned-cell weight in every basis.

    Runs the whole pass of ``config.evaluation`` and keeps C3's result.
    """
    return _checks(rule, config)[2]


def _exact_c3(config: AuditConfig, table: _Table, fano: _Fano) -> CheckResult:
    """Exact C3 of the table's Fano rows ``fano``."""
    role, forms = table.role, table.forms
    label, out = _anti_alignment_cases(role, _gather(fano, table.role_rows[:role.split]))
    if not out.p_scatter.size:
        return _no_cases(CHECK_IDS[2], config.epsilon_exact)
    # the aligned weight (r_00 + m^T R m) / 2 reads the aligned cells' forms summed
    aligned = np.einsum("nf,jf->nj", out.r.reshape(-1, 16), forms[:, 0] + forms[:, 3])
    n, k = np.unravel_index(np.argmax(aligned), aligned.shape)
    cells = _fano_laws(_Fano(*(x[n:n + 1] for x in out)), forms)[0, k, :4]
    evidence = {"cells": [float(c) for c in cells], "aligned_weight": float(aligned[n, k])}
    witness = f"{label(n)} basis={config.bases[k].label}"
    return _exact_verdict(CHECK_IDS[2], float(aligned[n, k]), witness, evidence, config)


def check_basis_covariance(rule: Rule, config: AuditConfig) -> CheckResult:
    """C4: the rule must commute with identical rotations of both inputs.

    Runs the whole pass of ``config.evaluation`` and keeps C4's result.
    """
    return _checks(rule, config)[3]


def _corner_pair_rows(probes: np.ndarray, objects: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Per input, the row ``len(corners) p + o`` of the corner pair on its rays, or -1.

    A state is on a corner's ray when their overlap is 1 within 1e-12; two
    of ``CORNER_STATES`` overlap 0 or 1/2, so at most one of them fits.
    """
    def corner(amps: np.ndarray) -> np.ndarray:
        fits = np.abs(amps @ corners.conj().T) ** 2 > 1.0 - 1e-12
        return np.where(fits.any(axis=1), fits.argmax(axis=1), -1)

    p, o = corner(probes), corner(objects)
    return np.where((p >= 0) & (o >= 0), len(corners) * p + o, -1)


class _Table(NamedTuple):
    """A pass's table of distinct inputs, its basis forms, and per grid the rows of its inputs.

    ``c1_rows`` are the rows of C1's coupling rows, ``role_rows`` and
    ``covariance_rows`` those of C2's and C4's stacked inputs; C3 reads C2's
    side a.
    """

    probes: np.ndarray
    objects: np.ndarray
    forms: np.ndarray
    c1: _ModePairGrid
    c1_rows: np.ndarray
    role: _PairGrid
    role_rows: np.ndarray
    covariance: _PairGrid
    covariance_rows: np.ndarray


@functools.lru_cache(maxsize=2)
def _table(bases, corner_pairs, seed: int, input_count: int, unitary_count: int) -> _Table:
    """A pass's table, read-only: the pairs of ``CORNER_STATES`` once, then every other input.

    The grids are C1's, C2's over ``corner_pairs`` and ``input_count`` drawn
    pairs, and C4's over ``corner_pairs`` and ``unitary_count`` draws.  An
    input on the rays of a corner pair reads that pair's row, as every law is
    a function of rays: C1's coupling rows, C2's exchanged corners and C4's
    corners, rotated by a basis change among the named bases or not.  Every
    other input, such as a state of an in-process basis off the corner rays,
    is a row of its own.  The two entries keep each mode's table across a
    change of mode.
    """
    corners = _amps(CORNER_STATES)
    grids = (_mode_pair_grid(bases), _role_grid(corner_pairs, seed, input_count),
             _covariance_grid(bases, corner_pairs, seed, unitary_count))
    probes = [np.repeat(corners, len(corners), axis=0)]
    objects = [np.tile(corners, (len(corners), 1))]
    rows = []
    for grid in grids:
        index = _corner_pair_rows(*grid[:2], corners)
        own = index < 0
        index[own] = sum(map(len, probes)) + np.arange(own.sum())
        probes.append(grid[0][own])
        objects.append(grid[1][own])
        rows.append(_read_only(index)[0])
    return _Table(*_read_only(np.concatenate(probes), np.concatenate(objects)), _basis_forms(bases),
                  *(x for pair in zip(grids, rows) for x in pair))


# Rows of a table coupled and converted at a time: the default tables are one
# block, and at the sample caps the complex survive branches of one block are
# held, not those of the whole table.
_TABLE_BLOCK = 16384


def _couple(rule: Rule, table: _Table) -> tuple[Coupling, _Fano]:
    """C1's coupling rows and the Fano rows of ``table``'s inputs, in blocks of ``_TABLE_BLOCK``.

    The table places C1's rows right after the corner pairs, so the first
    block, widened to them when the bases are many, holds every one.
    Only they and the Fano rows are kept; every row has the bits of a call of
    its own.
    """
    first = max(_TABLE_BLOCK, int(table.c1_rows.max(initial=-1)) + 1)
    out = coupling_channel(rule, table.probes[:first], table.objects[:first])
    c1, blocks = _gather(out, table.c1_rows), [_fano(out)]
    del out
    for start in range(first, len(table.probes), _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        blocks.append(_fano(coupling_channel(rule, table.probes[block], table.objects[block])))
    return c1, blocks[0] if len(blocks) == 1 else _Fano(*map(np.concatenate, zip(*blocks)))


def _exact_pass(rule: Rule, config: AuditConfig) -> tuple[CheckResult, ...]:
    """Exact C1-C4 of ``rule``.

    Each check gathers its rows of the coupled table by index: every row has
    the bits of the check's own call, but for an input on a corner pair's rays
    with other amplitude bits, as C4's rotated corners, which reads that
    pair's row.
    """
    table = _table(config.bases, _CORNER_PAIRS, config.seed, config.input_samples,
                   config.unitary_samples)
    c1, fano = _couple(rule, table)
    role, covariance = table.role, table.covariance
    return (
        _exact_c1(config, table.c1, c1),
        _exact_pair_verdict(CHECK_IDS[1], config, role.label,
                            *_pair_sides(role, _gather(fano, table.role_rows)),
                            ("direct", "swapped")),
        _exact_c3(config, table, fano),
        _exact_pair_verdict(CHECK_IDS[3], config, covariance.label,
                            *_pair_sides(covariance, _gather(fano, table.covariance_rows)),
                            ("rotated", "base")),
    )


def _mc_pass(rule: Rule, config: AuditConfig) -> tuple[CheckResult, ...]:
    """Monte Carlo C1-C4 of ``rule``.

    The table is built and coupled as the exact one is, over the compact
    corner pairs and the Monte Carlo sample counts.  One law map reads C2's,
    C3's and C4's laws, each check draws its counts from its own streams, and
    one chi-square call takes C1's comparisons, padded to five cells, with
    C2's and C4's; two samples that fill one and the same cell agree, at p = 1.
    The Fano rows and laws are released before that call.  C1 reads the
    analyzer rows of its sampled cases.
    """
    table = _table(config.bases, _MC_CORNER_PAIRS, config.seed, config.mc_input_samples,
                   config.mc_unitary_samples)
    c1, fano = _couple(rule, table)
    grid = table.c1
    rows = (4 * grid.sampled[:, None] + np.arange(4)).reshape(-1)
    laws = filter_laws(c1, grid.swapped, grid.analyzers[rows], grid.take[rows]).reshape(-1, 2, 3)
    mode1, mode2 = _mc_sides(config, laws[:, 0], laws[:, 1], 11)
    role = _pair_sides(table.role, _gather(fano, table.role_rows))
    aligned_label, aligned = _anti_alignment_cases(table.role, role[0])
    sides = (*role, aligned, *_pair_sides(table.covariance, _gather(fano, table.covariance_rows)))
    del fano, role, aligned  # ``sides`` holds them until the laws are read
    laws = _unstack(_fano_laws(_Fano(*map(np.concatenate, zip(*sides))), table.forms),
                    [side.p_scatter.shape for side in sides])
    del sides
    role = _mc_sides(config, laws[0], laws[1], 22)
    aligned_counts = sample_counts(config.seed, config.mc_trials, laws[2], 32, 1)
    covariance = _mc_sides(config, laws[3], laws[4], 42)
    del laws

    # per check, both sides' (rows, columns, 5) counts; one p-value per (row, column)
    comparisons = ((_c1_cells(mode1), _c1_cells(mode2)), role, covariance)
    a, b = (np.concatenate([c[side].reshape(-1, 5) for c in comparisons]) for side in (0, 1))
    _, p_values = chi_square_two_sample(a, b)
    p_values[((a + b > 0).sum(axis=1) == 1) & a.any(axis=1) & b.any(axis=1)] = 1.0
    p_c1, p_role, p_covariance = _unstack(p_values, [c[0].shape[:-1] for c in comparisons])

    return (
        _mc_verdict(CHECK_IDS[0], config, p_c1,
                    lambda row, _: _mode_pair_witness(grid.cases, grid.sampled[row]),
                    functools.partial(_c1_evidence, mode1, mode2)),
        _mc_verdict(CHECK_IDS[1], config, p_role, _basis_witness(config, table.role.label),
                    _no_evidence),
        _mc_aligned_verdict(config, aligned_label, aligned_counts),
        _mc_verdict(CHECK_IDS[3], config, p_covariance,
                    _basis_witness(config, table.covariance.label), _no_evidence),
    )


def _unstack(stacked: np.ndarray, shapes) -> list[np.ndarray]:
    """The consecutive blocks of ``stacked``'s rows, block ``i`` reshaped to ``shapes[i]`` rows."""
    sizes = [math.prod(shape) for shape in shapes]
    return [part.reshape(*shape, *stacked.shape[1:]) for part, shape in
            zip(np.split(stacked, np.cumsum(sizes)[:-1]), shapes)]


def _c1_cells(counts: np.ndarray) -> np.ndarray:
    """C1's ``(rows, 3)`` counts as ``(rows, 1, 5)`` comparisons of the full detector law.

    They are padded to the five cells of C2/C4 with zero cells, which the
    test drops as pooled-zero cells, so each keeps its statistic, dof and
    p-value bits.
    """
    return np.concatenate([counts, np.zeros((len(counts), 2), dtype=counts.dtype)], axis=1)[:, None]


def _c1_evidence(mode1: np.ndarray, mode2: np.ndarray, row: int, column: int) -> dict:
    """The counts of C1 comparison ``row``; C1 has one column."""
    return {"counts_mode1": list(map(int, mode1[row])), "counts_mode2": list(map(int, mode2[row]))}


def _basis_witness(config: AuditConfig, input_label):
    """Witness of C2/C4 comparison ``(row, basis)``: the row's input label, then the basis."""
    return lambda row, k: f"{input_label(row)} basis={config.bases[k].label}"


def _no_evidence(row: int, k: int) -> dict:
    return {}


def _mc_sides(config: AuditConfig, laws_a, laws_b, stream: int):
    """Counts of both sides' laws at ``mc_trials`` trials, from sides 1 and 2 of ``stream``."""
    return (sample_counts(config.seed, config.mc_trials, laws_a, stream, 1),
            sample_counts(config.seed, config.mc_trials, laws_b, stream, 2))


def _mc_verdict(check_id: str, config: AuditConfig, p_values, witness, evidence) -> CheckResult:
    """Family-wise verdict of a check's ``(rows, columns)`` chi-square p-values.

    A NaN p-value marks a comparison that is not informative.  Every
    informative comparison must clear the shared budget ``epsilon_mc``
    (Bonferroni), so the verdict reads only the family size and the largest
    ``1 - p``.  The first worst comparison is labelled by
    ``witness(row, column)``, with ``evidence(row, column)`` and its p-value.
    """
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


def _mc_aligned_verdict(config: AuditConfig, label, counts: np.ndarray) -> CheckResult:
    """C3 Monte Carlo: no aligned event among the survivors of the ``(rows, bases, 5)`` counts."""
    threshold = 0.5 / config.mc_trials
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


def audit_rule(rule: Rule, config: AuditConfig | None = None) -> AuditReport:
    """Run the full battery C1-C4, one pass of ``evaluation``, and combine the verdicts."""
    cfg = config if config is not None else AuditConfig()
    checks = _checks(rule, cfg)
    return AuditReport(
        rule_name=rule.name,
        checks=checks,
        overall_pass=all(c.passed for c in checks),
        config_echo=_config_echo(cfg),
    )
