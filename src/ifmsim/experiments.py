"""The three-stage filter device plus the correlation and flip experiments.

The device has a source (stage A), a filter (stage B) and an analyzer
(stage C).  The source emits one of the two states of its basis with
probability 1/2 each; mode 1 uses the filter particle's own eigenbasis,
mode 2 a conjugate basis (SIGMA by default).  The filter particle is
freshly prepared in ``object_state`` for every emission; nothing persists
between trials.  Surviving source particles are projected by the analyzer
onto ``analyzer_basis`` and detected; scatter events are observable as the
absence of any click.

Role assignment: with ``swapped_roles=False`` the source particle feeds
the rule's probe slot and the filter particle its object slot.  Swapping
roles exchanges the wiring (the source feeds the object slot) while the
rule itself is left untouched, which is exactly the symmetry the audit
interrogates.  The analyzer always watches the source particle.

PRNG contract: every stochastic run draws from a Philox generator keyed
through ``numpy.random.SeedSequence(seed, spawn_key=stream)``, which is
platform independent.  A run's counts are one multinomial draw of its
exact law (``sample_counts``), so the work grows with the number of
outcome cells, not with the number of trials, and identical seeds give
bit-identical counts.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .rules import Coupling, Rule, coupling_channel, pair_channel
from .states import (
    ATOL,
    BASIS_SIGMA,
    BASIS_XY,
    Basis,
    PHASE_EPS,
    QubitState,
    STATE_X,
    STATE_Y,
    density_of_ensemble,
    eigenbasis_of,
    joint_born_distribution,
    partial_trace,
)


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


class NoSurvivorsError(ValueError):
    """The requested statistics condition on survivors, but none exist."""


# Config field types by annotation: the Python types a config dataclass
# accepts, the JSON types a ``--config`` file may use, the phrase an error
# uses and the plain type a value is stored as (None: as given).  True and
# false are no numbers, though bool subclasses int.  A tuple's items are
# checked by the annotation inside it; the caller's sequence is kept, so a
# list of audit levels may still change between audits.
_FIELD_TYPES = {
    "int": ((numbers.Integral,), (int,), "an integer", int),
    "float": ((numbers.Real,), (int, float), "a number", float),
    "bool": ((bool, np.bool_), (bool,), "a bool", bool),
    "str": ((str,), (str,), "a string", str),
    "Rule": ((Rule,), (str,), "a Rule", None),
    "Basis": ((Basis,), (str,), "a Basis", None),
    "QubitState": ((QubitState,), (str,), "a QubitState", None),
    "Basis | None": ((Basis, type(None)), (str, type(None)), "a Basis or None", None),
    "tuple[Basis, ...]": ((tuple, list), (list,), "a sequence of Basis", None),
    "tuple[float, ...]": ((tuple, list), (list,), "a sequence of numbers", None),
}


def _fits(annotation: str, value, column: int) -> bool:
    """Whether ``value`` has a type of ``_FIELD_TYPES[annotation][column]`` (0: Python, 1: JSON)."""
    if not isinstance(value, _FIELD_TYPES[annotation][column]):
        return False
    if annotation.startswith("tuple["):
        return all(_fits(annotation[len("tuple["):-len(", ...]")], v, column) for v in value)
    return annotation == "bool" or not isinstance(value, bool)


def json_fits(annotation: str, value) -> bool:
    """Whether a ``--config`` value has the JSON type of a field annotated ``annotation``."""
    return _fits(annotation, value, 1)


def _field_value(name: str, annotation: str, value):
    """``value`` of the config field ``name``, a number, flag or text stored as its plain type.

    Raises ``ConfigError`` naming the field when the type does not fit ``annotation``.
    """
    _, _, phrase, store = _FIELD_TYPES[annotation]
    if not _fits(annotation, value, 0):
        raise ConfigError(f"{name} must be {phrase}, got {value!r}")
    return value if store is None else store(value)


def check_fields(config) -> None:
    """Type-check every field of a frozen config dataclass in place; see ``_field_value``."""
    for f in fields(config):
        object.__setattr__(config, f.name, _field_value(f.name, f.type, getattr(config, f.name)))


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for ``(seed, stream)``; see the module docstring."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def sample_counts(seed: int, trials: int, laws, *stream: int) -> np.ndarray:
    """Counts of ``trials`` trials for each row law of ``laws`` (..., cells), one draw.

    Rows are normalised to sum to 1, so rounding cannot trip the
    multinomial's check on the cell probabilities.  ``trials`` and ``seed``
    must be integers; bools are refused.
    """
    trials, seed = _field_value("trials", "int", trials), _field_value("seed", "int", seed)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    if trials > 2**63 - 1:  # the multinomial takes a C long
        raise ConfigError(f"trials must be <= 2**63 - 1, got {trials!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    laws = np.asarray(laws, dtype=float)
    laws = laws / laws.sum(axis=-1, keepdims=True)
    return derive_rng(seed, *stream).multinomial(trials, laws)


@dataclass(frozen=True, eq=False)
class FilterConfig:
    """One run of the filter device."""

    rule: Rule
    source_mode: int = 1
    source_basis: Basis | None = None
    object_state: QubitState = STATE_X
    analyzer_basis: Basis = BASIS_XY
    noise_q: float = 0.0
    swapped_roles: bool = False
    evaluation: str = "exact"
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.source_mode not in (1, 2):
            raise ConfigError(f"source_mode must be 1 or 2, got {self.source_mode!r}")
        if not 0.0 <= self.noise_q <= 1.0:
            raise ConfigError(f"noise_q must be within [0, 1], got {self.noise_q!r}")
        if self.evaluation not in ("exact", "mc"):
            raise ConfigError(f"evaluation must be 'exact' or 'mc', got {self.evaluation!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")

    def resolved_source_basis(self) -> Basis:
        """Explicit source basis, or the mode default.

        Mode 1 defaults to the filter particle's eigenbasis; mode 2
        defaults to SIGMA.
        """
        if self.source_basis is not None:
            return self.source_basis
        if self.source_mode == 1:
            return eigenbasis_of(self.object_state)
        return BASIS_SIGMA


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Detector statistics of one filter run; probabilities sum to 1."""

    p_click_b1: float
    p_click_b2: float
    p_scatter: float
    conditional_on_survival: tuple[float, float] | None
    counts: tuple[int, int, int] | None = None
    trials: int | None = None

    def probabilities(self) -> np.ndarray:
        return np.array([self.p_click_b1, self.p_click_b2, self.p_scatter])

    def to_dict(self) -> dict:
        return {
            "p_click_b1": self.p_click_b1,
            "p_click_b2": self.p_click_b2,
            "p_scatter": self.p_scatter,
            "conditional_on_survival": (
                None
                if self.conditional_on_survival is None
                else list(self.conditional_on_survival)
            ),
            "counts": None if self.counts is None else list(self.counts),
            "trials": self.trials,
        }


def filter_branches(rule: Rule, sources, objects, swapped, analyzers, take=slice(None)):
    """The filter device at q = 0, one row per emitted source state.

    Rows: ``(N, 2)`` source and object amplitudes, ``(N,)`` flags that feed
    the source into the object slot, ``(M, 2, 2)`` analyzer basis vectors.
    ``take`` names, per analyzer row, the coupling row it projects (by
    default row ``n`` projects row ``n``), so rows that differ only in the
    analyzer share one coupling.  Returns per analyzer row the scatter
    probability and the source particle's click laws when it survives (zero
    if it cannot) and when the coupling flies by.
    """
    sources = np.asarray(sources, dtype=complex)
    objects = np.asarray(objects, dtype=complex)
    swapped = np.asarray(swapped, dtype=bool)[:, None]
    out = coupling_channel(
        rule, np.where(swapped, objects, sources), np.where(swapped, sources, objects), 0.0
    )
    reduced = np.where(
        swapped[:, :, None],
        partial_trace(out.survivors, "object"),
        partial_trace(out.survivors, "probe"),
    )
    flyby = sources[:, :, None] * sources[:, None, :].conj()
    return out.p_scatter[take], _clicks(reduced[take], analyzers), _clicks(flyby[take], analyzers)


def _clicks(rho, analyzers) -> np.ndarray:
    """Per row, ``<v|rho|v>`` for both analyzer vectors ``v``, clipped at zero."""
    analyzers = np.asarray(analyzers, dtype=complex)
    return np.clip(np.einsum("nki,nij,nkj->nk", analyzers.conj(), rho, analyzers).real, 0.0, None)


def filter_law(q, p_scatter, survivor_clicks, flyby_clicks) -> np.ndarray:
    """Detector law ``(click b1, click b2, scatter)`` of two equally likely source branches.

    Inputs are ``filter_branches`` rows reshaped to ``(..., 2)`` branches;
    ``q`` broadcasts over the leading axes.  Terms add up in source order,
    so a case gives the same bits alone and within a grid.
    """
    q = np.asarray(q, dtype=float)[..., None]
    clicks = scatter = 0.0
    for b in (0, 1):
        p = p_scatter[..., b, None]
        scatter = scatter + 0.5 * (1.0 - q) * p
        clicks = clicks + 0.5 * q * flyby_clicks[..., b, :]
        clicks = clicks + 0.5 * (1.0 - q) * (1.0 - p) * survivor_clicks[..., b, :]
    return np.concatenate([clicks, scatter], axis=-1)


def conditional_clicks(law) -> tuple[np.ndarray, np.ndarray]:
    """Click law given survival of the ``(..., 3)`` detector laws, and where it is defined."""
    clicks = law[..., :2]
    mass = clicks.sum(axis=-1, keepdims=True)
    defined = mass[..., 0] > PHASE_EPS
    return clicks / np.where(defined[..., None], mass, 1.0), defined


def _config_branches(cfg: FilterConfig):
    """``filter_branches`` of the two source states of one run."""
    sources = [s.amps for s in cfg.resolved_source_basis().states()]
    analyzer = [cfg.analyzer_basis.b1.amps, cfg.analyzer_basis.b2.amps]
    return filter_branches(cfg.rule, sources, [cfg.object_state.amps] * 2, [cfg.swapped_roles] * 2,
                           [analyzer] * 2)


def run_filter_exact(cfg: FilterConfig) -> OutcomeDistribution:
    """Closed-form detector statistics of one filter run."""
    if cfg.evaluation != "exact":
        raise ConfigError("run_filter_exact needs evaluation='exact'")
    law = filter_law(cfg.noise_q, *_config_branches(cfg))
    conditional, defined = conditional_clicks(law)
    conditional = (float(conditional[0]), float(conditional[1])) if defined else None
    return OutcomeDistribution(float(law[0]), float(law[1]), float(law[2]), conditional)


def run_filter_mc(cfg: FilterConfig) -> OutcomeDistribution:
    """Stochastic realization of one filter run: ``cfg.trials`` draws of its exact law."""
    if cfg.evaluation != "mc":
        raise ConfigError("run_filter_mc needs evaluation='mc'")
    law = filter_law(cfg.noise_q, *_config_branches(cfg))
    counts = tuple(int(c) for c in sample_counts(cfg.seed, cfg.trials, law))
    survived = counts[0] + counts[1]
    conditional = (counts[0] / survived, counts[1] / survived) if survived else None
    return OutcomeDistribution(
        counts[0] / cfg.trials,
        counts[1] / cfg.trials,
        counts[2] / cfg.trials,
        conditional,
        counts=counts,
        trials=cfg.trials,
    )


def run_filter(cfg: FilterConfig) -> OutcomeDistribution:
    """Dispatch on ``cfg.evaluation``."""
    if cfg.evaluation == "exact":
        return run_filter_exact(cfg)
    return run_filter_mc(cfg)


def run_role_swapped(cfg: FilterConfig) -> OutcomeDistribution:
    """The same run with the probe/object roles exchanged, rule untouched."""
    return run_filter(replace(cfg, swapped_roles=not cfg.swapped_roles))


def check_mode_equivalence(basis_mode1: Basis, basis_mode2: Basis, atol: float = ATOL) -> None:
    """Assert the two 50/50 source ensembles share one density matrix."""
    rho1 = density_of_ensemble([(0.5, basis_mode1.b1), (0.5, basis_mode1.b2)])
    rho2 = density_of_ensemble([(0.5, basis_mode2.b1), (0.5, basis_mode2.b2)])
    if not np.allclose(rho1, rho2, rtol=0.0, atol=atol):
        raise ConfigError(
            f"source modes {basis_mode1.label} and {basis_mode2.label} "
            "have distinguishable density matrices"
        )


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    """Joint statistics of both survivors in one basis, flat index ``2*probe + object``."""

    cells: np.ndarray
    aligned_weight: float
    basis_label: str
    counts: np.ndarray | None = None
    survivors: int | None = None
    trials: int | None = None

    def to_dict(self) -> dict:
        return {
            "cells": {
                "b1b1": float(self.cells[0]),
                "b1b2": float(self.cells[1]),
                "b2b1": float(self.cells[2]),
                "b2b2": float(self.cells[3]),
            },
            "aligned_weight": self.aligned_weight,
            "basis": self.basis_label,
            "counts": None if self.counts is None else [int(c) for c in self.counts],
            "survivors": self.survivors,
            "trials": self.trials,
        }


def _survivor(out: Coupling) -> np.ndarray:
    """Survivor density of the one-row coupling ``out`` of an input pair."""
    if not out.alive[0]:
        raise NoSurvivorsError("survive probability is zero for this input; nothing to measure")
    return out.survivors[0]


def _survivor_counts(seed, trials, out, survivor_law):
    """Outcome counts of the surviving trials of the one-row coupling ``out`` and their number.

    One draw of the law ``((1 - p_scatter) * survivor_law, p_scatter)``, scatter cell dropped.
    """
    p_scatter = out.p_scatter[0]
    counts = sample_counts(seed, trials, np.append((1.0 - p_scatter) * survivor_law, p_scatter))
    counts = counts[:-1]
    n_survivors = int(counts.sum())
    if n_survivors == 0:
        raise NoSurvivorsError("all trials scattered; nothing to measure")
    return counts, n_survivors


def run_correlation(
    probe: QubitState,
    obj: QubitState,
    basis: Basis,
    rule: Rule,
    noise_q: float = 0.0,
) -> CorrelationResult:
    """Measure both survivors in ``basis`` and report the aligned-cell weight."""
    out = pair_channel(rule, probe, obj, noise_q)
    cells = joint_born_distribution(_survivor(out), basis, basis)
    return CorrelationResult(cells, float(cells[0] + cells[3]), basis.label)


def run_correlation_mc(
    probe: QubitState,
    obj: QubitState,
    basis: Basis,
    rule: Rule,
    noise_q: float = 0.0,
    trials: int = 100_000,
    seed: int = 0,
) -> CorrelationResult:
    """Stochastic realization of the correlation experiment: ``trials`` draws of its exact law.

    Trials that scatter yield no pair to measure; cell statistics are
    reported over the surviving trials.
    """
    out = pair_channel(rule, probe, obj, noise_q)
    counts, n_survivors = _survivor_counts(
        seed, trials, out, joint_born_distribution(out.survivors[0], basis, basis)
    )
    cells = counts / n_survivors
    return CorrelationResult(
        cells,
        float(cells[0] + cells[3]),
        basis.label,
        counts=counts,
        survivors=n_survivors,
        trials=int(trials),
    )


@dataclass(frozen=True, eq=False)
class FlipResult:
    """Probe measurement in XY plus the conditioned object state per outcome."""

    probe_probs: np.ndarray
    object_given: tuple[np.ndarray | None, np.ndarray | None]
    counts: np.ndarray | None = None
    trials: int | None = None


def run_flip(
    probe: QubitState,
    obj: QubitState,
    rule: Rule,
    noise_q: float = 0.0,
) -> FlipResult:
    """Measure the survivor's probe in XY and condition the object on the outcome."""
    return _flip(pair_channel(rule, probe, obj, noise_q))


def _flip(out: Coupling) -> FlipResult:
    """``run_flip`` of the one-row coupling ``out``."""
    rho = _survivor(out).reshape(2, 2, 2, 2)
    probs = np.empty(2)
    conditioned: list[np.ndarray | None] = []
    for k, outcome in enumerate((STATE_X, STATE_Y)):
        b = outcome.amps
        rho_obj = np.einsum("i,ijkl,k->jl", b.conj(), rho, b)
        p = float(rho_obj.trace().real)
        probs[k] = max(p, 0.0)
        conditioned.append(rho_obj / p if p > PHASE_EPS else None)
    return FlipResult(probs, (conditioned[0], conditioned[1]))


def run_flip_mc(
    probe: QubitState,
    obj: QubitState,
    rule: Rule,
    noise_q: float = 0.0,
    trials: int = 100_000,
    seed: int = 0,
) -> FlipResult:
    """Sampled probe measurement counts; conditioned object states stay exact."""
    out = pair_channel(rule, probe, obj, noise_q)
    exact = _flip(out)
    counts, n_survivors = _survivor_counts(seed, trials, out, exact.probe_probs)
    return FlipResult(counts / n_survivors, exact.object_given, counts=counts, trials=int(trials))
