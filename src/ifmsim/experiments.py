"""The three-stage filter device plus the correlation and flip experiments.

The device has a source (stage A), a filter (stage B) and an analyzer
(stage C).  The source emits one of the two states of its basis with
probability 1/2 each; mode 1 uses the filter particle's own eigenbasis,
mode 2 a conjugate basis: by default the first of SIGMA, DIAG and XY
unbiased with mode 1's, or SIGMA when none is.  The filter particle is
freshly prepared in ``object_state`` for every emission; nothing persists
between trials.  Surviving source particles are projected by the analyzer
onto ``analyzer_basis`` and detected; scatter events are observable as the
absence of any click.

Role assignment: with ``swapped_roles=False`` the source particle feeds
the rule's probe slot and the filter particle its object slot.  Swapping
roles exchanges the wiring (the source feeds the object slot) while the
rule itself is left untouched, which is exactly the symmetry the audit
interrogates.  The analyzer always watches the source particle.

A run couples its two source states with ``coupling_channel`` at
``noise_q``, the one place fly-by noise enters, and ``filter_laws`` reads
its detector law from the coupling rows, as the audit's C1 does.

PRNG contract: every stochastic run draws from a Philox generator keyed
by the words ``numpy.random.SeedSequence(seed, spawn_key=stream)``
generates, which are platform independent; ``derive_rng`` hashes them once
per ``(seed, stream)`` and process, and the streams are those of a
``SeedSequence`` keyed generator.  A run's counts are one multinomial draw
of its exact law (``sample_counts``), so the work grows with the number of
outcome cells, not with the number of trials, and identical seeds give
bit-identical counts.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .rules import Coupling, Rule, coupling_channel, pair_channel
from .states import (
    ATOL,
    BASIS_DIAG,
    BASIS_SIGMA,
    BASIS_XY,
    Basis,
    PHASE_EPS,
    QubitState,
    STATE_X,
    STATE_Y,
    _expectations,
    eigenbasis_of,
    joint_born_distribution,
    mutually_unbiased,
    overlap_probability,
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
# checked by the annotation inside it and stored as given in a tuple, so a
# caller's list that changes later leaves the config as it was.
_FIELD_TYPES = {
    "int": ((numbers.Integral,), (int,), "an integer", int),
    "float": ((numbers.Real,), (int, float), "a number", float),
    "bool": ((bool, np.bool_), (bool,), "a bool", bool),
    "str": ((str,), (str,), "a string", str),
    "Rule": ((Rule,), (str,), "a Rule", None),
    "Basis": ((Basis,), (str,), "a Basis", None),
    "QubitState": ((QubitState,), (str,), "a QubitState", None),
    "Basis | None": ((Basis, type(None)), (str, type(None)), "a Basis or None", None),
    "tuple[Basis, ...]": ((tuple, list), (list,), "a sequence of Basis", tuple),
}

# Bounds of the run parameters by field name: the least value, and the most
# with the spelling messages use.  Trials are capped as the multinomial takes a
# C long.  The audit sample counts are capped as an audit builds its case grids
# whole.  Measured at these caps (``preferred-basis:sigma``, peak RSS, 2-CPU
# x86-64 host): both passes couple their table in blocks and keep its Fano rows,
# and an exact audit peaks near 232 MB, a Monte Carlo one near 510 MB.
# A field that names a choice lists its values in ``_CHOICES``.
_TRIALS_RANGE = (1, 2**63 - 1, "2**63 - 1")
_BOUNDS = {
    "seed": (0, None, None), "trials": _TRIALS_RANGE, "mc_trials": _TRIALS_RANGE,
    **dict.fromkeys(("unitary_samples", "input_samples", "mc_input_samples",
                     "mc_unitary_samples"), (1, 100_000, "100000")),
}
_CHOICES = {"evaluation": ("exact", "mc")}


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


def field_value(name: str, annotation: str, value):
    """``value`` of the config field ``name``, a number, flag or text stored as its plain type.

    Raises ``ConfigError`` naming the field when the type does not fit
    ``annotation``, a number lies beyond the float range, or the value is
    outside ``_BOUNDS`` or ``_CHOICES``.
    """
    _, _, phrase, store = _FIELD_TYPES[annotation]
    if not _fits(annotation, value, 0):
        raise ConfigError(f"{name} must be {phrase}, got {value!r}")
    try:
        value = value if store is None else store(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{name} must be {phrase} within the float range") from None
    least, most, spelled = _BOUNDS.get(name, (None, None, None))
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ConfigError(f"{name} must be <= {spelled}, got {value!r}")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise ConfigError(f"{name} must be {' or '.join(map(repr, _CHOICES[name]))}, got {value!r}")
    return value


def check_fields(config) -> None:
    """Check every field of a frozen config dataclass in place; see ``field_value``."""
    for f in fields(config):
        object.__setattr__(config, f.name, field_value(f.name, f.type, getattr(config, f.name)))


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for ``(seed, stream)``; see the module docstring.

    It draws what a generator keyed by ``SeedSequence(seed, spawn_key=stream)``
    draws, but its key words are hashed once per process (``_SeedWords``),
    and so it cannot spawn: ``Generator.spawn`` raises ``TypeError``.
    """
    words = _seed_words(int(seed), tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(words))


class _SeedWords:
    """The words ``SeedSequence(seed, spawn_key=stream)`` generates, each request hashed once.

    Served read-only, so that no generator can change what the next one reads.
    """

    def __init__(self, seed: int, stream: tuple[int, ...]):
        self._sequence = np.random.SeedSequence(entropy=seed, spawn_key=stream)
        self._words = {}

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        key = (int(n_words), np.dtype(dtype))
        if key not in self._words:
            words = self._sequence.generate_state(*key)
            words.setflags(write=False)
            self._words[key] = words
        return self._words[key]


@functools.lru_cache(maxsize=64)
def _seed_words(seed: int, stream: tuple[int, ...]) -> _SeedWords:
    # imported on the first draw, so that importing the package loads no numpy.random
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    return _SeedWords(seed, stream)


def sample_counts(seed: int, trials: int, laws, *stream: int) -> np.ndarray:
    """Counts of ``trials`` trials for each row law of ``laws`` (..., cells), one draw.

    Rows are normalised to sum to 1, so rounding cannot trip the
    multinomial's check on the cell probabilities.  ``trials`` and ``seed``
    must be integers within their ``_BOUNDS``; bools are refused.
    """
    trials, seed = field_value("trials", "int", trials), field_value("seed", "int", seed)
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
        if self.source_mode == 2 and self.source_basis is not None:
            # a basis is its two rays: its first state on either ray of mode 1 makes it mode 1's
            mode1 = eigenbasis_of(self.object_state)
            p = overlap_probability(self.source_basis.b1, mode1.b1)
            if min(p, 1.0 - p) <= ATOL:
                raise ConfigError(f"source_mode 2 needs a source basis other than the mode-1 "
                                  f"basis {mode1.label}, got source_basis {self.source_basis.label}")

    def resolved_source_basis(self) -> Basis:
        """Explicit source basis, or the mode default.

        Mode 1 defaults to the filter particle's eigenbasis; mode 2 to the
        first of SIGMA, DIAG and XY unbiased with it, and to SIGMA when none
        is, as for a generic object state.
        """
        if self.source_basis is not None:
            return self.source_basis
        eigenbasis = eigenbasis_of(self.object_state)
        if self.source_mode == 1:
            return eigenbasis
        unbiased = (b for b in (BASIS_SIGMA, BASIS_DIAG, BASIS_XY) if mutually_unbiased(eigenbasis, b))
        return next(unbiased, BASIS_SIGMA)


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


def filter_laws(out: Coupling, swapped, analyzers, take=slice(None)) -> np.ndarray:
    """Detector laws ``(click b1, click b2, scatter)`` of the filter device, one per run.

    ``out`` holds the coupling rows of the wiring, fly-by noise included, and
    ``swapped`` their ``(N,)`` flags marking the rows whose source particle
    sits in the object slot; ``analyzers`` holds ``(2 M, 2, 2)`` analyzer
    basis vectors.  ``take`` names, per analyzer row, the coupling row it
    projects (by default row ``n`` projects row ``n``), so rows that differ
    only in the analyzer share one coupling.  Each pair of analyzer rows is
    one run: the source particle's clicks, read from the survive branch with
    no division, and the scatter probability of its two equally likely source
    states, added as ``0.5 c0 + 0.5 c1`` in source order, so a run gives the
    same bits alone and within a grid.
    """
    swapped = np.asarray(swapped, dtype=bool)[:, None, None]
    reduced = np.where(swapped, partial_trace(out.survived, "object"),
                       partial_trace(out.survived, "probe"))
    branches = np.concatenate([_expectations(reduced[take], analyzers), out.p_scatter[take, None]],
                              axis=-1).reshape(-1, 2, 3)
    return 0.5 * branches[:, 0] + 0.5 * branches[:, 1]


def conditional_clicks(law) -> tuple[np.ndarray, np.ndarray]:
    """The ``(..., 3)`` detector laws given survival, scatter cell 0, and where each is defined."""
    mass = law[..., :2].sum(axis=-1, keepdims=True)
    defined = mass[..., 0] > PHASE_EPS
    return law * [1.0, 1.0, 0.0] / np.where(defined[..., None], mass, 1.0), defined


def _config_law(cfg: FilterConfig) -> np.ndarray:
    """Detector law of one run: its two source states coupled at ``cfg.noise_q``."""
    sources = np.array([s.amps for s in cfg.resolved_source_basis().states()])
    objects = np.array([cfg.object_state.amps] * 2)
    slots = (objects, sources) if cfg.swapped_roles else (sources, objects)
    analyzer = [cfg.analyzer_basis.b1.amps, cfg.analyzer_basis.b2.amps]
    out = coupling_channel(cfg.rule, *slots, cfg.noise_q)
    return filter_laws(out, [cfg.swapped_roles] * 2, [analyzer] * 2)[0]


def run_filter_exact(cfg: FilterConfig) -> OutcomeDistribution:
    """Closed-form detector statistics of one filter run."""
    if cfg.evaluation != "exact":
        raise ConfigError("run_filter_exact needs evaluation='exact'")
    law = _config_law(cfg)
    conditional, defined = conditional_clicks(law)
    conditional = (float(conditional[0]), float(conditional[1])) if defined else None
    return OutcomeDistribution(float(law[0]), float(law[1]), float(law[2]), conditional)


def run_filter_mc(cfg: FilterConfig) -> OutcomeDistribution:
    """Stochastic realization of one filter run: ``cfg.trials`` draws of its exact law."""
    if cfg.evaluation != "mc":
        raise ConfigError("run_filter_mc needs evaluation='mc'")
    law = _config_law(cfg)
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
    """Survivor density of the one-row coupling ``out`` of an input pair: its normalised branch."""
    if out.p_scatter[0] == 1.0:
        raise NoSurvivorsError("survive probability is zero for this input; nothing to measure")
    return out.survived[0] / (1.0 - out.p_scatter[0])


def _survivor_counts(seed, trials, out, survived_law):
    """Outcome counts of the surviving trials of the one-row coupling ``out`` and their number.

    One draw of the survive branch's outcome weights ``survived_law`` and ``p_scatter``.
    """
    counts = sample_counts(seed, trials, np.append(survived_law, out.p_scatter[0]))[:-1]
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
        seed, trials, out, joint_born_distribution(out.survived[0], basis, basis)
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
    counts, n_survivors = _survivor_counts(seed, trials, out,
                                           (1.0 - out.p_scatter[0]) * exact.probe_probs)
    return FlipResult(counts / n_survivors, exact.object_given, counts=counts, trials=int(trials))
