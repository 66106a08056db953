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
platform independent.  Per-trial randomness is taken row-wise from one
``(trials, k)`` uniform block, so trial ``i`` is a pure function of
``(seed, stream, i)`` and aggregation is order independent; identical
seeds give bit-identical counts.  The block is drawn from the one
generator in chunks of ``CHUNK_ROWS`` rows, which yields the same
uniforms as one draw while bounding memory for any trial count.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .rules import Rule, apply_rule, coupling_channel
from .states import (
    ATOL,
    BASIS_SIGMA,
    BASIS_XY,
    Basis,
    PHASE_EPS,
    QubitState,
    STATE_X,
    STATE_Y,
    born_distribution,
    density_of_ensemble,
    eigenbasis_of,
    joint_born_distribution,
    partial_trace,
    tensor_product,
)


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


class NoSurvivorsError(ValueError):
    """The requested statistics condition on survivors, but none exist."""


# Rows of the per-trial uniform block drawn at a time: 8 MB at the filter's width 4.
CHUNK_ROWS = 1 << 18


def check_integer_fields(config) -> None:
    """Reject bools and non-integers in the ``int`` fields of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for ``(seed, stream)``; see the module docstring."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *stream: int) -> int:
    """A stable 64-bit sub-seed for ``(seed, stream)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return int(ss.generate_state(1, np.uint64)[0])


def categorical_counts(law, u: np.ndarray) -> np.ndarray:
    """Cell counts of the uniforms ``u`` drawn against the cumulative sum of ``law``.

    Equal to ``np.bincount(np.searchsorted(cum, u, side="right"),
    minlength=len(law))`` with the last bound ``cum[-1]`` raised to 1, so
    every draw in [0, 1) lands in a cell.  Counting ``u >= cum[k]`` per
    bound and differencing the totals gives the same counts in a few
    linear passes instead of a binary search per draw.
    """
    bounds = np.cumsum(law)[:-1]
    at_least = [u.size] + [np.count_nonzero(u >= b) for b in bounds] + [0]
    return -np.diff(at_least)


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
        check_integer_fields(self)
        if not isinstance(self.rule, Rule):
            raise ConfigError("rule must be a Rule")
        if self.source_mode not in (1, 2):
            raise ConfigError(f"source_mode must be 1 or 2, got {self.source_mode!r}")
        if self.source_basis is not None and not isinstance(self.source_basis, Basis):
            raise ConfigError("source_basis must be a Basis or None")
        if not isinstance(self.object_state, QubitState):
            raise ConfigError("object_state must be a QubitState")
        if not isinstance(self.analyzer_basis, Basis):
            raise ConfigError("analyzer_basis must be a Basis")
        if not 0.0 <= float(self.noise_q) <= 1.0:
            raise ConfigError(f"noise_q must be within [0, 1], got {self.noise_q!r}")
        if self.evaluation not in ("exact", "mc"):
            raise ConfigError(f"evaluation must be 'exact' or 'mc', got {self.evaluation!r}")
        if int(self.trials) < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials!r}")
        if int(self.seed) < 0:
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


def filter_branches(rule: Rule, sources, objects, swapped, analyzers):
    """The filter device at q = 0, one row per emitted source state.

    Rows: ``(N, 2)`` source and object amplitudes, ``(N,)`` flags that feed
    the source into the object slot, ``(N, 2, 2)`` analyzer basis vectors.
    Returns per row the scatter probability and the source particle's click
    laws when it survives (zero if it cannot) and when the coupling flies by.
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
    return out.p_scatter, _clicks(reduced, analyzers), _clicks(flyby, analyzers)


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


def sample_branches(seed: int, trials: int, q: float, p_scatter, survivor_laws, flyby_laws):
    """Per-trial counts over one or two equally likely branches: outcome cells, then scatter.

    Trial ``i`` is row ``i`` of one uniform block: a branch column (``u >=
    1/2`` picks the second) when there are two, then fly-by (``u < q``),
    scatter and outcome.  The block is drawn in chunks of ``CHUNK_ROWS``
    rows from one generator, which gives the same rows as one draw.
    """
    rng = derive_rng(seed)
    trials = int(trials)
    width = len(p_scatter) + 2
    return sum(
        _block_counts(rng.random((min(CHUNK_ROWS, trials - start), width)), q, p_scatter,
                      survivor_laws, flyby_laws)
        for start in range(0, trials, CHUNK_ROWS)
    )


def _block_counts(u, q, p_scatter, survivor_laws, flyby_laws):
    """``sample_branches`` counts of the trials in the uniform rows ``u``.

    Outcomes are counted per (branch, fly-by) group.
    """
    n = len(p_scatter)
    source = u[:, 0] >= 0.5 if n == 2 else np.zeros(len(u), dtype=bool)
    flyby = u[:, -3] < q
    scatter = ~flyby & (u[:, -2] < np.where(source, p_scatter[-1], p_scatter[0]))
    outcome = u[:, -1]
    counts = 0
    for b in range(n):
        branch = source == bool(b)
        counts = counts + categorical_counts(flyby_laws[b], outcome[branch & flyby])
        counts = counts + categorical_counts(survivor_laws[b], outcome[branch & ~flyby & ~scatter])
    return np.append(counts, np.count_nonzero(scatter))


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
    """Trial-by-trial stochastic realization of one filter run.

    Per trial: pick the source state, decide fly-by (probability q),
    decide scatter versus survive, then sample the analyzer click from
    the surviving particle's reduced state.
    """
    if cfg.evaluation != "mc":
        raise ConfigError("run_filter_mc needs evaluation='mc'")
    counts = sample_branches(cfg.seed, cfg.trials, float(cfg.noise_q), *_config_branches(cfg))
    counts = tuple(int(c) for c in counts)
    trials = int(cfg.trials)
    survived = counts[0] + counts[1]
    conditional = (counts[0] / survived, counts[1] / survived) if survived else None
    return OutcomeDistribution(
        counts[0] / trials,
        counts[1] / trials,
        counts[2] / trials,
        conditional,
        counts=counts,
        trials=trials,
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


def _survivor_or_raise(rule: Rule, probe: QubitState, obj: QubitState, noise_q: float):
    out = apply_rule(rule, probe, obj, noise_q)
    if out.survive_state is None:
        raise NoSurvivorsError(
            "survive probability is zero for this input; nothing to measure"
        )
    return out


def _survivor_counts(seed, trials, noise_q, out, survivor_law, flyby_law):
    """Outcome counts of the surviving trials of one input pair and their number; ``out`` at q = 0."""
    if not 0.0 <= float(noise_q) <= 1.0:
        raise ConfigError(f"noise_q must be within [0, 1], got {float(noise_q)}")
    if int(trials) < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    if int(seed) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    counts = sample_branches(seed, trials, float(noise_q), out.p_scatter, survivor_law, [flyby_law])
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
    out = _survivor_or_raise(rule, probe, obj, noise_q)
    cells = joint_born_distribution(out.survive_state, basis, basis)
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
    """Per-trial realization of the correlation experiment.

    Trials that scatter yield no pair to measure; cell statistics are
    reported over the surviving trials.
    """
    out = coupling_channel(rule, probe.amps, obj.amps, 0.0)
    flyby_cells = joint_born_distribution(tensor_product(probe, obj).density(), basis, basis)
    counts, n_survivors = _survivor_counts(
        seed, trials, noise_q, out, joint_born_distribution(out.survivors, basis, basis), flyby_cells
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
    out = _survivor_or_raise(rule, probe, obj, noise_q)
    rho = np.asarray(out.survive_state).reshape(2, 2, 2, 2)
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
    """Per-trial probe measurement counts; conditioned object states stay exact."""
    exact = run_flip(probe, obj, rule, noise_q)
    out = coupling_channel(rule, probe.amps, obj.amps, 0.0)
    counts, n_survivors = _survivor_counts(
        seed, trials, noise_q, out,
        born_distribution(partial_trace(out.survivors, "probe"), BASIS_XY),
        born_distribution(probe.density(), BASIS_XY),
    )
    return FlipResult(counts / n_survivors, exact.object_given, counts=counts, trials=int(trials))
