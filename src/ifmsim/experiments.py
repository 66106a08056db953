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
seeds give bit-identical counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rules import Rule, apply_rule
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


def _branches(cfg: FilterConfig):
    """Per source state: (scatter prob, survivor click probs, fly-by click probs).

    Click probabilities refer to the analyzed particle, which is always
    the source particle; probabilities are evaluated at q=0 so the
    caller can fold fly-by noise itself (exact runs) or sample the
    fly-by branch per trial (Monte Carlo runs).
    """
    out = []
    for source_state in cfg.resolved_source_basis().states():
        if cfg.swapped_roles:
            coupled = apply_rule(cfg.rule, cfg.object_state, source_state, 0.0)
            keep = "object"
        else:
            coupled = apply_rule(cfg.rule, source_state, cfg.object_state, 0.0)
            keep = "probe"
        if coupled.survive_state is None:
            survivor_clicks = None
        else:
            reduced = partial_trace(coupled.survive_state, keep)
            survivor_clicks = born_distribution(reduced, cfg.analyzer_basis)
        flyby_clicks = born_distribution(source_state.density(), cfg.analyzer_basis)
        out.append((coupled.p_scatter, survivor_clicks, flyby_clicks))
    return out


def run_filter_exact(cfg: FilterConfig) -> OutcomeDistribution:
    """Closed-form detector statistics of one filter run."""
    if cfg.evaluation != "exact":
        raise ConfigError("run_filter_exact needs evaluation='exact'")
    q = float(cfg.noise_q)
    clicks = np.zeros(2)
    scatter = 0.0
    for p_nn, survivor_clicks, flyby_clicks in _branches(cfg):
        scatter += 0.5 * (1.0 - q) * p_nn
        clicks += 0.5 * q * flyby_clicks
        if survivor_clicks is not None:
            clicks += 0.5 * (1.0 - q) * (1.0 - p_nn) * survivor_clicks
    survive_mass = clicks.sum()
    conditional = (
        (float(clicks[0] / survive_mass), float(clicks[1] / survive_mass))
        if survive_mass > PHASE_EPS
        else None
    )
    return OutcomeDistribution(float(clicks[0]), float(clicks[1]), float(scatter), conditional)


def run_filter_mc(cfg: FilterConfig) -> OutcomeDistribution:
    """Trial-by-trial stochastic realization of one filter run.

    Per trial: pick the source state, decide fly-by (probability q),
    decide scatter versus survive, then sample the analyzer click from
    the surviving particle's reduced state.
    """
    if cfg.evaluation != "mc":
        raise ConfigError("run_filter_mc needs evaluation='mc'")
    q = float(cfg.noise_q)
    branches = _branches(cfg)
    p_nn = np.array([b[0] for b in branches])
    survivor_p1 = np.array([0.0 if b[1] is None else b[1][0] for b in branches])
    flyby_p1 = np.array([b[2][0] for b in branches])

    rng = derive_rng(cfg.seed)
    u = rng.random((int(cfg.trials), 4))
    source = (u[:, 0] >= 0.5).astype(np.intp)
    flyby = u[:, 1] < q
    scatter = ~flyby & (u[:, 2] < p_nn[source])
    p1 = np.where(flyby, flyby_p1[source], survivor_p1[source])
    click1 = ~scatter & (u[:, 3] < p1)
    click2 = ~scatter & ~click1

    counts = (int(click1.sum()), int(click2.sum()), int(scatter.sum()))
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
    if int(trials) < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    q = float(noise_q)
    coupled = apply_rule(rule, probe, obj, 0.0)
    flyby_cells = joint_born_distribution(tensor_product(probe, obj).density(), basis, basis)
    # without a survivor every coupled trial scatters, so only fly-by trials reach the detectors
    survivor_cells = (
        flyby_cells
        if coupled.survive_state is None
        else joint_born_distribution(coupled.survive_state, basis, basis)
    )

    rng = derive_rng(seed)
    u = rng.random((int(trials), 3))
    flyby = u[:, 0] < q
    scatter = ~flyby & (u[:, 1] < coupled.p_scatter)
    survived = ~scatter
    n_survivors = int(survived.sum())
    if n_survivors == 0:
        raise NoSurvivorsError("all trials scattered; nothing to measure")

    survivor_flyby = flyby[survived]
    draws = u[survived, 2]
    counts = categorical_counts(flyby_cells, draws[survivor_flyby]) + categorical_counts(
        survivor_cells, draws[~survivor_flyby]
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
    if int(trials) < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    exact = run_flip(probe, obj, rule, noise_q)
    q = float(noise_q)
    coupled = apply_rule(rule, probe, obj, 0.0)
    flyby_p_x = born_distribution(probe.density(), BASIS_XY)[0]
    survivor_p_x = (
        0.0
        if coupled.survive_state is None
        else born_distribution(partial_trace(coupled.survive_state, "probe"), BASIS_XY)[0]
    )

    rng = derive_rng(seed)
    u = rng.random((int(trials), 3))
    flyby = u[:, 0] < q
    scatter = ~flyby & (u[:, 1] < coupled.p_scatter)
    survived = ~scatter
    n_survivors = int(survived.sum())
    if n_survivors == 0:
        raise NoSurvivorsError("all trials scattered; nothing to measure")
    p_x = np.where(flyby, flyby_p_x, survivor_p_x)
    outcome_x = survived & (u[:, 2] < p_x)
    counts = np.array([int(outcome_x.sum()), n_survivors - int(outcome_x.sum())])
    return FlipResult(counts / n_survivors, exact.object_given, counts=counts, trials=int(trials))
