"""Candidate non-interaction rules and the coupling channel they induce.

A coupling event between an aligned-or-not probe/object pair ends one of
two ways: the probe *scatters* (it is absorbed and dissipated, a terminal
and opaque outcome) or the pair *survives* in some joint state.  A rule
is a name, a one-line description and a *law*: a map from arrays of
input pairs to their noiseless scatter probabilities and survivor states.
Each built-in factory builds its law, and takes its name and description
from the numpy-free table ``catalog.BUILTINS``.

All built-in rules except the linear one share the universal scatter law
``p_scatter = interaction_probability(probe, object)`` (``_universal_law``);
they differ only in what they claim survives:

* ``probe-rigid``    - the probe keeps its state, the object jumps to the
                       state orthogonal to the probe's aligned partner.
* ``object-rigid``   - the mirror image: the object keeps its state.
* ``singlet``        - the survivor is the fixed maximally entangled
                       anti-aligned pair ``(|x>|y> - |y>|x>)/sqrt(2)``,
                       independent of the input.
* ``random-mix``     - the survivor is the maximally mixed pair state.
* ``preferred-basis:B`` - the survivor dephases onto the anti-aligned
                       cells ``|b1 b2>``, ``|b2 b1>`` of basis B, with
                       weights taken from the input.

``coherent-projection:B`` and custom rules are linear channels
(``_linear_law``): they carry their own scatter law (the weight removed
by their survive operator), which is precisely the kind of disagreement
the audit battery exposes.

Fly-by noise ``q`` is the probability that the coupling simply does not
happen; the outcome then blends the untouched input with the rule's own
survive branch; a level of 0 adds no input term at all.  ``coupling_channel``
evaluates a whole batch of input pairs as arrays at one noise level, and
every experiment and audit check reads its rows, each the outcome
``p (+) sigma`` of scatter probability and survive branch (the single-pair
forms and the correlation and flip runs normalise ``sigma``).  A row
does not depend on the batch it is run in, one pair's row included.
``apply_rule`` and ``swapped_channel`` are single-pair conveniences for
library callers, the latter mapped back by ``swap_back``; they stay
because the ``ifmbench`` benchmark traces them.
All functions here are pure and deterministic; randomness lives only in
the Monte Carlo engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .catalog import BUILTINS, spelled
from .states import (
    ATOL,
    PHASE_EPS,
    Basis,
    QubitState,
    SINGLET,
    _pair_amps,
    _projectors,
    _row_product,
    overlap_probability,
    parse_basis_spec,
)

# Permutation exchanging the probe and object slots: (i, j) -> (j, i).
SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

# SWAP as an index map, 2*i + j -> 2*j + i: flat entry 4*a + b of
# SWAP @ rho @ SWAP is entry 4*_SWAP_INDEX[a] + _SWAP_INDEX[b] of rho.
_SWAP_INDEX = np.array([0, 2, 1, 3])
_SWAPPED_ENTRIES = (4 * _SWAP_INDEX[:, None] + _SWAP_INDEX).reshape(-1)
_IDENTITY4 = np.eye(4, dtype=complex)
_SINGLET_DENSITY = SINGLET.density()


class InvalidRuleError(ValueError):
    """A rule definition is malformed."""


class ContractionViolationError(InvalidRuleError):
    """A custom survive operator can exceed unit probability on some input."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            "survive operator violates the contraction bound: "
            f"I - K^dag K has most-negative eigenvalue {self.min_eigenvalue:.6g}"
        )


@dataclass(frozen=True, eq=False)
class Rule:
    """One candidate non-interaction rule: its name, a one-line description and its law.

    ``law(probes, objects, inp)`` takes the ``(N, 2)`` probe and object
    amplitudes and their ``(N, 4)`` product amplitudes, and returns the
    noiseless rows ``(p_scatter, survived)``: each survive branch ``sigma`` has
    trace ``1 - p_scatter`` and is not divided by it.  ``operator`` is the
    read-only survive operator ``K`` of a linear rule, else None.
    """

    name: str
    description: str
    law: Callable
    operator: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Rule({self.name})"


def contraction_slack(operator) -> float:
    """Most-negative eigenvalue of ``I - K^dag K``; ``K`` is a contraction when it is >= 0.

    No entry of a contraction exceeds 1 in modulus.  The operator is divided
    by its largest real or imaginary part, when that exceeds 1, so that
    ``K^dag K`` does not overflow; the slack is ``-inf`` where it lies beyond
    the float range.  Every other operator, each valid rule among them, has
    scale 1, so its slack is unscaled to the bit.
    """
    op = np.asarray(operator, dtype=complex)
    scale = max(1.0, float(np.maximum(np.abs(op.real), np.abs(op.imag)).max()))
    unit = op / scale
    slack = float(np.linalg.eigvalsh(_IDENTITY4 / scale / scale - unit.conj().T @ unit).min())
    return slack * scale * scale


@dataclass(frozen=True, eq=False)
class CouplingOutcome:
    """Result of one coupling: scatter probability plus the survivor density."""

    p_scatter: float
    survive_state: np.ndarray | None

    def __post_init__(self):
        if self.survive_state is not None:
            state = np.asarray(self.survive_state, dtype=complex)
            state.setflags(write=False)
            object.__setattr__(self, "survive_state", state)


def aligned_state(obj: QubitState) -> QubitState:
    """The probe state fully absorbed by an object in state ``obj``.

    The probe and object spaces are identified amplitude-by-amplitude
    (x with x, y with y), so the aligned partner carries the same
    amplitudes; ``overlap_probability(aligned_state(w), w) == 1``.
    """
    return QubitState(obj.amps)


def interaction_probability(probe: QubitState, obj: QubitState) -> float:
    """Probability that the pair interacts: overlap with the aligned partner."""
    return overlap_probability(probe, aligned_state(obj))


def _aligned_projector(basis: Basis) -> np.ndarray:
    """Projector onto the aligned cells ``|b1 b1>``, ``|b2 b2>`` of ``basis``."""
    vectors = np.array([basis.b1.amps, basis.b2.amps])
    return _projectors(_pair_amps(vectors, vectors)).sum(axis=0)


class Coupling(NamedTuple):
    """Outcomes of a batch of couplings; row ``n`` belongs to input pair ``n``.

    ``survived`` holds each row's survive branch ``sigma`` of trace ``1 - p_scatter``.
    A pair that scatters with certainty carries ``p_scatter == 1`` exactly
    and ``sigma == 0``; every other row has ``p_scatter < 1``.
    """

    p_scatter: np.ndarray
    survived: np.ndarray


def _orthogonal(amps: np.ndarray) -> np.ndarray:
    """Per row, the state orthogonal to ``amps``: ``(-conj(a_y), conj(a_x))``."""
    return np.stack([-amps[:, 1].conj(), amps[:, 0].conj()], axis=1)


def _linear_law(operator: np.ndarray) -> Callable:
    """The law of survive operator ``K``: scatter with the weight ``K`` removes, keep ``K psi``.

    One pair's row has the bits it has among many (``_row_product``).
    """
    def law(probes, objects, inp):
        kept = _row_product(inp, operator.T)
        return np.clip(1.0 - np.sum(np.abs(kept) ** 2, axis=1), 0.0, 1.0), _projectors(kept)
    return law


def _universal_law(survivors: Callable) -> Callable:
    """The law that scatters with the interaction probability, weighting the survivor densities
    ``survivors`` maps the inputs to by the survive probability ``1 - p``."""
    def law(probes, objects, inp):
        p_scatter = np.clip(np.abs(np.sum(probes.conj() * objects, axis=1)) ** 2, 0.0, 1.0)
        return p_scatter, (1.0 - p_scatter)[:, None, None] * survivors(probes, objects, inp)
    return law


def _fixed_survivor_law(density: np.ndarray) -> Callable:
    """The universal law whose survivor is ``density`` whatever the input."""
    return _universal_law(lambda probes, objects, inp: np.broadcast_to(density, (len(inp), 4, 4)))


def _builtin(base: str, law: Callable, basis: Basis | None = None, operator=None) -> Rule:
    """Built-in ``base`` with ``law``, named and described by ``catalog.BUILTINS``."""
    return Rule(*spelled(base, None if basis is None else basis.label), law, operator)


def probe_rigid() -> Rule:
    return _builtin("probe-rigid",
                    _universal_law(lambda probes, objects, inp:
                                   _projectors(_pair_amps(probes, _orthogonal(probes)))))


def object_rigid() -> Rule:
    return _builtin("object-rigid",
                    _universal_law(lambda probes, objects, inp:
                                   _projectors(_pair_amps(_orthogonal(objects), objects))))


def singlet_rule() -> Rule:
    return _builtin("singlet", _fixed_survivor_law(_SINGLET_DENSITY))


def random_mix() -> Rule:
    return _builtin("random-mix", _fixed_survivor_law(_IDENTITY4 / 4.0))


def preferred_basis(basis: Basis) -> Rule:
    b1, b2 = basis.b1.amps, basis.b2.amps
    v12, v21 = _pair_amps(np.array([b1, b2]), np.array([b2, b1]))
    cell12, cell21 = _projectors(np.array([v12, v21]))

    def survivors(probes, objects, inp):
        w12 = np.abs(_row_product(inp, v12.conj())) ** 2
        w21 = np.abs(_row_product(inp, v21.conj())) ** 2
        total = w12 + w21
        # no anti-aligned weight to go by: split evenly between the two cells
        degenerate = total <= PHASE_EPS
        norm = np.where(degenerate, 1.0, total)
        w12 = np.where(degenerate, 0.5, w12 / norm)
        w21 = np.where(degenerate, 0.5, w21 / norm)
        return w12[:, None, None] * cell12 + w21[:, None, None] * cell21

    return _builtin("preferred-basis", _universal_law(survivors), basis)


def coherent_projection(basis: Basis) -> Rule:
    operator = _IDENTITY4 - _aligned_projector(basis)
    operator.setflags(write=False)
    return _builtin("coherent-projection", _linear_law(operator), basis, operator)


def validate_custom_rule(operator, name: str = "custom") -> Rule:
    """Check that ``K`` is a finite 4x4 contraction, ``I - K^dag K >= 0``, and wrap it as a rule."""
    try:
        op = np.array(operator, dtype=complex)
    except OverflowError:  # an integer beyond the float range
        raise InvalidRuleError("survive operator entries must be finite") from None
    if op.shape != (4, 4):
        raise InvalidRuleError(f"survive operator must be 4x4, got shape {op.shape}")
    if not np.all(np.isfinite(op)):
        raise InvalidRuleError("survive operator entries must be finite")
    slack = contraction_slack(op)
    if slack < -ATOL:
        raise ContractionViolationError(slack)
    op.setflags(write=False)
    return Rule(name or "custom", "custom survive operator K; scatter probability is 1 - |K psi|^2",
                _linear_law(op), op)


def coupling_channel(rule: Rule, probes, objects, noise_q=0.0) -> Coupling:
    """Run one coupling per row of the ``(N, 2)`` probe and object amplitude arrays.

    With probability ``noise_q`` the coupling does not happen at all and
    the input product state passes through untouched.  Otherwise the
    rule's own law applies, once per input pair.  Each row holds the scatter
    probability ``p`` and the survive branch ``(1 - q) sigma_rule + q
    |in><in|`` of trace ``1 - p``, not divided by it.  Rows whose survive
    probability is negligible report certain scatter and a zero branch.
    Amplitude rows must be normalized.  ``noise_q`` is one level in [0, 1]; a
    sequence is refused.  A level of 0 adds no input term, so a level-0 row
    is the rule's own outcome.
    """
    if np.ndim(noise_q):
        raise ValueError(f"noise_q must be one level, got {noise_q!r}")
    q = float(noise_q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"noise_q must be within [0, 1], got {q}")
    probes = np.asarray(probes, dtype=complex).reshape(-1, 2)
    objects = np.asarray(objects, dtype=complex).reshape(-1, 2)
    inp = _pair_amps(probes, objects)

    p_rule, survived = rule.law(probes, objects, inp)
    if q > 0.0:
        survived = (1.0 - q) * survived + q * _projectors(inp)
    # an alive row keeps p_scatter < 1, as (1 - q) * p_rule rounds to 1 only at q = 0, p_rule = 1
    alive = q + (1.0 - q) * (1.0 - p_rule) > PHASE_EPS
    return Coupling(np.where(alive, (1.0 - q) * p_rule, 1.0),
                    np.where(alive[:, None, None], survived, 0.0))


def swap_back(out: Coupling) -> Coupling:
    """Couplings of exchanged inputs mapped back by SWAP onto the (probe slot, object slot) space.

    SWAP is a permutation, so the survive branches are gathered, not
    multiplied: the values of ``SWAP @ sigma @ SWAP`` in a C-ordered array.
    """
    survived = out.survived.reshape(-1, 16).take(_SWAPPED_ENTRIES, axis=1)
    return out._replace(survived=survived.reshape(-1, 4, 4))


def pair_channel(rule: Rule, probe: QubitState, obj: QubitState, noise_q=0.0) -> Coupling:
    """The one-row ``coupling_channel`` of one pair."""
    return coupling_channel(rule, probe.amps, obj.amps, noise_q)


def _single(out: Coupling) -> CouplingOutcome:
    if out.p_scatter[0] == 1.0:
        return CouplingOutcome(1.0, None)
    return CouplingOutcome(float(out.p_scatter[0]), out.survived[0] / (1.0 - out.p_scatter[0]))


def apply_rule(rule: Rule, probe: QubitState, obj: QubitState, noise_q: float = 0.0) -> CouplingOutcome:
    """The single-pair form of ``coupling_channel`` at fly-by probability ``noise_q``.

    A pair that scatters with certainty reports ``p_scatter == 1`` and omits the survivor.
    """
    return _single(pair_channel(rule, probe, obj, noise_q))


def swapped_channel(rule: Rule, probe: QubitState, obj: QubitState, noise_q: float = 0.0) -> CouplingOutcome:
    """``apply_rule`` with the partners exchanged, mapped back by ``swap_back``."""
    return _single(swap_back(pair_channel(rule, obj, probe, noise_q)))


# Each built-in's factory; a rule that takes a basis takes it as ``name:basis``.
_FACTORIES = {"probe-rigid": probe_rigid, "object-rigid": object_rigid, "singlet": singlet_rule,
              "random-mix": random_mix, "preferred-basis": preferred_basis,
              "coherent-projection": coherent_projection}


def builtin_rules() -> tuple[Rule, ...]:
    """The default audit battery, singlet plus the rejected alternatives, in ``BUILTINS`` order."""
    return tuple(_FACTORIES[base]() if entry.basis is None
                 else _FACTORIES[base](parse_basis_spec(entry.basis))
                 for base, entry in BUILTINS.items())


def rule_from_name(text: str) -> Rule:
    """Resolve a rule spelling like ``singlet`` or ``preferred-basis:sigma``."""
    if not isinstance(text, str) or not text.strip():
        raise InvalidRuleError("empty rule name")
    base, _, basis_label = text.strip().lower().partition(":")
    if base not in BUILTINS:
        known = ", ".join(sorted(BUILTINS))
        raise InvalidRuleError(f"unknown rule {text.strip()!r}; built-ins: {known}")
    if BUILTINS[base].basis is None:
        if basis_label:
            raise InvalidRuleError(f"rule {base!r} does not take a basis parameter")
        return _FACTORIES[base]()
    if not basis_label:
        raise InvalidRuleError(f"rule {base!r} needs a basis, e.g. {base}:sigma")
    return _FACTORIES[base](parse_basis_spec(basis_label))


def load_rule_file(path: str) -> Rule:
    """Load a custom rule from a JSON document.

    Expected shape: ``{"name": str, "survive_operator": K}`` where ``K``
    is a 4x4 array of ``[re, im]`` pairs, row-major, flat index
    ``2*probe + object``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidRuleError(f"cannot read rule file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidRuleError(f"rule file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidRuleError("rule document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidRuleError("rule field 'name': expected a non-empty string")
    rows = doc.get("survive_operator")
    if not isinstance(rows, list) or len(rows) != 4:
        raise InvalidRuleError("rule field 'survive_operator': expected 4 rows")
    op = np.zeros((4, 4), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 4:
            raise InvalidRuleError(f"survive_operator[{r}]: expected 4 entries")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise InvalidRuleError(f"survive_operator[{r}][{c}]: expected an [re, im] number pair")
            try:
                op[r, c] = complex(float(entry[0]), float(entry[1]))
            except OverflowError:  # an integer beyond the float range reads as infinite
                op[r, c] = math.inf
            if not np.isfinite(op[r, c]):
                raise InvalidRuleError(f"survive_operator[{r}][{c}]: entries must be finite")
    return validate_custom_rule(op, name=name)
