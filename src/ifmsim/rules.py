"""Candidate non-interaction rules and the coupling channel they induce.

A coupling event between an aligned-or-not probe/object pair ends one of
two ways: the probe *scatters* (it is absorbed and dissipated, a terminal
and opaque outcome) or the pair *survives* in some joint state.  A rule
is exactly a prescription for that survivor state.

All built-in rules except the linear-channel ones share the universal
scatter law ``p_scatter = interaction_probability(probe, object)``; they
differ only in what they claim survives:

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

``coherent-projection:B`` and ``custom`` are linear channels: they carry
their own scatter law (the weight removed by their survive operator),
which is precisely the kind of disagreement the audit battery exposes.

Fly-by noise ``q`` is the probability that the coupling simply does not
happen; the outcome then blends the untouched input with the rule's own
survivor.  ``coupling_channel`` evaluates a whole batch of input pairs
as arrays, at one noise level or several, and every experiment and audit
check reads its rows.  ``apply_rule`` and ``swapped_channel`` are
single-pair conveniences for library callers; they stay because the
``ifmbench`` benchmark traces them.  All functions here are pure and
deterministic; randomness lives only in the Monte Carlo engine.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    ATOL,
    PHASE_EPS,
    Basis,
    QubitState,
    SINGLET,
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


class RuleKind(enum.Enum):
    PROBE_RIGID = "probe-rigid"
    OBJECT_RIGID = "object-rigid"
    SINGLET = "singlet"
    RANDOM_MIX = "random-mix"
    PREFERRED_BASIS = "preferred-basis"
    COHERENT_PROJECTION = "coherent-projection"
    CUSTOM = "custom"


_BASIS_KINDS = (RuleKind.PREFERRED_BASIS, RuleKind.COHERENT_PROJECTION)


@dataclass(frozen=True, eq=False)
class Rule:
    """One candidate non-interaction rule.

    ``operator`` is the survive operator ``K`` of the linear kinds: given
    for ``custom``, and ``I - P_aligned(basis)`` for ``coherent-projection``.
    """

    kind: RuleKind
    basis: Basis | None = None
    operator: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind in _BASIS_KINDS and self.basis is None:
            raise InvalidRuleError(f"{self.kind.value} rule needs a basis")
        if self.kind is RuleKind.CUSTOM:
            if self.operator is None:
                raise InvalidRuleError("custom rule needs a survive operator")
            op = np.array(self.operator, dtype=complex)
            if op.shape != (4, 4):
                raise InvalidRuleError(f"survive operator must be 4x4, got shape {op.shape}")
            if not np.all(np.isfinite(op)):
                raise InvalidRuleError("survive operator entries must be finite")
            slack = contraction_slack(op)
            if slack < -ATOL:
                raise ContractionViolationError(slack)
            op.setflags(write=False)
            object.__setattr__(self, "operator", op)
        elif self.kind is RuleKind.COHERENT_PROJECTION:
            op = _IDENTITY4 - _aligned_projector(self.basis)
            op.setflags(write=False)
            object.__setattr__(self, "operator", op)
        elif self.operator is not None:
            raise InvalidRuleError(f"{self.kind.value} rule takes no survive operator")
        if not self.name:
            name = self.kind.value
            if self.basis is not None:
                name = f"{name}:{self.basis.label.lower()}"
            object.__setattr__(self, "name", name)

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


def probe_rigid() -> Rule:
    return Rule(RuleKind.PROBE_RIGID)


def object_rigid() -> Rule:
    return Rule(RuleKind.OBJECT_RIGID)


def singlet_rule() -> Rule:
    return Rule(RuleKind.SINGLET)


def random_mix() -> Rule:
    return Rule(RuleKind.RANDOM_MIX)


def preferred_basis(basis: Basis) -> Rule:
    return Rule(RuleKind.PREFERRED_BASIS, basis=basis)


def coherent_projection(basis: Basis) -> Rule:
    return Rule(RuleKind.COHERENT_PROJECTION, basis=basis)


def validate_custom_rule(operator, name: str = "custom") -> Rule:
    """Check the contraction bound ``I - K^dag K >= 0`` and wrap ``K`` as a rule."""
    op = np.asarray(operator, dtype=complex)
    return Rule(RuleKind.CUSTOM, operator=op, name=name)


def builtin_rules() -> tuple[Rule, ...]:
    """The default audit battery, singlet plus the rejected alternatives."""
    from .states import BASIS_SIGMA, BASIS_XY

    return (
        probe_rigid(),
        object_rigid(),
        singlet_rule(),
        random_mix(),
        preferred_basis(BASIS_SIGMA),
        coherent_projection(BASIS_XY),
    )


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

    A pair that scatters with certainty carries ``p_scatter == 1`` exactly
    and an all-zero survivor; every other row has ``p_scatter < 1``.
    """

    p_scatter: np.ndarray
    survivors: np.ndarray


def _pair_amps(probes: np.ndarray, objects: np.ndarray) -> np.ndarray:
    """Product amplitudes ``probe_i * object_j`` at flat index ``2*i + j``, per row."""
    return (probes[:, :, None] * objects[:, None, :]).reshape(-1, 4)


def _projectors(amps: np.ndarray) -> np.ndarray:
    """``|v><v|`` for every row ``v`` of ``amps``."""
    return amps[:, :, None] * amps[:, None, :].conj()


def _orthogonal(amps: np.ndarray) -> np.ndarray:
    """Per row, the state orthogonal to ``amps``: ``(-conj(a_y), conj(a_x))``."""
    return np.stack([-amps[:, 1].conj(), amps[:, 0].conj()], axis=1)


def _universal_survivors(rule: Rule, probes, objects, inp) -> np.ndarray:
    """Noiseless survivor densities of the kinds that obey the universal scatter law."""
    n = len(inp)
    if rule.kind is RuleKind.PROBE_RIGID:
        return _projectors(_pair_amps(probes, _orthogonal(probes)))
    if rule.kind is RuleKind.OBJECT_RIGID:
        return _projectors(_pair_amps(_orthogonal(objects), objects))
    if rule.kind is RuleKind.SINGLET:
        return np.broadcast_to(_SINGLET_DENSITY, (n, 4, 4))
    if rule.kind is RuleKind.RANDOM_MIX:
        return np.broadcast_to(_IDENTITY4 / 4.0, (n, 4, 4))
    if rule.kind is RuleKind.PREFERRED_BASIS:
        v12 = np.kron(rule.basis.b1.amps, rule.basis.b2.amps)
        v21 = np.kron(rule.basis.b2.amps, rule.basis.b1.amps)
        w12 = np.abs(inp @ v12.conj()) ** 2
        w21 = np.abs(inp @ v21.conj()) ** 2
        total = w12 + w21
        # no anti-aligned weight to go by: split evenly between the two cells
        degenerate = total <= PHASE_EPS
        norm = np.where(degenerate, 1.0, total)
        w12 = np.where(degenerate, 0.5, w12 / norm)
        w21 = np.where(degenerate, 0.5, w21 / norm)
        return (
            w12[:, None, None] * np.outer(v12, v12.conj())
            + w21[:, None, None] * np.outer(v21, v21.conj())
        )
    raise InvalidRuleError(f"no survivor map for rule kind {rule.kind}")


def coupling_channel(rule: Rule, probes, objects, noise_q=0.0) -> Coupling:
    """Run one coupling per row of the ``(N, 2)`` probe and object amplitude arrays.

    With probability ``noise_q`` the coupling does not happen at all and
    the input product state passes through untouched.  Otherwise the
    rule's own scatter law and survivor map apply: a linear rule with
    survive operator ``K`` scatters with the weight ``K`` removes and
    keeps ``K psi``; every other kind scatters with the interaction
    probability.  Rows whose overall survive probability is negligible
    report certain scatter.  Amplitude rows must be normalized.

    ``noise_q`` is one level or a 1-D sequence of ``L`` levels.  The rule
    runs once per input pair; the fly-by blend then broadcasts over the
    levels, and row ``n*L + k`` holds pair ``n`` at level ``k``, so one
    level gives one row per pair.
    """
    q = np.asarray(noise_q, dtype=float).reshape(-1)
    outside = ~((0.0 <= q) & (q <= 1.0))
    if outside.any():
        raise ValueError(f"noise_q must be within [0, 1], got {float(q[outside][0])}")
    probes = np.asarray(probes, dtype=complex).reshape(-1, 2)
    objects = np.asarray(objects, dtype=complex).reshape(-1, 2)
    inp = _pair_amps(probes, objects)

    if rule.operator is not None:
        kept = inp @ rule.operator.T
        survive_nn = np.sum(np.abs(kept) ** 2, axis=1)
        p_nn = np.clip(1.0 - survive_nn, 0.0, 1.0)
        coupled = survive_nn > PHASE_EPS
        survivor_nn = _projectors(kept) / np.where(coupled, survive_nn, 1.0)[:, None, None]
    else:
        p_nn = np.clip(np.abs(np.sum(probes.conj() * objects, axis=1)) ** 2, 0.0, 1.0)
        coupled = 1.0 - p_nn > PHASE_EPS
        survivor_nn = _universal_survivors(rule, probes, objects, inp)

    p_nn, coupled = p_nn[:, None], coupled[:, None]  # axes (pair, level) from here on
    survive_mass = q + (1.0 - q) * (1.0 - p_nn)
    alive = survive_mass > PHASE_EPS
    weight = np.where(coupled, (1.0 - q) * (1.0 - p_nn), 0.0)
    blended = (q[:, None, None] * _projectors(inp)[:, None]
               + weight[..., None, None] * survivor_nn[:, None])
    # dividing by an infinite mass zeroes the survivors of rows that are not alive;
    # an alive row keeps p_scatter < 1, as (1 - q) * p_nn rounds to 1 only at q = 0, p_nn = 1
    survivors = blended / np.where(alive, survive_mass, np.inf)[..., None, None]
    return Coupling(np.where(alive, (1.0 - q) * p_nn, 1.0).reshape(-1),
                    survivors.reshape(-1, 4, 4))


def swapped_coupling_channel(rule: Rule, probes, objects, noise_q=0.0) -> Coupling:
    """``coupling_channel`` with the arguments exchanged, mapped back by SWAP.

    The survivors live on the same (probe slot, object slot) space as
    ``coupling_channel(rule, probes, objects)``, so a role-symmetric rule
    gives identical rows through both paths.  SWAP is a permutation, so the
    survivors are gathered, not multiplied: the values of ``SWAP @ rho @ SWAP``
    in a C-ordered array.
    """
    out = coupling_channel(rule, objects, probes, noise_q)
    survivors = out.survivors.reshape(-1, 16).take(_SWAPPED_ENTRIES, axis=1)
    return out._replace(survivors=survivors.reshape(-1, 4, 4))


def pair_channel(rule: Rule, probe: QubitState, obj: QubitState, noise_q=0.0,
                 channel=coupling_channel) -> Coupling:
    """The one-row ``channel`` output of one pair; a level sequence is refused, not read at row 0."""
    out = channel(rule, probe.amps, obj.amps, noise_q)
    if len(out.p_scatter) != 1:
        raise ValueError(f"a single pair takes one noise level, got {len(out.p_scatter)}")
    return out


def _single(out: Coupling) -> CouplingOutcome:
    if out.p_scatter[0] == 1.0:
        return CouplingOutcome(1.0, None)
    return CouplingOutcome(float(out.p_scatter[0]), out.survivors[0])


def apply_rule(rule: Rule, probe: QubitState, obj: QubitState, noise_q: float = 0.0) -> CouplingOutcome:
    """The single-pair form of ``coupling_channel`` at fly-by probability ``noise_q``.

    A pair that scatters with certainty reports ``p_scatter == 1`` and omits the survivor.
    """
    return _single(pair_channel(rule, probe, obj, noise_q))


def swapped_channel(rule: Rule, probe: QubitState, obj: QubitState, noise_q: float = 0.0) -> CouplingOutcome:
    """The single-pair form of ``swapped_coupling_channel``, reported like ``apply_rule``."""
    return _single(pair_channel(rule, probe, obj, noise_q, swapped_coupling_channel))


def rule_from_name(text: str) -> Rule:
    """Resolve a rule spelling like ``singlet`` or ``preferred-basis:sigma``."""
    if not isinstance(text, str) or not text.strip():
        raise InvalidRuleError("empty rule name")
    spelled = text.strip().lower()
    base, _, basis_label = spelled.partition(":")
    builtins = [kind.value for kind in RuleKind if kind is not RuleKind.CUSTOM]
    if base not in builtins:
        known = ", ".join(sorted(builtins))
        raise InvalidRuleError(f"unknown rule {text.strip()!r}; built-ins: {known}")
    kind = RuleKind(base)
    needs_basis = kind in _BASIS_KINDS
    if needs_basis and not basis_label:
        raise InvalidRuleError(f"rule {base!r} needs a basis, e.g. {base}:sigma")
    if not needs_basis and basis_label:
        raise InvalidRuleError(f"rule {base!r} does not take a basis parameter")
    return Rule(kind, basis=parse_basis_spec(basis_label) if basis_label else None)


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
            if not all(math.isfinite(float(v)) for v in entry):
                raise InvalidRuleError(f"survive_operator[{r}][{c}]: entries must be finite")
            op[r, c] = complex(float(entry[0]), float(entry[1]))
    return validate_custom_rule(op, name=name)


def rule_description(rule: Rule) -> str:
    """One-line account of what the rule claims survives a non-interaction."""
    if rule.kind is RuleKind.PROBE_RIGID:
        return "probe keeps its state; the object jumps to the orthogonal partner state"
    if rule.kind is RuleKind.OBJECT_RIGID:
        return "object keeps its state; the probe jumps to the orthogonal partner state"
    if rule.kind is RuleKind.SINGLET:
        return "survivor is the fixed maximally entangled anti-aligned pair, independent of input"
    if rule.kind is RuleKind.RANDOM_MIX:
        return "survivor is the maximally mixed two-particle state"
    if rule.kind is RuleKind.PREFERRED_BASIS:
        return f"survivor dephases onto the anti-aligned cells of basis {rule.basis.label}"
    if rule.kind is RuleKind.COHERENT_PROJECTION:
        return (
            f"linear channel removing the aligned components in basis {rule.basis.label}; "
            "scatter probability is the removed weight"
        )
    return "custom survive operator K; scatter probability is 1 - |K psi|^2"
