"""Exact complex linear algebra for the two-level probe/object pair.

Conventions used across the package:

* Computational basis: ``|x> = (1, 0)``, ``|y> = (0, 1)``.
* Conjugate bases: ``|sigma+-> = (|x> +- i|y>)/sqrt(2)`` and
  ``|d+-> = (|x> +- |y>)/sqrt(2)``.  The three named bases XY, SIGMA and
  DIAG are mutually unbiased.
* Joint amplitudes: ``amplitude(i, j)`` of the pair sits at flat index
  ``2*i + j``, where ``i`` indexes the probe and ``j`` the object.  The
  same index convention applies to 4x4 densities and to the custom-rule
  file format.
* Bloch sphere: ``|x>`` maps to ``(0, 0, 1)``; orthogonal states map to
  antipodal vectors.
* Global phase: the first amplitude with magnitude above ``PHASE_EPS``
  is made real and non-negative, so states that differ only by a global
  phase compare equal.

Every value is immutable after construction and every function is pure,
so everything here is safe for concurrent use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-9
PHASE_EPS = 1e-12


class ZeroVectorError(ValueError):
    """A state was built from an (effectively) zero amplitude vector."""


class ParseError(ValueError):
    """A state or basis spelling could not be parsed."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        super().__init__(f"{message} (at position {position} in {text!r})")


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant amplitude is real >= 0."""
    for k, a in enumerate(amps):
        if abs(a) > PHASE_EPS:
            out = amps * (a.conjugate() / abs(a))
            out[k] = abs(a)  # the rotated anchor is |a| exactly; kill rounding dust
            return out
    raise ZeroVectorError("cannot fix the phase of a zero vector")


def _validated_amps(raw, dim: int) -> np.ndarray:
    amps = np.array(raw, dtype=complex).reshape(-1)
    if amps.shape != (dim,):
        raise ValueError(f"expected {dim} amplitudes, got shape {np.shape(raw)}")
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    if abs(np.linalg.norm(amps) - 1.0) > ATOL:
        raise ValueError("amplitudes are not normalized")
    amps = _canonical_phase(amps)
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True, eq=False)
class QubitState:
    """Normalized pure state of one two-level system, canonical global phase."""

    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _validated_amps(self.amps, 2))

    @property
    def a_x(self) -> complex:
        return complex(self.amps[0])

    @property
    def a_y(self) -> complex:
        return complex(self.amps[1])

    def overlap(self, other: "QubitState") -> complex:
        """Inner product ``<self|other>``."""
        return complex(np.vdot(self.amps, other.amps))

    def density(self) -> np.ndarray:
        """2x2 projector ``|s><s|``."""
        return np.outer(self.amps, self.amps.conj())

    def isclose(self, other: "QubitState", atol: float = ATOL) -> bool:
        return bool(np.allclose(self.amps, other.amps, rtol=0.0, atol=atol))

    def __repr__(self) -> str:
        return f"QubitState({state_label(self)})"


@dataclass(frozen=True, eq=False)
class JointState:
    """Normalized pure state of the probe+object pair, index ``2*probe + object``."""

    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _validated_amps(self.amps, 4))

    def overlap(self, other: "JointState") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def density(self) -> np.ndarray:
        """4x4 projector ``|s><s|``."""
        return np.outer(self.amps, self.amps.conj())

    def reduced(self, keep: str) -> np.ndarray:
        return partial_trace(self.density(), keep)

    def isclose(self, other: "JointState", atol: float = ATOL) -> bool:
        return bool(np.allclose(self.amps, other.amps, rtol=0.0, atol=atol))


@dataclass(frozen=True, eq=False)
class Basis:
    """An orthonormal pair of single-qubit states."""

    b1: QubitState
    b2: QubitState
    label: str = "custom"

    def __post_init__(self):
        if abs(self.b1.overlap(self.b2)) > ATOL:
            raise ValueError(f"basis {self.label!r} is not orthogonal")

    def states(self) -> tuple[QubitState, QubitState]:
        return (self.b1, self.b2)

    def __repr__(self) -> str:
        return f"Basis({self.label})"


def make_state(a_x: complex, a_y: complex) -> QubitState:
    """Build a state from two raw amplitudes, normalizing and fixing the phase."""
    raw = np.array([a_x, a_y], dtype=complex)
    if not np.all(np.isfinite(raw)):
        raise ValueError("amplitudes must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(raw)
    if not np.isfinite(norm):
        # the squared norm overflows: rescale by the largest real or imaginary part first
        raw = raw / np.max(np.abs([raw.real, raw.imag]))
        norm = np.linalg.norm(raw)
    if norm <= PHASE_EPS:
        raise ZeroVectorError("amplitude vector has (near) zero norm")
    return QubitState(raw / norm)


STATE_X = make_state(1, 0)
STATE_Y = make_state(0, 1)
SIGMA_PLUS = make_state(1, 1j)
SIGMA_MINUS = make_state(1, -1j)
D_PLUS = make_state(1, 1)
D_MINUS = make_state(1, -1)

BASIS_XY = Basis(STATE_X, STATE_Y, "XY")
BASIS_SIGMA = Basis(SIGMA_PLUS, SIGMA_MINUS, "SIGMA")
BASIS_DIAG = Basis(D_PLUS, D_MINUS, "DIAG")

NAMED_STATES = {
    "x": STATE_X,
    "y": STATE_Y,
    "sigma+": SIGMA_PLUS,
    "sigma-": SIGMA_MINUS,
    "d+": D_PLUS,
    "d-": D_MINUS,
}
# state_label tests all named states at once: the same decision as isclose on each
_NAMED_AMPS = np.array([known.amps for known in NAMED_STATES.values()])
NAMED_BASES = {"xy": BASIS_XY, "sigma": BASIS_SIGMA, "diag": BASIS_DIAG}

SINGLET = JointState(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))


def overlap_probability(a: QubitState, b: QubitState) -> float:
    """``|<a|b>|**2``; symmetric in its arguments."""
    p = abs(a.overlap(b)) ** 2
    return float(min(max(p, 0.0), 1.0))


def orthogonal_state(s: QubitState) -> QubitState:
    """The unique (up to phase) state orthogonal to ``s``, phase-canonicalized."""
    return make_state(-s.a_y.conjugate(), s.a_x.conjugate())


def to_bloch(s: QubitState) -> np.ndarray:
    """Unit Bloch vector of ``s``; ``|x>`` maps to (0, 0, 1)."""
    cross = s.a_x.conjugate() * s.a_y
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(s.a_x) ** 2 - abs(s.a_y) ** 2])


def from_bloch(v) -> QubitState:
    """State with Bloch vector ``v``; ``v`` must be a unit 3-vector."""
    vec = np.asarray(v, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if abs(np.linalg.norm(vec) - 1.0) > ATOL:
        raise ValueError("Bloch vector must have unit norm")
    theta = math.acos(min(max(vec[2], -1.0), 1.0))
    phi = math.atan2(vec[1], vec[0])
    return from_bloch_angles(theta, phi)


def from_bloch_angles(theta: float, phi: float) -> QubitState:
    """State at polar angle ``theta`` and azimuth ``phi`` (radians)."""
    return make_state(math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0))


def change_basis(s: QubitState, target: Basis) -> np.ndarray:
    """Coordinates ``(<b1|s>, <b2|s>)`` of ``s`` in ``target``."""
    return np.array([target.b1.overlap(s), target.b2.overlap(s)])


def state_in_basis(coords, basis: Basis) -> QubitState:
    """Reassemble a state from its coordinates in ``basis``."""
    c = np.asarray(coords, dtype=complex).reshape(-1)
    if c.shape != (2,):
        raise ValueError("expected two coordinates")
    return make_state(*(c[0] * basis.b1.amps + c[1] * basis.b2.amps))


def density_of_ensemble(members) -> np.ndarray:
    """``sum_i w_i |s_i><s_i|`` for ``members`` of ``(weight, state)`` pairs."""
    members = list(members)
    if not members:
        raise ValueError("ensemble must not be empty")
    total = 0.0
    rho = np.zeros((2, 2), dtype=complex)
    for weight, state in members:
        w = float(weight)
        if not 0.0 < w <= 1.0:
            raise ValueError(f"ensemble weight {w} outside (0, 1]")
        total += w
        rho += w * state.density()
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    return rho


def tensor_product(probe: QubitState, obj: QubitState) -> JointState:
    """Product state with ``amplitude(i, j) = probe_i * obj_j``."""
    return JointState(np.kron(probe.amps, obj.amps))


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced 2x2 density of one subsystem of a 4x4 pair density.

    Leading axes of ``rho`` are kept: ``(..., 4, 4)`` maps to ``(..., 2, 2)``.
    """
    rho = np.asarray(rho, dtype=complex)
    r = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    if keep == "probe":
        return np.trace(r, axis1=-3, axis2=-1)
    if keep == "object":
        return np.trace(r, axis1=-4, axis2=-2)
    raise ValueError(f"keep must be 'probe' or 'object', got {keep!r}")


def _expectations(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``<v|rho|v>`` for every row ``v`` of ``vectors``, clipped at zero, over leading axes."""
    rho = np.asarray(rho, dtype=complex)
    probs = np.einsum("ki,...ij,kj->...k", vectors.conj(), rho, vectors).real
    return np.clip(probs, 0.0, None)


def born_distribution(rho: np.ndarray, basis: Basis) -> np.ndarray:
    """Outcome probabilities ``(<b1|rho|b1>, <b2|rho|b2>)``, over leading axes of ``rho``."""
    return _expectations(rho, np.array([basis.b1.amps, basis.b2.amps]))


def joint_born_distribution(rho: np.ndarray, basis_probe: Basis, basis_object: Basis) -> np.ndarray:
    """Joint outcome probabilities over (probe, object), flat index ``2*k + l``.

    Leading axes of ``rho`` are kept: ``(..., 4, 4)`` maps to ``(..., 4)``.
    """
    probe = np.array([basis_probe.b1.amps, basis_probe.b2.amps])
    obj = np.array([basis_object.b1.amps, basis_object.b2.amps])
    # row 2*k + l is the product of probe vector k and object vector l, as np.kron builds it
    return _expectations(rho, (probe[:, None, :, None] * obj[None, :, None, :]).reshape(4, 4))


def entanglement_entropy(s: JointState) -> float:
    """Entropy (bits) of the probe's reduced density; 0 = product, 1 = maximal."""
    lam = np.linalg.eigvalsh(s.reduced("probe"))
    lam = np.clip(lam.real, 0.0, 1.0)
    return float(-sum(p * math.log2(p) for p in lam if p > 1e-15))


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))**2`` in [0, 1].

    A float for two matrices; for stacks ``(..., d, d)`` an array over the
    leading axes.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    lam, vecs = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    sqrt_rho = (vecs * np.sqrt(lam)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    mid = sqrt_rho @ sigma @ sqrt_rho
    ev = np.clip(np.linalg.eigvalsh(mid), 0.0, None)
    f = np.clip(np.sum(np.sqrt(ev), axis=-1) ** 2, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def is_density(rho: np.ndarray, atol: float = ATOL) -> bool:
    """Hermitian, unit trace and positive semidefinite within ``atol``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not np.allclose(rho, rho.conj().T, rtol=0.0, atol=atol):
        return False
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -atol)


def mutually_unbiased(a: Basis, b: Basis, atol: float = 1e-6) -> bool:
    """True when every vector of one basis has overlap 1/2 with both of the other."""
    return all(
        abs(overlap_probability(sa, sb) - 0.5) <= atol
        for sa in a.states()
        for sb in b.states()
    )


def apply_unitary(u: np.ndarray, s: QubitState) -> QubitState:
    return make_state(*(np.asarray(u, dtype=complex) @ s.amps))


def basis_change_unitary(src: Basis, dst: Basis) -> np.ndarray:
    """Unitary mapping ``src.b1 -> dst.b1`` and ``src.b2 -> dst.b2``."""
    return np.outer(dst.b1.amps, src.b1.amps.conj()) + np.outer(dst.b2.amps, src.b2.amps.conj())


def haar_unitaries(u) -> np.ndarray:
    """Haar-random SU(2) elements from uniforms ``u[..., 0:3]``, one per leading index."""
    u = np.asarray(u, dtype=float)
    theta = np.arcsin(np.sqrt(u[..., 0]))
    psi = 2.0 * math.pi * u[..., 1]
    chi = 2.0 * math.pi * u[..., 2]
    c, s = np.cos(theta), np.sin(theta)
    row1 = np.stack([np.exp(1j * psi) * c, np.exp(1j * chi) * s], axis=-1)
    row2 = np.stack([-np.exp(-1j * chi) * s, np.exp(-1j * psi) * c], axis=-1)
    return np.stack([row1, row2], axis=-2)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element from three independent uniform draws."""
    return haar_unitaries(rng.random(3))


def uniform_state_amps(u) -> np.ndarray:
    """Amplitudes of states uniform on the Bloch sphere from uniforms ``u[..., 0:2]``.

    ``u[..., 0]`` sets the Bloch z component ``2u - 1``, ``u[..., 1]`` the
    azimuth ``2 pi u``; the result has shape ``(..., 2)``.
    """
    u = np.asarray(u, dtype=float)
    theta = np.arccos(2.0 * u[..., 0] - 1.0)
    phi = 2.0 * math.pi * u[..., 1]
    return np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)


def random_state(rng: np.random.Generator) -> QubitState:
    """State drawn uniformly from the Bloch sphere."""
    return QubitState(uniform_state_amps(rng.random(2)))


def eigenbasis_of(state: QubitState) -> Basis:
    """The basis ``{state, state_orthogonal}``, reusing a named basis when it matches."""
    for named in (BASIS_XY, BASIS_SIGMA, BASIS_DIAG):
        if state.isclose(named.b1):
            return named
    return Basis(state, orthogonal_state(state), f"{state_label(state)}-eigen")


def state_label(s: QubitState) -> str:
    """Short label: a named state when it matches, otherwise Bloch angles."""
    match = np.flatnonzero((np.abs(s.amps - _NAMED_AMPS) <= ATOL).all(axis=1))
    if match.size:
        return list(NAMED_STATES)[match[0]]
    v = to_bloch(s)
    theta = math.acos(min(max(v[2], -1.0), 1.0))
    phi = math.atan2(v[1], v[0])
    return f"theta,phi={theta:.6g},{phi:.6g}"


_EXPECTED_STATE_FORMS = (
    "one of x, y, sigma+, sigma-, d+, d- | 'theta,phi' in radians | 're,im;re,im' amplitudes"
)


def _parse_float(text: str, token: str, offset: int, what: str) -> float:
    try:
        value = float(token.strip())
    except ValueError:
        raise ParseError(text, offset, f"invalid {what} {token.strip()!r}") from None
    if not math.isfinite(value):
        raise ParseError(text, offset, f"{what} {token.strip()!r} is not finite")
    return value


def _parse_amp(text: str, token: str, offset: int) -> complex:
    re_s, sep, im_s = token.partition(",")
    if not sep:
        raise ParseError(text, offset, f"amplitude {token.strip()!r} needs the form 're,im'")
    re = _parse_float(text, re_s, offset, "amplitude real part")
    im = _parse_float(text, im_s, offset + len(re_s) + 1, "amplitude imaginary part")
    return complex(re, im)


def parse_state_spec(text: str) -> QubitState:
    """Parse a state spelling.

    Accepted forms: the named states ``x``, ``y``, ``sigma+``, ``sigma-``,
    ``d+``, ``d-``; Bloch angles ``theta,phi`` in radians; or explicit
    amplitude pairs ``re,im;re,im``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError(text or "", 0, "empty state spec; expected " + _EXPECTED_STATE_FORMS)
    stripped = text.strip()
    base = text.find(stripped)
    if stripped.lower() in NAMED_STATES:
        return NAMED_STATES[stripped.lower()]
    if ";" in stripped:
        left, _, right = stripped.partition(";")
        a = _parse_amp(text, left, base)
        b = _parse_amp(text, right, base + len(left) + 1)
        if not math.isfinite(abs(a) * abs(a) + abs(b) * abs(b)):
            raise ParseError(text, base, "amplitudes are too large: their squared norm overflows")
        try:
            return make_state(a, b)
        except ZeroVectorError:
            raise ParseError(text, base, "amplitudes are all zero") from None
    if "," in stripped:
        first, _, second = stripped.partition(",")
        theta = _parse_float(text, first, base, "theta")
        phi = _parse_float(text, second, base + len(first) + 1, "phi")
        return from_bloch_angles(theta, phi)
    raise ParseError(text, base, f"unrecognized state spec {stripped!r}; expected " + _EXPECTED_STATE_FORMS)


def parse_basis_spec(text: str) -> Basis:
    """Parse a basis spelling: one of ``xy``, ``sigma``, ``diag``."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError(text or "", 0, "empty basis spec; expected one of xy, sigma, diag")
    stripped = text.strip()
    if stripped.lower() in NAMED_BASES:
        return NAMED_BASES[stripped.lower()]
    raise ParseError(text, text.find(stripped), f"unknown basis {stripped!r}; expected one of xy, sigma, diag")
