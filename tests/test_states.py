import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifmsim.experiments import derive_rng
from ifmsim.states import (
    ATOL,
    BASIS_DIAG,
    BASIS_SIGMA,
    BASIS_XY,
    Basis,
    D_MINUS,
    D_PLUS,
    JointState,
    NAMED_BASES,
    NAMED_STATES,
    ParseError,
    QubitState,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SINGLET,
    STATE_X,
    STATE_Y,
    ZeroVectorError,
    apply_unitary,
    born_distribution,
    change_basis,
    density_of_ensemble,
    entanglement_entropy,
    fidelity,
    from_bloch,
    from_bloch_angles,
    haar_unitaries,
    haar_unitary,
    is_density,
    joint_born_distribution,
    make_state,
    mutually_unbiased,
    orthogonal_state,
    overlap_probability,
    parse_basis_spec,
    parse_state_spec,
    partial_trace,
    random_state,
    state_in_basis,
    state_label,
    tensor_product,
    to_bloch,
    uniform_state_amps,
    _expectations,
)

CORNERS = (STATE_X, STATE_Y, SIGMA_PLUS, SIGMA_MINUS, D_PLUS, D_MINUS)

finite_amp = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


def test_make_state_identity():
    s = make_state(1, 0)
    assert np.allclose(s.amps, [1, 0])


def test_make_state_sigma_plus():
    s = make_state(1 / math.sqrt(2), 1j / math.sqrt(2))
    assert s.isclose(SIGMA_PLUS)
    assert np.allclose(s.amps, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-12)


def test_make_state_normalizes_and_fixes_phase():
    s = make_state(0, -3j)
    assert s.isclose(STATE_Y)
    assert abs(s.a_y - 1.0) < 1e-12


@pytest.mark.parametrize("amps, state", [((1e200, 0), STATE_X), ((1e200, 1e200j), SIGMA_PLUS),
                                         ((-1.7e308, 1.7e308j), make_state(-1, 1j))])
def test_make_state_rescales_when_the_norm_overflows(amps, state):
    assert np.array_equal(make_state(*amps).amps, state.amps)


def test_make_state_zero_vector():
    with pytest.raises(ZeroVectorError):
        make_state(0, 0)


def test_make_state_rejects_nan():
    with pytest.raises(ValueError):
        make_state(float("nan"), 1)


@given(a=finite_amp, b=finite_amp)
def test_make_state_invariants(a, b):
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if norm <= 0.9e-12:
        with pytest.raises(ZeroVectorError):
            make_state(a, b)
        return
    if norm <= 1.1e-12:
        return  # too close to the zero-vector threshold to pin either behaviour
    s = make_state(a, b)
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-9
    anchor = next(v for v in s.amps if abs(v) > 1e-12)
    assert anchor.imag == 0.0 and anchor.real >= 0.0


def test_overlap_examples():
    assert overlap_probability(STATE_X, STATE_X) == pytest.approx(1.0, abs=1e-12)
    assert overlap_probability(SIGMA_PLUS, STATE_X) == pytest.approx(0.5, abs=1e-12)
    assert overlap_probability(SIGMA_PLUS, SIGMA_MINUS) == pytest.approx(0.0, abs=1e-12)


@given(a=finite_amp, b=finite_amp, c=finite_amp, d=finite_amp)
def test_overlap_symmetric_and_bounded(a, b, c, d):
    if abs(a) ** 2 + abs(b) ** 2 < 1e-6 or abs(c) ** 2 + abs(d) ** 2 < 1e-6:
        return
    s, t = make_state(a, b), make_state(c, d)
    p = overlap_probability(s, t)
    assert 0.0 <= p <= 1.0
    assert p == pytest.approx(overlap_probability(t, s), abs=1e-12)


def test_bloch_anchors():
    assert np.allclose(to_bloch(STATE_X), [0, 0, 1], atol=1e-12)
    assert np.allclose(to_bloch(STATE_Y), [0, 0, -1], atol=1e-12)
    # equator state orthogonal to the |x> axis, per the overlap identity
    expected_dot = 1 - 2 * overlap_probability(SIGMA_PLUS, STATE_X)
    assert np.dot(to_bloch(SIGMA_PLUS), to_bloch(STATE_X)) == pytest.approx(
        expected_dot, abs=1e-12
    )


def test_bloch_antipodality():
    rng = derive_rng(101)
    for s in list(CORNERS) + [random_state(rng) for _ in range(50)]:
        assert np.dot(to_bloch(s), to_bloch(orthogonal_state(s))) == pytest.approx(
            -1.0, abs=1e-9
        )


def test_overlap_bloch_identity_1000_pairs():
    rng = derive_rng(102)
    for _ in range(1000):
        a, b = random_state(rng), random_state(rng)
        lhs = overlap_probability(a, b)
        rhs = (1 + np.dot(to_bloch(a), to_bloch(b))) / 2
        assert abs(lhs - rhs) < 1e-9


def test_from_bloch_round_trip():
    rng = derive_rng(103)
    for s in list(CORNERS) + [random_state(rng) for _ in range(100)]:
        assert from_bloch(to_bloch(s)).isclose(s, atol=1e-9)


def test_from_bloch_rejects_non_unit():
    with pytest.raises(ValueError):
        from_bloch([0, 0, 2])


def test_from_bloch_angles_north_pole():
    assert from_bloch_angles(0.0, 0.0).isclose(STATE_X)


def test_change_basis_examples():
    coords = change_basis(SIGMA_PLUS, BASIS_XY)
    assert np.allclose(coords, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-12)
    coords = change_basis(STATE_X, BASIS_SIGMA)
    assert np.allclose(coords, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)
    assert np.allclose(change_basis(STATE_X, BASIS_XY), [1, 0], atol=1e-12)


def test_change_basis_round_trip():
    rng = derive_rng(104)
    for _ in range(100):
        s = random_state(rng)
        for basis in (BASIS_XY, BASIS_SIGMA, BASIS_DIAG):
            back = state_in_basis(change_basis(s, basis), basis)
            assert overlap_probability(back, s) >= 1 - 1e-12


def test_density_of_ensemble_identity():
    half = np.eye(2) / 2
    for pair in ((STATE_X, STATE_Y), (SIGMA_PLUS, SIGMA_MINUS), (D_PLUS, D_MINUS)):
        rho = density_of_ensemble([(0.5, pair[0]), (0.5, pair[1])])
        assert np.allclose(rho, half, atol=1e-12)


def test_density_of_ensemble_three_bases_agree_exactly():
    rhos = [
        density_of_ensemble([(0.5, a), (0.5, b)])
        for a, b in ((STATE_X, STATE_Y), (SIGMA_PLUS, SIGMA_MINUS), (D_PLUS, D_MINUS))
    ]
    assert np.allclose(rhos[0], rhos[1], atol=1e-12)
    assert np.allclose(rhos[0], rhos[2], atol=1e-12)


def test_density_of_ensemble_pure():
    assert np.allclose(density_of_ensemble([(1.0, STATE_X)]), STATE_X.density(), atol=1e-12)


def test_density_of_ensemble_validates_weights():
    with pytest.raises(ValueError):
        density_of_ensemble([(0.5, STATE_X)])
    with pytest.raises(ValueError):
        density_of_ensemble([(1.5, STATE_X), (-0.5, STATE_Y)])


def test_tensor_product_examples():
    assert np.allclose(tensor_product(STATE_X, STATE_X).amps, [1, 0, 0, 0], atol=1e-12)
    got = tensor_product(SIGMA_PLUS, STATE_X).amps
    assert np.allclose(got, [1 / math.sqrt(2), 0, 1j / math.sqrt(2), 0], atol=1e-12)
    assert np.allclose(tensor_product(STATE_Y, STATE_X).amps, [0, 0, 1, 0], atol=1e-12)


def test_partial_trace_product_state():
    joint = tensor_product(STATE_Y, STATE_X)
    assert np.allclose(partial_trace(joint.density(), "probe"), STATE_Y.density(), atol=1e-12)
    assert np.allclose(partial_trace(joint.density(), "object"), STATE_X.density(), atol=1e-12)


def test_partial_trace_singlet_is_maximally_mixed():
    for keep in ("probe", "object"):
        assert np.allclose(partial_trace(SINGLET.density(), keep), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_rejects_bad_keep():
    with pytest.raises(ValueError):
        partial_trace(SINGLET.density(), "both")


def test_born_distribution_examples():
    assert np.allclose(born_distribution(STATE_Y.density(), BASIS_XY), [0, 1], atol=1e-12)
    assert np.allclose(born_distribution(np.eye(2) / 2, BASIS_XY), [0.5, 0.5], atol=1e-12)
    assert np.allclose(
        born_distribution(SIGMA_PLUS.density(), BASIS_XY), [0.5, 0.5], atol=1e-12
    )


def test_joint_born_singlet_anti_aligned_in_sigma_and_xy():
    for basis in (BASIS_SIGMA, BASIS_XY):
        cells = joint_born_distribution(SINGLET.density(), basis, basis)
        assert np.allclose(cells, [0, 0.5, 0.5, 0], atol=1e-12)


def _random_pair_densities(rng, count):
    """Full-rank pair densities: mixtures of four random product states."""
    out = []
    for _ in range(count):
        weights = rng.random(4) + 0.1
        weights /= weights.sum()
        out.append(sum(
            w * tensor_product(random_state(rng), random_state(rng)).density() for w in weights
        ))
    return np.array(out)


def test_stacked_densities_match_per_item_loop():
    rng = derive_rng(60)
    rhos = _random_pair_densities(rng, 12)
    sigmas = _random_pair_densities(rng, 12)
    stacked = fidelity(rhos, sigmas)
    assert stacked.shape == (12,)
    assert np.allclose(stacked, [fidelity(r, s) for r, s in zip(rhos, sigmas)], rtol=0, atol=1e-12)
    assert isinstance(fidelity(rhos[0], sigmas[0]), float)
    for basis_probe, basis_object in ((BASIS_XY, BASIS_SIGMA), (BASIS_DIAG, BASIS_DIAG)):
        stacked = joint_born_distribution(rhos, basis_probe, basis_object)
        loop = [joint_born_distribution(r, basis_probe, basis_object) for r in rhos]
        assert stacked.shape == (12, 4)
        assert np.allclose(stacked, loop, rtol=0, atol=1e-15)
    for keep in ("probe", "object"):
        reduced = partial_trace(rhos, keep)
        assert np.allclose(reduced, [partial_trace(r, keep) for r in rhos], rtol=0, atol=1e-15)
        probs = born_distribution(reduced, BASIS_SIGMA)
        assert np.allclose(
            probs, [born_distribution(r, BASIS_SIGMA) for r in reduced], rtol=0, atol=1e-15
        )


def test_uniform_block_matches_scalar_draws():
    # one (n, 7) block holds, per row, the draws of haar_unitary then two random_state calls
    block = derive_rng(61).random((25, 7))
    rng = derive_rng(61)
    for row in block:
        assert np.array_equal(haar_unitaries(row[0:3]), haar_unitary(rng))
        for cols in (slice(3, 5), slice(5, 7)):
            assert np.allclose(uniform_state_amps(row[cols]), random_state(rng).amps,
                               rtol=0, atol=1e-15)
    assert np.array_equal(haar_unitaries(block[:, 0:3])[7], haar_unitaries(block[7, 0:3]))


def test_joint_born_product():
    rho = tensor_product(STATE_Y, STATE_X).density()
    assert np.allclose(joint_born_distribution(rho, BASIS_XY, BASIS_XY), [0, 0, 1, 0], atol=1e-12)


def _kron_joint_born(rho, basis_probe, basis_object):
    """The ``np.kron`` construction of the joint cell vectors, kept as the reference."""
    cells = np.array(
        [np.kron(bp.amps, bo.amps) for bp in basis_probe.states() for bo in basis_object.states()]
    )
    return _expectations(rho, cells)


def test_joint_born_matches_kron_bit_for_bit():
    rng = derive_rng(23)
    block = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
    rho = block @ block.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    random_bases = []
    for _ in range(4):
        s = random_state(rng)
        random_bases.append(Basis(s, orthogonal_state(s)))
    bases = list(NAMED_BASES.values()) + random_bases
    for basis_probe in bases:
        for basis_object in bases:
            want = _kron_joint_born(rho, basis_probe, basis_object)
            assert np.array_equal(joint_born_distribution(rho, basis_probe, basis_object), want)


def _raw_state(amps) -> QubitState:
    """A state with exactly these amplitudes, skipping normalisation and phase fixing."""
    state = object.__new__(QubitState)
    object.__setattr__(state, "amps", np.asarray(amps, dtype=complex))
    return state


def _allclose_match(state):
    """The named state that ``isclose`` matches first, kept as the reference loop."""
    for name, known in NAMED_STATES.items():
        if np.allclose(state.amps, known.amps, rtol=0.0, atol=ATOL):
            return name
    return None


def test_state_label_matches_allclose_loop():
    states = [(state, name) for name, state in NAMED_STATES.items()]
    for name, known in NAMED_STATES.items():
        for k in (0, 1):
            for unit in (1.0, 1j):
                for factor in (0.9, -0.9, 1.1, -1.1):
                    amps = known.amps.copy()
                    amps[k] += factor * ATOL * unit
                    states.append((_raw_state(amps), name if abs(factor) < 1 else None))
    rng = derive_rng(29)
    states += [(random_state(rng), None) for _ in range(200)]
    for state, expected in states:
        reference = _allclose_match(state)
        assert reference == expected
        label = state_label(state)
        assert label == reference if reference else label.startswith("theta,phi=")


def test_entanglement_entropy_values():
    assert entanglement_entropy(tensor_product(STATE_Y, STATE_X)) == pytest.approx(0.0, abs=1e-12)
    assert entanglement_entropy(SINGLET) == pytest.approx(1.0, abs=1e-12)
    partial = JointState(np.array([0, math.sqrt(0.9), -math.sqrt(0.1), 0]))
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert entanglement_entropy(partial) == pytest.approx(expected, abs=1e-12)


def test_orthogonal_state_is_exactly_orthogonal():
    rng = derive_rng(105)
    for _ in range(200):
        s = random_state(rng)
        assert abs(s.overlap(orthogonal_state(s))) < 1e-15


def test_singlet_rotational_invariance():
    rng = derive_rng(106)
    for _ in range(100):
        u = haar_unitary(rng)
        rotated = JointState(np.kron(u, u) @ SINGLET.amps)
        assert abs(rotated.overlap(SINGLET)) ** 2 > 1 - 1e-9


def test_densities_are_valid():
    rng = derive_rng(107)
    for _ in range(50):
        s = random_state(rng)
        assert is_density(s.density())
        assert is_density(tensor_product(s, random_state(rng)).density())


def test_fidelity_basics():
    assert fidelity(SINGLET.density(), SINGLET.density()) == pytest.approx(1.0, abs=1e-12)
    a = tensor_product(STATE_Y, STATE_X).density()
    b = tensor_product(SIGMA_PLUS, SIGMA_MINUS).density()
    assert fidelity(a, b) == pytest.approx(0.25, abs=1e-12)


def test_basis_orthogonality_enforced():
    with pytest.raises(ValueError):
        Basis(STATE_X, D_PLUS, "broken")


def test_mutually_unbiased_triple():
    assert mutually_unbiased(BASIS_XY, BASIS_SIGMA)
    assert mutually_unbiased(BASIS_XY, BASIS_DIAG)
    assert mutually_unbiased(BASIS_SIGMA, BASIS_DIAG)
    assert not mutually_unbiased(BASIS_XY, BASIS_XY)


def test_apply_unitary_preserves_overlaps():
    rng = derive_rng(108)
    for _ in range(50):
        u = haar_unitary(rng)
        a, b = random_state(rng), random_state(rng)
        assert overlap_probability(apply_unitary(u, a), apply_unitary(u, b)) == pytest.approx(
            overlap_probability(a, b), abs=1e-12
        )


def test_parse_state_spec_names():
    assert parse_state_spec("sigma+").isclose(SIGMA_PLUS)
    assert parse_state_spec("X").isclose(STATE_X)
    assert parse_state_spec("d-").isclose(D_MINUS)


def test_parse_state_spec_angles_and_amplitudes():
    assert parse_state_spec("0,0").isclose(STATE_X)
    assert parse_state_spec("1,0;0,0").isclose(STATE_X)
    assert parse_state_spec("0,0;0,-3").isclose(STATE_Y)


def test_parse_state_spec_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_state_spec("1,bogus;0,0")
    assert err.value.position == 2
    assert "bogus" in str(err.value)
    with pytest.raises(ParseError):
        parse_state_spec("")
    with pytest.raises(ParseError):
        parse_state_spec("diagonalish")
    with pytest.raises(ParseError):
        parse_state_spec("0,0;0,0")


@pytest.mark.parametrize("spec, position, message", [
    ("inf,0", 0, "theta 'inf' is not finite"),
    ("0, nan", 2, "phi 'nan' is not finite"),
    ("1,0;-inf,0", 4, "amplitude real part '-inf' is not finite"),
    ("1e308,0;1e308,0", 0, "squared norm overflows"),
    ("1e200,0;0,0", 0, "squared norm overflows"),
])
def test_parse_state_spec_rejects_non_finite_spellings(spec, position, message):
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_state_spec(spec)
    assert err.value.position == position


def test_parse_basis_spec():
    assert parse_basis_spec("sigma") is BASIS_SIGMA
    assert parse_basis_spec("XY") is BASIS_XY
    with pytest.raises(ParseError):
        parse_basis_spec("weird")


def test_state_label_round_trip_for_names():
    for name, state in (("x", STATE_X), ("sigma-", SIGMA_MINUS), ("d+", D_PLUS)):
        assert state_label(state) == name
    label = state_label(from_bloch_angles(1.0, 2.0))
    assert label.startswith("theta,phi=")
