import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifmsim.experiments import (
    derive_rng,
    run_correlation,
    run_correlation_mc,
    run_flip,
    run_flip_mc,
)
from ifmsim.rules import (
    ContractionViolationError,
    InvalidRuleError,
    Rule,
    RuleKind,
    SWAP,
    aligned_state,
    apply_rule,
    builtin_rules,
    coherent_projection,
    coupling_channel,
    interaction_probability,
    load_rule_file,
    object_rigid,
    preferred_basis,
    probe_rigid,
    random_mix,
    rule_from_name,
    singlet_rule,
    swapped_channel,
    swapped_coupling_channel,
    validate_custom_rule,
)
from ifmsim.states import (
    BASIS_DIAG,
    BASIS_SIGMA,
    BASIS_XY,
    Basis,
    D_MINUS,
    D_PLUS,
    PHASE_EPS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SINGLET,
    STATE_X,
    STATE_Y,
    apply_unitary,
    fidelity,
    haar_unitary,
    is_density,
    joint_born_distribution,
    make_state,
    orthogonal_state,
    overlap_probability,
    random_state,
    tensor_product,
)

CORNERS = (STATE_X, STATE_Y, SIGMA_PLUS, SIGMA_MINUS, D_PLUS, D_MINUS)
UNIVERSAL = (probe_rigid(), object_rigid(), singlet_rule(), random_mix(), preferred_basis(BASIS_SIGMA))


def aligned_projector_complement():
    v11 = np.kron(STATE_X.amps, STATE_X.amps)
    v22 = np.kron(STATE_Y.amps, STATE_Y.amps)
    return np.eye(4) - np.outer(v11, v11.conj()) - np.outer(v22, v22.conj())


def test_aligned_state_examples():
    assert aligned_state(STATE_X).isclose(STATE_X)
    assert aligned_state(SIGMA_MINUS).isclose(SIGMA_MINUS)
    rng = derive_rng(201)
    for _ in range(100):
        w = random_state(rng)
        assert overlap_probability(aligned_state(w), w) == pytest.approx(1.0, abs=1e-12)
        assert overlap_probability(orthogonal_state(aligned_state(w)), w) == pytest.approx(
            0.0, abs=1e-12
        )


def test_interaction_probability_examples():
    assert interaction_probability(STATE_X, STATE_X) == pytest.approx(1.0, abs=1e-12)
    assert interaction_probability(STATE_Y, STATE_X) == pytest.approx(0.0, abs=1e-12)
    assert interaction_probability(SIGMA_PLUS, STATE_X) == pytest.approx(0.5, abs=1e-12)


def test_interaction_probability_symmetric():
    rng = derive_rng(202)
    for _ in range(100):
        a, b = random_state(rng), random_state(rng)
        assert interaction_probability(a, b) == pytest.approx(
            interaction_probability(b, a), abs=1e-12
        )


def test_object_rigid_scenario():
    out = apply_rule(object_rigid(), SIGMA_PLUS, STATE_X)
    assert out.p_scatter == pytest.approx(0.5, abs=1e-12)
    expected = np.kron(STATE_Y.density(), STATE_X.density())
    assert fidelity(out.survive_state, expected) >= 1 - 1e-12


def test_probe_rigid_scenario():
    out = apply_rule(probe_rigid(), SIGMA_PLUS, STATE_X)
    assert out.p_scatter == pytest.approx(0.5, abs=1e-12)
    expected = np.kron(SIGMA_PLUS.density(), SIGMA_MINUS.density())
    assert fidelity(out.survive_state, expected) >= 1 - 1e-12


def test_singlet_rule_ignores_input():
    out = apply_rule(singlet_rule(), STATE_Y, STATE_X)
    assert out.p_scatter == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(out.survive_state, SINGLET.density(), atol=1e-12)


def test_singlet_rule_noise_blend():
    out = apply_rule(singlet_rule(), STATE_Y, STATE_X, noise_q=0.5)
    assert out.p_scatter == pytest.approx(0.0, abs=1e-12)
    hand = 0.5 * tensor_product(STATE_Y, STATE_X).density() + 0.5 * SINGLET.density()
    assert np.allclose(out.survive_state, hand, atol=1e-12)


def test_coherent_projection_scatter_law_diverges_from_interaction():
    out = apply_rule(coherent_projection(BASIS_XY), SIGMA_PLUS, SIGMA_PLUS)
    assert out.p_scatter == pytest.approx(0.5, abs=1e-12)
    assert interaction_probability(SIGMA_PLUS, SIGMA_PLUS) == pytest.approx(1.0, abs=1e-12)


def test_universal_scatter_law():
    rng = derive_rng(203)
    pairs = [(a, b) for a in CORNERS for b in CORNERS]
    pairs += [(random_state(rng), random_state(rng)) for _ in range(100)]
    for rule in UNIVERSAL:
        for probe, obj in pairs:
            out = apply_rule(rule, probe, obj)
            assert out.p_scatter == pytest.approx(
                interaction_probability(probe, obj), abs=1e-12
            )


def test_certain_interaction_and_non_interaction():
    rng = derive_rng(204)
    for rule in UNIVERSAL:
        for _ in range(50):
            w = random_state(rng)
            assert apply_rule(rule, aligned_state(w), w).p_scatter == pytest.approx(
                1.0, abs=1e-12
            )
            free = apply_rule(rule, orthogonal_state(aligned_state(w)), w)
            assert free.p_scatter == pytest.approx(0.0, abs=1e-12)


def test_degenerate_scatter_omits_survivor():
    out = apply_rule(object_rigid(), STATE_X, STATE_X)
    assert out.p_scatter == 1.0
    assert out.survive_state is None


def _product(probe, obj):
    return tensor_product(probe, obj).density()


# A near-aligned pair around sigma+ whose anti-aligned SIGMA weight (about
# 2 DELTA^2) is below PHASE_EPS while its survive weight (about 4 DELTA^2) is
# not: preferred-basis:sigma must split the survivor evenly between the cells.
DELTA = 6e-7
NEAR_PROBE = make_state(1 + DELTA, 1j * (1 - DELTA))
NEAR_OBJECT = make_state(1 - DELTA, 1j * (1 + DELTA))
SIGMA_ANTI_EVEN = 0.5 * _product(SIGMA_PLUS, SIGMA_MINUS) + 0.5 * _product(SIGMA_MINUS, SIGMA_PLUS)


def test_near_aligned_pair_has_degenerate_preferred_weights():
    inp = tensor_product(NEAR_PROBE, NEAR_OBJECT).amps
    anti = sum(
        abs(np.vdot(np.kron(a.amps, b.amps), inp)) ** 2
        for a, b in ((SIGMA_PLUS, SIGMA_MINUS), (SIGMA_MINUS, SIGMA_PLUS))
    )
    assert anti <= PHASE_EPS
    assert 1.0 - interaction_probability(NEAR_PROBE, NEAR_OBJECT) > PHASE_EPS


@pytest.mark.parametrize(
    "rule, probe, obj, q, p_scatter, survivor",
    [
        pytest.param(probe_rigid(), STATE_X, STATE_X, 0.0, 1.0, None, id="aligned"),
        pytest.param(
            coherent_projection(BASIS_XY), STATE_X, STATE_X, 0.0, 1.0, None, id="aligned-coherent"
        ),
        pytest.param(
            singlet_rule(), STATE_Y, STATE_X, 0.0, 0.0, SINGLET.density(), id="anti-aligned-singlet"
        ),
        pytest.param(
            probe_rigid(), SIGMA_PLUS, SIGMA_MINUS, 0.0, 0.0, _product(SIGMA_PLUS, SIGMA_MINUS),
            id="anti-aligned-probe-rigid",
        ),
        pytest.param(
            object_rigid(), SIGMA_PLUS, STATE_X, 1.0, 0.0, _product(SIGMA_PLUS, STATE_X), id="q=1"
        ),
        pytest.param(probe_rigid(), STATE_X, STATE_X, 1.0, 0.0, _product(STATE_X, STATE_X),
                     id="aligned-q=1"),
        pytest.param(
            validate_custom_rule(np.zeros((4, 4))), STATE_Y, STATE_X, 0.0, 1.0, None, id="K=0"
        ),
        pytest.param(
            validate_custom_rule(np.zeros((4, 4))), STATE_Y, STATE_X, 0.5, 0.5,
            _product(STATE_Y, STATE_X), id="K=0-q=0.5",
        ),
        pytest.param(
            preferred_basis(BASIS_SIGMA), NEAR_PROBE, NEAR_OBJECT, 0.0,
            abs(np.vdot(NEAR_PROBE.amps, NEAR_OBJECT.amps)) ** 2, SIGMA_ANTI_EVEN,
            id="degenerate-preferred-weights",
        ),
    ],
)
def test_coupling_channel_pinned_rows(rule, probe, obj, q, p_scatter, survivor):
    # the pinned pair sits between two other pairs, so a leak across rows shows
    others = ((SIGMA_PLUS, STATE_X), (D_MINUS, SIGMA_MINUS))
    probes = np.array([others[0][0].amps, probe.amps, others[1][0].amps])
    objects = np.array([others[0][1].amps, obj.amps, others[1][1].amps])
    out = coupling_channel(rule, probes, objects, q)
    assert out.p_scatter[1] == pytest.approx(p_scatter, abs=1e-12)
    assert out.alive[1] == (survivor is not None)
    expected = np.zeros((4, 4)) if survivor is None else survivor
    assert np.allclose(out.survivors[1], expected, atol=1e-12)
    single = apply_rule(rule, probe, obj, q)
    assert single.p_scatter == pytest.approx(p_scatter, abs=1e-12)
    if survivor is None:
        assert single.survive_state is None
    else:
        assert np.allclose(single.survive_state, survivor, atol=1e-12)
    for row, (p, o) in zip((0, 2), others):
        ref = apply_rule(rule, p, o, q)
        assert out.p_scatter[row] == pytest.approx(ref.p_scatter, abs=1e-15)
        ref_survivor = np.zeros((4, 4)) if ref.survive_state is None else ref.survive_state
        assert np.allclose(out.survivors[row], ref_survivor, atol=1e-15)


@pytest.mark.parametrize(
    "rule",
    list(builtin_rules()) + [validate_custom_rule(np.diag([0, 1, 1, 0]), name="remove-aligned-xy")],
    ids=lambda rule: rule.name,
)
def test_coupling_channel_rows_match_single_pairs(rule):
    rng = derive_rng(210)
    pairs = [(a, b) for a in CORNERS for b in CORNERS]
    pairs += [(random_state(rng), random_state(rng)) for _ in range(20)]
    probes = np.array([p.amps for p, _ in pairs])
    objects = np.array([o.amps for _, o in pairs])
    for q in (0.0, 0.3, 1.0):
        out = coupling_channel(rule, probes, objects, q)
        mirrored = swapped_coupling_channel(rule, probes, objects, q)
        for n, (probe, obj) in enumerate(pairs):
            single = apply_rule(rule, probe, obj, q)
            assert out.p_scatter[n] == pytest.approx(single.p_scatter, abs=1e-15)
            assert out.alive[n] == (single.survive_state is not None)
            if single.survive_state is not None:
                assert np.allclose(out.survivors[n], single.survive_state, atol=1e-15)
            reverse = apply_rule(rule, obj, probe, q)
            assert mirrored.p_scatter[n] == pytest.approx(reverse.p_scatter, abs=1e-15)
            if reverse.survive_state is not None:
                assert np.allclose(
                    mirrored.survivors[n], SWAP @ reverse.survive_state @ SWAP, atol=1e-15
                )


@pytest.mark.parametrize("levels", [(0.0, 0.3, 1.0), (0.5, 0.5)], ids=str)
@pytest.mark.parametrize("channel", [coupling_channel, swapped_coupling_channel],
                         ids=lambda f: f.__name__)
def test_level_axis_matches_per_level_calls(channel, levels):
    # a level sequence gives the per-level rows interleaved input-major, bit for bit
    rng = derive_rng(211)
    pairs = [(a, b) for a in CORNERS for b in CORNERS]
    pairs += [(random_state(rng), random_state(rng)) for _ in range(20)]
    probes = np.array([p.amps for p, _ in pairs])
    objects = np.array([o.amps for _, o in pairs])
    custom = validate_custom_rule(np.diag([0, 1, 1, 0]), name="remove-aligned-xy")
    for rule in list(builtin_rules()) + [custom]:
        stacked = channel(rule, probes, objects, levels)
        per_level = [channel(rule, probes, objects, q) for q in levels]
        for field, parts in zip(stacked, zip(*per_level)):
            expected = np.stack(parts, axis=1).reshape(-1, *parts[0].shape[1:])
            assert field.shape == expected.shape, rule
            assert field.tobytes() == expected.tobytes(), rule


def test_level_axis_rejects_any_level_outside_the_unit_interval():
    for levels, shown in (((0.0, 1.5, 0.3), "1.5"), ([0.2, float("nan")], "nan"),
                          (np.array([-0.25, 2.0]), "-0.25")):
        with pytest.raises(ValueError, match=rf"noise_q must be within \[0, 1\], got {shown}$"):
            coupling_channel(singlet_rule(), STATE_Y.amps, STATE_X.amps, levels)


# Each single-pair form as (rule, probe, object, noise_q) -> one number it reports, and
# that number for an aligned singlet pair at q = 0.5, where only fly-by |xx> survives.
@pytest.mark.parametrize("single, at_half", [
    (lambda *pair: apply_rule(*pair).p_scatter, 0.5),
    (lambda *pair: swapped_channel(*pair).p_scatter, 0.5),
    (lambda rule, p, o, q: run_correlation(p, o, BASIS_XY, rule, q).aligned_weight, 1.0),
    (lambda rule, p, o, q: run_correlation_mc(p, o, BASIS_XY, rule, q, trials=99).aligned_weight,
     1.0),
    (lambda rule, p, o, q: run_flip(p, o, rule, q).probe_probs[0], 1.0),
    (lambda rule, p, o, q: run_flip_mc(p, o, rule, q, trials=99).probe_probs[0], 1.0),
], ids=["apply_rule", "swapped_channel", "run_correlation", "run_correlation_mc", "run_flip",
        "run_flip_mc"])
def test_single_pair_forms_refuse_a_level_sequence(single, at_half):
    # row 0 of a level sequence would silently answer at its first level only
    with pytest.raises(ValueError, match="a single pair takes one noise level, got 2"):
        single(singlet_rule(), STATE_X, STATE_X, (0.0, 0.5))
    assert single(singlet_rule(), STATE_X, STATE_X, [0.5]) == at_half


def test_only_linear_kinds_carry_a_survive_operator():
    assert np.allclose(
        coherent_projection(BASIS_XY).operator, aligned_projector_complement(), atol=1e-15
    )
    assert singlet_rule().operator is None
    with pytest.raises(InvalidRuleError):
        Rule(RuleKind.SINGLET, operator=np.eye(4))


def test_singlet_output_is_input_independent():
    rng = derive_rng(205)
    count = 0
    while count < 1000:
        probe, obj = random_state(rng), random_state(rng)
        if interaction_probability(probe, obj) > 1 - 1e-9:
            continue
        out = apply_rule(singlet_rule(), probe, obj)
        assert np.allclose(out.survive_state, SINGLET.density(), atol=1e-12)
        count += 1


def test_singlet_anti_aligned_in_every_basis():
    rng = derive_rng(206)
    bases = [BASIS_XY, BASIS_SIGMA, BASIS_DIAG]
    for _ in range(50):
        u = haar_unitary(rng)
        b1 = apply_unitary(u, STATE_X)
        bases.append(Basis(b1, orthogonal_state(b1)))
    for basis in bases:
        cells = joint_born_distribution(SINGLET.density(), basis, basis)
        assert cells[0] + cells[3] < 1e-12


@given(q=st.floats(min_value=0, max_value=1, allow_nan=False))
def test_noise_continuity(q):
    probe, obj = SIGMA_PLUS, STATE_X
    for rule in builtin_rules():
        noiseless = apply_rule(rule, probe, obj, 0.0)
        noisy = apply_rule(rule, probe, obj, q)
        assert noisy.p_scatter == pytest.approx((1 - q) * noiseless.p_scatter, abs=1e-12)
        if q == 1.0:
            assert np.allclose(
                noisy.survive_state, tensor_product(probe, obj).density(), atol=1e-12
            )
        elif noisy.survive_state is not None:
            survive_nn = 1 - noiseless.p_scatter
            mass = q + (1 - q) * survive_nn
            blend = q * tensor_product(probe, obj).density()
            if noiseless.survive_state is not None:
                blend = blend + (1 - q) * survive_nn * noiseless.survive_state
            assert np.allclose(noisy.survive_state, blend / mass, atol=1e-9)


def test_fly_by_neutrality_at_q1():
    rng = derive_rng(207)
    for rule in builtin_rules():
        for _ in range(20):
            probe, obj = random_state(rng), random_state(rng)
            out = apply_rule(rule, probe, obj, 1.0)
            assert out.p_scatter == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(
                out.survive_state, tensor_product(probe, obj).density(), atol=1e-12
            )


def test_noise_q_range_checked():
    with pytest.raises(ValueError):
        apply_rule(singlet_rule(), STATE_Y, STATE_X, noise_q=1.5)


def test_preferred_basis_weights():
    rule = preferred_basis(BASIS_SIGMA)
    # input sigma+ x: all anti-aligned weight sits on the |sigma+ sigma-> cell
    out = apply_rule(rule, SIGMA_PLUS, STATE_X)
    expected = np.kron(SIGMA_PLUS.density(), SIGMA_MINUS.density())
    assert fidelity(out.survive_state, expected) >= 1 - 1e-12
    # input d+ x: both anti-aligned cells weighted equally
    out = apply_rule(rule, D_PLUS, STATE_X)
    cells = joint_born_distribution(out.survive_state, BASIS_SIGMA, BASIS_SIGMA)
    assert np.allclose(cells, [0, 0.5, 0.5, 0], atol=1e-12)


def test_survivors_are_valid_densities():
    rng = derive_rng(208)
    for rule in builtin_rules():
        for q in (0.0, 0.3, 1.0):
            for _ in range(20):
                out = apply_rule(rule, random_state(rng), random_state(rng), q)
                if out.survive_state is not None:
                    assert is_density(out.survive_state)


def test_custom_identity_is_valid():
    rule = validate_custom_rule(np.eye(4))
    out = apply_rule(rule, STATE_Y, STATE_X)
    assert out.p_scatter == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(
        out.survive_state, tensor_product(STATE_Y, STATE_X).density(), atol=1e-12
    )


def test_custom_reproduces_coherent_projection():
    custom = validate_custom_rule(aligned_projector_complement())
    reference = coherent_projection(BASIS_XY)
    rng = derive_rng(209)
    for _ in range(100):
        probe, obj = random_state(rng), random_state(rng)
        a = apply_rule(custom, probe, obj)
        b = apply_rule(reference, probe, obj)
        assert a.p_scatter == pytest.approx(b.p_scatter, abs=1e-9)
        if a.survive_state is None or b.survive_state is None:
            assert a.survive_state is None and b.survive_state is None
        else:
            assert fidelity(a.survive_state, b.survive_state) >= 1 - 1e-9


def test_custom_contraction_violation():
    with pytest.raises(ContractionViolationError) as err:
        validate_custom_rule(2 * np.eye(4))
    assert err.value.min_eigenvalue == pytest.approx(-3.0, abs=1e-9)


def test_swapped_channel_singlet_invariant():
    a = apply_rule(singlet_rule(), STATE_Y, STATE_X)
    b = swapped_channel(singlet_rule(), STATE_Y, STATE_X)
    assert np.allclose(a.survive_state, b.survive_state, atol=1e-12)
    assert np.allclose(SWAP @ SINGLET.amps, -SINGLET.amps, atol=1e-12)


def test_swapped_channel_object_rigid_asymmetry():
    direct = apply_rule(object_rigid(), SIGMA_PLUS, STATE_X)
    mirrored = swapped_channel(object_rigid(), SIGMA_PLUS, STATE_X)
    expected = np.kron(SIGMA_PLUS.density(), SIGMA_MINUS.density())
    assert np.allclose(mirrored.survive_state, expected, atol=1e-12)
    assert fidelity(direct.survive_state, mirrored.survive_state) == pytest.approx(
        0.25, abs=1e-12
    )


def test_swapped_channel_random_mix_invariant():
    a = apply_rule(random_mix(), SIGMA_PLUS, STATE_X)
    b = swapped_channel(random_mix(), SIGMA_PLUS, STATE_X)
    assert np.allclose(a.survive_state, np.eye(4) / 4, atol=1e-12)
    assert np.allclose(b.survive_state, np.eye(4) / 4, atol=1e-12)


def test_rule_from_name():
    assert rule_from_name("singlet").kind is RuleKind.SINGLET
    assert rule_from_name("Preferred-Basis:sigma").basis is BASIS_SIGMA
    assert rule_from_name("coherent-projection:xy").basis is BASIS_XY
    with pytest.raises(InvalidRuleError):
        rule_from_name("telepathy")
    with pytest.raises(InvalidRuleError):
        rule_from_name("preferred-basis")
    with pytest.raises(InvalidRuleError):
        rule_from_name("singlet:xy")
    with pytest.raises(InvalidRuleError, match="unknown rule 'custom'; built-ins: coherent-projection"):
        rule_from_name("custom")


def test_rule_requires_basis_when_parameterized():
    with pytest.raises(InvalidRuleError):
        Rule(RuleKind.PREFERRED_BASIS)


def test_load_rule_file_round_trip(tmp_path):
    op = aligned_projector_complement()
    doc = {
        "name": "remove-aligned-xy",
        "survive_operator": [[[v.real, v.imag] for v in row] for row in op],
    }
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    rule = load_rule_file(str(path))
    assert rule.name == "remove-aligned-xy"
    assert np.allclose(rule.operator, op, atol=1e-15)


def test_load_rule_file_cites_offending_entry(tmp_path):
    doc = {
        "name": "broken",
        "survive_operator": [
            [[1, 0], [0, 0], [0, 0], [0, 0]],
            [[0, 0], "oops", [0, 0], [0, 0]],
            [[0, 0], [0, 0], [1, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 0], [1, 0]],
        ],
    }
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidRuleError) as err:
        load_rule_file(str(path))
    assert "survive_operator[1][1]" in str(err.value)


def test_load_rule_file_rejects_json_booleans(tmp_path):
    rows = [[[1.0 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
    rows[2][2] = [True, 0]
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"name": "boolean", "survive_operator": rows}))
    with pytest.raises(InvalidRuleError, match=r"survive_operator\[2\]\[2\]: expected an \[re, im\] number pair"):
        load_rule_file(str(path))


def test_load_rule_file_rejects_missing_name(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"survive_operator": []}))
    with pytest.raises(InvalidRuleError) as err:
        load_rule_file(str(path))
    assert "name" in str(err.value)
