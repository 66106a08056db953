"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one verdict line per
criterion (each test also prints an explicit pass line, visible with -s).
"""

import numpy as np

from ifmsim.audit import AuditConfig, audit_rule, chi_square_two_sample, tvd
from ifmsim.experiments import (
    FilterConfig,
    derive_rng,
    run_correlation,
    run_filter_exact,
    run_filter_mc,
    run_flip,
)
from ifmsim.rules import (
    aligned_state,
    apply_rule,
    builtin_rules,
    coherent_projection,
    interaction_probability,
    object_rigid,
    preferred_basis,
    probe_rigid,
    random_mix,
    singlet_rule,
    swapped_channel,
)
from ifmsim.states import (
    BASIS_SIGMA,
    BASIS_XY,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SINGLET,
    STATE_X,
    STATE_Y,
    density_of_ensemble,
    entanglement_entropy,
    fidelity,
    joint_born_distribution,
    orthogonal_state,
    random_state,
)

EXACT = 1e-12

C1, C2, C3, C4 = (
    "C1_indistinguishability",
    "C2_role_symmetry",
    "C3_anti_alignment",
    "C4_basis_covariance",
)


def _PASS(n, label):
    print(f"acceptance {n:02d} [{label}]: PASS")


def exact_dist(rule, mode, **kw):
    return run_filter_exact(FilterConfig(rule=rule, source_mode=mode, **kw))


def mc_dist(rule, mode, seed, **kw):
    return run_filter_mc(
        FilterConfig(rule=rule, source_mode=mode, evaluation="mc", trials=100_000,
                     seed=seed, **kw)
    )


def test_acceptance_01_ensemble_identity():
    half_identity = np.eye(2) / 2
    rho_xy = density_of_ensemble([(0.5, STATE_X), (0.5, STATE_Y)])
    rho_sigma = density_of_ensemble([(0.5, SIGMA_PLUS), (0.5, SIGMA_MINUS)])
    assert np.max(np.abs(rho_xy - half_identity)) < EXACT
    assert np.max(np.abs(rho_sigma - half_identity)) < EXACT
    _PASS(1, "ensemble identity")


def test_acceptance_02_object_rigid_scenario():
    out = apply_rule(object_rigid(), SIGMA_PLUS, STATE_X)
    assert abs(out.p_scatter - 0.5) < EXACT
    expected = np.kron(STATE_Y.density(), STATE_X.density())
    assert fidelity(out.survive_state, expected) >= 1 - EXACT
    _PASS(2, "object-rigid survivor")


def test_acceptance_03_probe_rigid_scenario():
    out = apply_rule(probe_rigid(), SIGMA_PLUS, STATE_X)
    expected = np.kron(SIGMA_PLUS.density(), SIGMA_MINUS.density())
    assert fidelity(out.survive_state, expected) >= 1 - EXACT
    _PASS(3, "probe-rigid survivor")


def test_acceptance_04_probe_rigid_distinguishability():
    d1 = exact_dist(probe_rigid(), 1)
    d2 = exact_dist(probe_rigid(), 2)
    assert np.max(np.abs(d1.probabilities() - [0, 0.5, 0.5])) < EXACT
    assert np.max(np.abs(d2.probabilities() - [0.25, 0.25, 0.5])) < EXACT
    assert abs(tvd(d1.probabilities(), d2.probabilities()) - 0.25) < EXACT
    assert abs(tvd(d1.conditional_on_survival, d2.conditional_on_survival) - 0.5) < EXACT
    report = audit_rule(probe_rigid())
    assert not report.check(C1).passed
    _PASS(4, "probe-rigid mode distinguishability")


def test_acceptance_05_object_rigid_role_asymmetry():
    # direct roles: the two modes agree
    d1 = exact_dist(object_rigid(), 1)
    d2 = exact_dist(object_rigid(), 2)
    assert tvd(d1.probabilities(), d2.probabilities()) < EXACT
    # swapped roles: same 0.25 / 0.5 separations as the probe-rigid case
    s1 = exact_dist(object_rigid(), 1, swapped_roles=True)
    s2 = exact_dist(object_rigid(), 2, swapped_roles=True)
    assert abs(tvd(s1.probabilities(), s2.probabilities()) - 0.25) < EXACT
    assert abs(tvd(s1.conditional_on_survival, s2.conditional_on_survival) - 0.5) < EXACT
    # role-symmetry failure with fidelity 1/4 at input (sigma+, x): both sides
    # scatter with p = 1/2, so the outcomes lie at trace distance
    # 0.5 * (1/2) * ||rho_direct - rho_mirrored||_1 = 0.5 * sqrt(1 - 1/4) = sqrt(3)/4
    direct = apply_rule(object_rigid(), SIGMA_PLUS, STATE_X)
    mirrored = swapped_channel(object_rigid(), SIGMA_PLUS, STATE_X)
    assert abs(fidelity(direct.survive_state, mirrored.survive_state) - 0.25) < EXACT
    assert abs(direct.p_scatter - 0.5) < EXACT and abs(mirrored.p_scatter - 0.5) < EXACT
    survivor_gap = 0.5 * (direct.survive_state - mirrored.survive_state)
    distance = 0.5 * np.abs(np.linalg.eigvalsh(survivor_gap)).sum()
    assert abs(distance - np.sqrt(3) / 4) < EXACT
    report = audit_rule(object_rigid())
    assert not report.check(C2).passed
    assert report.check(C2).metric >= np.sqrt(3) / 4 - EXACT
    _PASS(5, "object-rigid role asymmetry")


def test_acceptance_06_singlet_full_audit():
    report = audit_rule(singlet_rule(), AuditConfig())
    assert report.overall_pass
    for check in report.checks:
        assert check.passed
        assert check.metric < 1e-9
    assert abs(entanglement_entropy(SINGLET) - 1.0) < EXACT
    _PASS(6, "singlet full audit")


def test_acceptance_07_correlation_test():
    result = run_correlation(STATE_Y, STATE_X, BASIS_SIGMA, singlet_rule())
    assert result.aligned_weight < EXACT
    assert abs(result.cells[1] - 0.5) < EXACT
    assert abs(result.cells[2] - 0.5) < EXACT
    _PASS(7, "singlet anti-correlation")


def test_acceptance_08_flip_experiment():
    result = run_flip(STATE_Y, STATE_X, singlet_rule())
    assert np.max(np.abs(result.probe_probs - [0.5, 0.5])) < EXACT
    assert fidelity(result.object_given[0], STATE_Y.density()) >= 1 - EXACT
    _PASS(8, "flip experiment")


def test_acceptance_09_alternatives_fail_as_argued():
    # random-mix: only the anti-alignment check fails, at weight 1/2
    report = audit_rule(random_mix())
    assert report.check(C1).passed and report.check(C2).passed and report.check(C4).passed
    assert not report.check(C3).passed
    assert abs(report.check(C3).metric - 0.5) < EXACT

    # preferred-basis(sigma): anti-alignment fails in XY at weight 1/2, covariance fails
    rule = preferred_basis(BASIS_SIGMA)
    survivor = apply_rule(rule, STATE_Y, STATE_X).survive_state
    cells_xy = joint_born_distribution(survivor, BASIS_XY, BASIS_XY)
    assert abs((cells_xy[0] + cells_xy[3]) - 0.5) < EXACT
    report = audit_rule(rule)
    assert not report.check(C3).passed
    assert abs(report.check(C3).metric - 0.5) < EXACT
    assert not report.check(C4).passed

    # coherent-projection(xy): covariance fails; its scatter law deviates by 1/2
    rule = coherent_projection(BASIS_XY)
    gap = abs(
        apply_rule(rule, SIGMA_PLUS, SIGMA_PLUS).p_scatter
        - apply_rule(rule, STATE_X, STATE_X).p_scatter
    )
    assert abs(gap - 0.5) < EXACT
    report = audit_rule(rule)
    assert not report.check(C4).passed
    assert report.check(C4).metric >= 0.5 - EXACT
    _PASS(9, "alternatives fail")


def test_acceptance_10_noise_robustness():
    for rule in builtin_rules():
        verdicts = []
        for level in (0.0, 0.5):
            report = audit_rule(rule, AuditConfig(noise_levels=(level,)))
            verdicts.append(tuple(c.passed for c in report.checks))
        assert verdicts[0] == verdicts[1], rule.name

    singlet_report = audit_rule(singlet_rule(), AuditConfig(noise_levels=(0.5,)))
    assert singlet_report.check(C1).metric < EXACT

    noisy1 = exact_dist(object_rigid(), 1, swapped_roles=True, noise_q=0.5)
    noisy2 = exact_dist(object_rigid(), 2, swapped_roles=True, noise_q=0.5)
    cond_tvd = tvd(noisy1.conditional_on_survival, noisy2.conditional_on_survival)
    assert abs(cond_tvd - 1.0 / 6.0) < EXACT
    _PASS(10, "noise robustness")


def test_acceptance_11_monte_carlo_fidelity():
    cases = [
        ("probe-rigid modes", probe_rigid(), {}, {}),
        ("object-rigid modes", object_rigid(), {}, {}),
        ("object-rigid swapped", object_rigid(), {"swapped_roles": True}, {}),
        ("singlet modes", singlet_rule(), {}, {}),
        ("singlet swapped", singlet_rule(), {"swapped_roles": True}, {}),
        ("object-rigid swapped q=0.5", object_rigid(),
         {"swapped_roles": True, "noise_q": 0.5}, {}),
    ]
    for idx, (label, rule, kw, _) in enumerate(cases):
        exact1 = exact_dist(rule, 1, **kw)
        exact2 = exact_dist(rule, 2, **kw)
        mc1 = mc_dist(rule, 1, seed=9000 + 2 * idx, **kw)
        mc2 = mc_dist(rule, 2, seed=9001 + 2 * idx, **kw)
        assert tvd(mc1.probabilities(), exact1.probabilities()) < 0.01, label
        assert tvd(mc2.probabilities(), exact2.probabilities()) < 0.01, label
        _, p_value = chi_square_two_sample(mc1.counts, mc2.counts)
        exactly_equal = tvd(exact1.probabilities(), exact2.probabilities()) < 1e-9
        if exactly_equal:
            assert p_value > 1e-3, label
        else:
            assert p_value < 1e-3, label
    rerun = mc_dist(probe_rigid(), 1, seed=9000)
    assert rerun.counts == mc_dist(probe_rigid(), 1, seed=9000).counts
    _PASS(11, "Monte Carlo fidelity")


def test_acceptance_12_alignment_properties():
    rng = derive_rng(77)
    for _ in range(1000):
        w = random_state(rng)
        assert abs(interaction_probability(aligned_state(w), w) - 1.0) < EXACT
        assert interaction_probability(orthogonal_state(aligned_state(w)), w) < EXACT
    _PASS(12, "alignment properties")
