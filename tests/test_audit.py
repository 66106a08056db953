import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifmsim import (
    AuditConfig,
    AuditReport,
    BASIS_SIGMA,
    BASIS_XY,
    CHECK_IDS,
    DegenerateDataError,
    DimensionMismatchError,
    FilterConfig,
    audit_rule,
    builtin_rules,
    check_anti_alignment,
    check_basis_covariance,
    check_indistinguishability,
    check_role_symmetry,
    chi_square_two_sample,
    coherent_projection,
    object_rigid,
    preferred_basis,
    probe_rigid,
    random_mix,
    run_filter_mc,
    singlet_rule,
    tvd,
    validate_custom_rule,
)
from ifmsim.audit import _chi_square_sf, _mc_counts
from ifmsim.experiments import derive_rng

FAST_EXACT = AuditConfig(unitary_samples=25, input_samples=40, seed=11)
FAST_MC = AuditConfig(
    evaluation="mc",
    seed=11,
    mc_trials=100_000,
    mc_input_samples=6,
    mc_unitary_samples=3,
)


def test_tvd_examples():
    assert tvd([0, 0.5, 0.5], [0, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)
    assert tvd([0, 0.5, 0.5], [0.25, 0.25, 0.5]) == pytest.approx(0.25, abs=1e-15)
    assert tvd([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-15)


def test_tvd_stacks_match_row_loop():
    rng = derive_rng(5)
    a = rng.dirichlet(np.ones(3), size=(4, 6))
    b = rng.dirichlet(np.ones(3), size=(4, 6))
    stacked = tvd(a, b)
    assert stacked.shape == (4, 6)
    for i in range(4):
        for j in range(6):
            assert stacked[i, j] == tvd(a[i, j], b[i, j])
    assert isinstance(tvd(a[0, 0], b[0, 0]), float)
    a[2, 3] = [0.7, 0.7, 0.1]
    with pytest.raises(ValueError, match="first distribution sums to 1.5"):
        tvd(a, b)
    with pytest.raises(DimensionMismatchError):
        tvd(a, b[..., :2])


def test_tvd_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        tvd([1, 0], [1, 0, 0])


def test_tvd_rejects_non_distributions():
    with pytest.raises(ValueError):
        tvd([0.7, 0.7], [0.5, 0.5])


@st.composite
def distributions(draw, size=4):
    weights = draw(
        st.lists(st.floats(1e-6, 1.0, allow_nan=False), min_size=size, max_size=size)
    )
    arr = np.array(weights)
    return arr / arr.sum()


@given(d1=distributions(), d2=distributions(), d3=distributions())
def test_tvd_is_a_metric(d1, d2, d3):
    assert tvd(d1, d1) == pytest.approx(0.0, abs=1e-12)
    assert tvd(d1, d2) == pytest.approx(tvd(d2, d1), abs=1e-15)
    assert tvd(d1, d3) <= tvd(d1, d2) + tvd(d2, d3) + 1e-12
    if tvd(d1, d2) < 1e-15:
        assert np.allclose(d1, d2, atol=1e-12)


def test_chi_square_identical_counts():
    stat, p = chi_square_two_sample([10, 20, 30], [10, 20, 30])
    assert stat == pytest.approx(0.0, abs=1e-15)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_chi_square_separates_mode_counts():
    stat, p = chi_square_two_sample([0, 500, 500], [250, 250, 500])
    # direct formula: pooled expectations (125, 375, 500) per sample
    expected = 2 * ((125**2) / 125 + (125**2) / 375)
    assert stat == pytest.approx(expected, abs=1e-9)
    assert p < 1e-3


def test_chi_square_drops_empty_cells():
    stat_with, p_with = chi_square_two_sample([5, 0, 5], [7, 0, 3])
    stat_without, p_without = chi_square_two_sample([5, 5], [7, 3])
    assert stat_with == pytest.approx(stat_without, abs=1e-12)
    assert p_with == pytest.approx(p_without, abs=1e-12)


def test_chi_square_p_value_matches_incomplete_gamma():
    special = pytest.importorskip("scipy.special")
    rng = derive_rng(80)
    for dof in range(1, 9):
        signs = np.where(np.arange(dof + 1) % 2 == 0, 1.0, -1.0)
        # offsets from 0 to 20 sigma sweep the statistic from 0 deep into the tail
        for offset in (0.0, 0.01, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0):
            n = 10_000.0
            a = n + offset * np.sqrt(n) * signs
            b = n - offset * np.sqrt(n) * signs
            stat, p = chi_square_two_sample(a, b)
            assert p == pytest.approx(float(special.gammaincc(dof / 2, stat / 2)), abs=1e-12)
        a = rng.integers(1, 40, dof + 1)
        b = rng.integers(1, 40, dof + 1)
        stat, p = chi_square_two_sample(a, b)
        assert p == pytest.approx(float(special.gammaincc(dof / 2, stat / 2)), abs=1e-12)


def test_chi_square_degenerate_data():
    with pytest.raises(DegenerateDataError):
        chi_square_two_sample([0, 0], [0, 0])
    with pytest.raises(DegenerateDataError):
        chi_square_two_sample([5, 0], [3, 0])
    with pytest.raises(DimensionMismatchError):
        chi_square_two_sample([1, 2], [1, 2, 3])


def test_chi_square_stacks_match_row_loop():
    rng = derive_rng(6)
    a = rng.integers(0, 30, (4, 6, 5))
    b = rng.integers(0, 30, (4, 6, 5))
    a[0, 1, 2] = b[0, 1, 2] = 0  # a pooled-zero cell
    a[1, 2] = 0  # an empty sample
    a[2, 3], b[2, 3] = [0, 0, 7, 0, 0], [0, 0, 3, 0, 0]  # a single pooled cell
    stat, p = chi_square_two_sample(a, b)
    assert stat.shape == p.shape == (4, 6)
    degenerate = np.zeros((4, 6), dtype=bool)
    for i, j in np.ndindex(4, 6):
        try:
            assert (stat[i, j], p[i, j]) == chi_square_two_sample(a[i, j], b[i, j])
        except DegenerateDataError:
            degenerate[i, j] = True
    assert np.argwhere(degenerate).tolist() == [[1, 2], [2, 3]]
    assert np.array_equal(np.isnan(p), degenerate)
    assert np.array_equal(np.isnan(stat), degenerate)
    assert all(isinstance(x, float) for x in chi_square_two_sample(a[0, 0], b[0, 0]))
    stat, p = chi_square_two_sample(a[3, 0], b)
    assert stat.shape == p.shape == (4, 6)
    for i, j in np.ndindex(4, 6):
        assert (stat[i, j], p[i, j]) == chi_square_two_sample(a[3, 0], b[i, j])
    with pytest.raises(DimensionMismatchError):
        chi_square_two_sample(a, b[..., :4])


def test_chi_square_null_calibration():
    # independent seeds on an identical configuration: p should rarely be small
    base = dict(rule=singlet_rule(), source_mode=1, evaluation="mc", trials=100_000)
    good = 0
    for rep in range(100):
        a = run_filter_mc(FilterConfig(seed=1000 + 2 * rep, **base))
        b = run_filter_mc(FilterConfig(seed=1001 + 2 * rep, **base))
        _, p = chi_square_two_sample(a.counts, b.counts)
        good += p > 0.01
    assert good >= 95


def test_c1_probe_rigid_fails_with_quarter_and_half():
    result = check_indistinguishability(probe_rigid(), FAST_EXACT)
    assert not result.passed
    assert result.metric == pytest.approx(0.5, abs=1e-12)
    assert result.evidence["tvd_full"] == pytest.approx(0.25, abs=1e-12)
    assert result.evidence["tvd_conditional"] == pytest.approx(0.5, abs=1e-12)
    assert "roles=normal" in result.witness


@pytest.mark.parametrize("rule, roles", [(probe_rigid(), "normal"), (object_rigid(), "swapped")],
                         ids=["probe-rigid", "object-rigid"])
def test_c1_default_witness_pinned(rule, roles):
    result = check_indistinguishability(rule, AuditConfig())
    assert result.witness == (
        f"roles={roles} object_basis=XY analyzer=XY mode2=SIGMA q=0 view=conditional"
    )
    assert result.evidence == {
        "mode1": [0.0, 0.5, 0.5],
        "mode2": [0.24999999999999994, 0.24999999999999994, 0.4999999999999999],
        "tvd_full": 0.25000000000000006,
        "tvd_conditional": 0.5,
    }


def test_c1_object_rigid_fails_only_when_swapped():
    result = check_indistinguishability(object_rigid(), FAST_EXACT)
    assert not result.passed
    assert "roles=swapped" in result.witness


def test_c1_singlet_passes():
    result = check_indistinguishability(singlet_rule(), FAST_EXACT)
    assert result.passed
    assert result.metric < 1e-12


def test_c2_singlet_passes():
    assert check_role_symmetry(singlet_rule(), FAST_EXACT).passed


def test_c2_object_rigid_fails_at_sigma_plus_x():
    result = check_role_symmetry(object_rigid(), FAST_EXACT)
    assert not result.passed
    assert result.metric >= 0.75 - 1e-12


def test_c2_random_mix_passes():
    assert check_role_symmetry(random_mix(), FAST_EXACT).passed


def test_c3_singlet_passes_everywhere():
    result = check_anti_alignment(singlet_rule(), FAST_EXACT)
    assert result.passed
    assert result.metric < 1e-12


def test_c3_random_mix_fails_at_half():
    result = check_anti_alignment(random_mix(), FAST_EXACT)
    assert not result.passed
    assert result.metric == pytest.approx(0.5, abs=1e-12)


def test_c3_preferred_basis_fails_in_unbiased_basis():
    result = check_anti_alignment(preferred_basis(BASIS_SIGMA), FAST_EXACT)
    assert not result.passed
    assert result.metric == pytest.approx(0.5, abs=1e-12)
    assert "basis=SIGMA" not in result.witness


def test_c4_singlet_passes():
    assert check_basis_covariance(singlet_rule(), FAST_EXACT).passed


def test_c4_preferred_basis_fails():
    assert not check_basis_covariance(preferred_basis(BASIS_SIGMA), FAST_EXACT).passed


def test_c4_coherent_projection_fails_with_scatter_gap():
    result = check_basis_covariance(coherent_projection(BASIS_XY), FAST_EXACT)
    assert not result.passed
    assert result.metric >= 0.5 - 1e-12


def test_audit_singlet_overall_pass():
    report = audit_rule(singlet_rule(), FAST_EXACT)
    assert report.overall_pass
    assert tuple(c.check_id for c in report.checks) == CHECK_IDS
    for check in report.checks:
        assert check.passed and check.metric < 1e-9


def test_audit_alternatives_fail():
    for rule in (probe_rigid(), object_rigid(), preferred_basis(BASIS_SIGMA),
                 coherent_projection(BASIS_XY)):
        assert not audit_rule(rule, FAST_EXACT).overall_pass


def test_singlet_is_the_unique_survivor():
    passes = {rule.name: audit_rule(rule, FAST_EXACT).overall_pass for rule in builtin_rules()}
    assert passes.pop("singlet") is True
    assert not any(passes.values())


def test_audit_random_mix_fails_exactly_c3():
    report = audit_rule(random_mix(), FAST_EXACT)
    verdicts = {c.check_id: c.passed for c in report.checks}
    assert verdicts == {
        "C1_indistinguishability": True,
        "C2_role_symmetry": True,
        "C3_anti_alignment": False,
        "C4_basis_covariance": True,
    }


@pytest.mark.parametrize("config", [FAST_EXACT, FAST_MC], ids=["exact", "mc"])
def test_always_scatter_rule_fails_without_cases(config):
    # nothing ever survives a coupling, so C3 has no case to judge
    report = audit_rule(validate_custom_rule(np.zeros((4, 4)), name="always-scatter"), config)
    assert not report.overall_pass
    c3 = report.check(CHECK_IDS[2])
    assert (c3.passed, c3.metric, c3.witness) == (False, 1.0, "no cases evaluated")


@pytest.mark.parametrize("evaluation", ["exact", "mc"])
def test_c1_without_unbiased_basis_pair_fails(evaluation):
    # one basis leaves no mode-2 basis to compare against
    config = AuditConfig(bases=(BASIS_XY,), evaluation=evaluation)
    result = check_indistinguishability(singlet_rule(), config)
    assert (result.passed, result.metric, result.witness) == (False, 1.0, "no cases evaluated")


def test_audit_deterministic():
    a = audit_rule(object_rigid(), FAST_EXACT)
    b = audit_rule(object_rigid(), FAST_EXACT)
    assert a.to_json() == b.to_json()


def test_audit_noise_levels_do_not_change_verdicts():
    for rule in builtin_rules():
        patterns = []
        for levels in ((0.0,), (0.25,), (0.5,)):
            cfg = AuditConfig(unitary_samples=10, input_samples=20, seed=11,
                              noise_levels=levels)
            report = audit_rule(rule, cfg)
            patterns.append(tuple(c.passed for c in report.checks))
        assert patterns[0] == patterns[1] == patterns[2]


def test_report_json_round_trip():
    report = audit_rule(singlet_rule(), FAST_EXACT)
    text = report.to_json()
    back = AuditReport.from_json(text)
    assert back.rule_name == report.rule_name
    assert back.overall_pass == report.overall_pass
    assert back.to_json() == text


def test_mc_verdicts_match_exact_verdicts():
    # every exact metric in this battery is either ~0 or >= 0.05
    for rule in builtin_rules():
        exact = audit_rule(rule, FAST_EXACT)
        mc = audit_rule(rule, FAST_MC)
        for check_id in CHECK_IDS:
            assert mc.check(check_id).passed == exact.check(check_id).passed, (
                rule.name,
                check_id,
            )


def test_mc_audit_deterministic():
    a = audit_rule(probe_rigid(), FAST_MC)
    b = audit_rule(probe_rigid(), FAST_MC)
    assert a.to_json() == b.to_json()


def test_mc_audit_cost_does_not_grow_with_trials():
    # Per-trial draws at 10**9 trials would need blocks of gigabytes per case;
    # multinomial counts of the case laws finish in well under a second.
    config = AuditConfig(evaluation="mc", mc_trials=10**9)
    verdicts = {
        rule.name: "".join("P" if c.passed else "F" for c in audit_rule(rule, config).checks)
        for rule in (singlet_rule(), probe_rigid())
    }
    assert verdicts == {"singlet": "PPPP", "probe-rigid": "FFFP"}


@pytest.mark.parametrize(
    "rule", [singlet_rule(), probe_rigid(), object_rigid()], ids=lambda rule: rule.name
)
def test_mc_c1_evidence_counts_cover_every_trial(rule):
    result = check_indistinguishability(rule, FAST_MC)
    counts = [sum(result.evidence[key]) for key in ("counts_mode1", "counts_mode2")]
    if result.witness.endswith("view=full"):
        assert counts == [FAST_MC.mc_trials] * 2
    else:
        assert max(counts) <= FAST_MC.mc_trials


@pytest.mark.parametrize(
    "rule", [random_mix(), probe_rigid(), preferred_basis(BASIS_SIGMA)], ids=lambda rule: rule.name
)
def test_mc_c3_evidence_counts_are_nested(rule):
    result = check_anti_alignment(rule, FAST_MC)
    assert not result.passed
    evidence = result.evidence
    assert 0 < evidence["aligned_events"] <= evidence["survivors"] <= FAST_MC.mc_trials
    assert result.metric == evidence["aligned_events"] / evidence["survivors"]
    # the aligned fraction of survivors estimates the exact aligned weight
    assert result.metric == pytest.approx(check_anti_alignment(rule, FAST_EXACT).metric, abs=0.02)


# Witness, metric, threshold and p-value of C1, C2 and C4 in the FAST_MC audit;
# the thresholds pin the Bonferroni family sizes (probe-rigid C1 has fewer
# informative comparisons than singlet C1).
FAST_MC_PINNED = {
    "probe-rigid": {
        "C1": ("roles=normal object_basis=XY analyzer=XY mode2=SIGMA q=0 view=full",
               1.0, 0.9999761904761905, 0.0),
        "C2": ("input=(sigma+, x) q=0 basis=XY", 1.0, 0.9999838709677419, 0.0),
        "C4": ("unitary=haar[0] input=(theta,phi=2.43402,2.533, theta,phi=1.52845,-0.886317)"
               " q=0 basis=SIGMA", 0.9995524174421984, 0.999995, 0.0004475825578015875),
    },
    "singlet": {
        "C1": ("roles=swapped object_basis=SIGMA analyzer=SIGMA mode2=XY q=0.5 view=full",
               0.9861892337831718, 0.9999791666666666, 0.01381076621682824),
        "C2": ("input=(d+, sigma-) q=0 basis=XY", 0.9908387941735957, 0.9999848484848485,
               0.00916120582640437),
        "C4": ("unitary=DIAG->SIGMA input=(d+, sigma-) q=0 basis=XY", 0.9940069403463665,
               0.9999956140350877, 0.005993059653633468),
    },
}


@pytest.mark.parametrize("rule", [probe_rigid(), singlet_rule()], ids=lambda rule: rule.name)
def test_mc_evidence_pinned(rule):
    report = audit_rule(rule, FAST_MC)
    for check_id, pinned in FAST_MC_PINNED[rule.name].items():
        check = next(c for c in report.checks if c.check_id.startswith(check_id))
        assert (check.witness, check.metric, check.threshold, check.evidence["p_value"]) == pinned
        assert check.passed == (rule.name == "singlet" or check_id == "C4")


def test_mc_counts_null_calibration():
    # rows with zero cells and with sums off 1 by rounding; every row must follow its law
    laws = np.array([
        [0.1, 0.2, 0.3, 0.4, 0.0],
        [0.25, 0.0, 0.0, 0.25, 0.5],
        [0.5 + 1e-9, 0.5 + 1e-9, 0.0, 0.0, 0.0],
        [0.2, 0.2, 0.2, 0.2, 0.2 - 1e-12],
    ])
    probs = laws / laws.sum(axis=1, keepdims=True)
    good = total = 0
    for seed in range(100):
        config = AuditConfig(evaluation="mc", seed=seed, mc_trials=100_000)
        counts = _mc_counts(config, 22, 1, laws[None])[0]
        assert counts.shape == laws.shape
        assert np.all(counts.sum(axis=1) == config.mc_trials)
        assert np.all(counts[laws == 0] == 0)
        for row, p in zip(counts, probs):
            keep = p > 0
            expected = config.mc_trials * p[keep]
            stat = float(np.sum((row[keep] - expected) ** 2 / expected))
            good += _chi_square_sf(stat, int(keep.sum()) - 1) > 0.01
            total += 1
    assert good >= 0.95 * total


def test_audit_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(bases=())
    with pytest.raises(ValueError):
        AuditConfig(epsilon_mc=2.0)
    with pytest.raises(ValueError):
        AuditConfig(noise_levels=(1.5,))
    with pytest.raises(ValueError):
        AuditConfig(evaluation="sometimes")


def test_check_result_invariant_passed_iff_below_threshold():
    for rule in (singlet_rule(), object_rigid(), random_mix()):
        for config in (FAST_EXACT, FAST_MC):
            report = audit_rule(rule, config)
            for check in report.checks:
                assert check.passed == (check.metric < check.threshold)
                assert check.metric >= 0.0


# C1-C4 verdicts and failing metrics of the default exact audit (seed 0).  The
# C2/C4 metrics of the rigid rules and of preferred-basis:sigma are 1 - fidelity
# of rank-deficient survivors: the square roots of eigenvalues that round to
# about 1e-17 leave rounding of up to about 1e-9 in them, so they are pinned at
# 1e-8; every other failing metric is pinned at 1e-12.
DEFAULT_EXACT_TABLE = {
    "probe-rigid": ("FFFP", {"C1": (0.5, 1e-12), "C2": (0.9999918610569855, 1e-8),
                             "C3": (0.5, 1e-12)}),
    "object-rigid": ("FFFP", {"C1": (0.5, 1e-12), "C2": (0.9999918610573185, 1e-8),
                              "C3": (0.5, 1e-12)}),
    "singlet": ("PPPP", {}),
    "random-mix": ("PPFP", {"C3": (0.5, 1e-12)}),
    "preferred-basis:sigma": ("PPFF", {"C3": (0.5, 1e-12), "C4": (0.8038261878765223, 1e-8)}),
    "coherent-projection:xy": ("PPFF", {"C3": (1.0, 1e-12), "C4": (1.0, 1e-12)}),
    "remove-aligned-xy": ("PPFF", {"C3": (1.0, 1e-12), "C4": (1.0, 1e-12)}),
}


@pytest.mark.parametrize(
    "rule",
    list(builtin_rules()) + [validate_custom_rule(np.diag([0, 1, 1, 0]), name="remove-aligned-xy")],
    ids=lambda rule: rule.name,
)
def test_default_exact_audit_pinned(rule):
    verdicts, failing = DEFAULT_EXACT_TABLE[rule.name]
    report = audit_rule(rule)
    assert "".join("P" if c.passed else "F" for c in report.checks) == verdicts
    for check in report.checks:
        if check.passed:
            assert check.metric < 1e-9
        else:
            value, tol = failing[check.check_id[:2]]
            assert check.metric == pytest.approx(value, abs=tol), check.check_id
