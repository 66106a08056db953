import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ifmsim
from ifmsim import audit, rules
from ifmsim.audit import (
    AuditConfig,
    CHECK_IDS,
    DegenerateDataError,
    DimensionMismatchError,
    _chi_square_sf,
    audit_rule,
    check_anti_alignment,
    check_basis_covariance,
    check_indistinguishability,
    check_role_symmetry,
    chi_square_two_sample,
    tvd,
)
from ifmsim.experiments import ConfigError, FilterConfig, derive_rng, run_filter_mc, sample_counts
from ifmsim.rules import (
    builtin_rules,
    coherent_projection,
    object_rigid,
    preferred_basis,
    probe_rigid,
    random_mix,
    singlet_rule,
    validate_custom_rule,
)
from ifmsim.states import (
    BASIS_DIAG, BASIS_SIGMA, BASIS_XY, Basis, SINGLET, STATE_X, STATE_Y, joint_born_distribution,
    make_state,
)

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
    # a NaN sum and a negative entry both slip past a check on the row sums alone
    for bad in ([np.nan, 1.0], [1.5, -0.5], [np.inf, -np.inf], [[0.5, 0.5], [1.5, -0.5]]):
        with pytest.raises(ValueError, match="first distribution has a negative or non-finite"):
            tvd(bad, [0.5, 0.5])
        with pytest.raises(ValueError, match="second distribution has a negative or non-finite"):
            tvd([0.5, 0.5], bad)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
@pytest.mark.parametrize("side", ["first", "second"])
def test_chi_square_refuses_non_finite_counts(side, stacked, bad):
    good, worse = [[1.0, 2.0, 3.0]], [[1.0, bad, 3.0]]
    if stacked:
        good, worse = good * 2, [[4.0, 5.0, 6.0]] + worse
    args = (worse, good) if side == "first" else (good, worse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic can warn
        with pytest.raises(ValueError, match=f"{side} sample has a negative or non-finite count"):
            chi_square_two_sample(*(a if stacked else a[0] for a in args))


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


def _exact_chi_square(a, b) -> float:
    """``sum (T_b a - T_a b)^2 / (T_a T_b (a + b))`` over nonzero pooled cells, in rationals."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    total_a, total_b = sum(a), sum(b)
    return float(sum((total_b * x - total_a * y) ** 2 / (total_a * total_b * (x + y))
                     for x, y in zip(a, b) if x + y))


# (a, b, statistic): total * pooled overflows in each, and a sum of counts in the last two
OVERFLOWING_COUNTS = [
    ([1e300, 1e300], [1e300, 0.0], 7.5e299),
    ([1e200, 0.0, 5.0], [0.0, 1.0, 5.0], None),
    ([1e308, 1e308], [1e308, 0.0], 7.5e307),
    ([1.7e308, 0.0], [0.0, 1.7e308], math.inf),  # the statistic, 3.4e308, is beyond the range
]


def test_chi_square_overflowing_counts_take_the_scaled_form():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, want in OVERFLOWING_COUNTS:
            stat, p = chi_square_two_sample(a, b)
            if want is None:
                want = _exact_chi_square(a, b)
            assert stat == pytest.approx(want, rel=1e-12), (a, b)
            assert p == 0.0, (a, b)
        # tiny counts underflow the same product and scale up alike
        stat, p = chi_square_two_sample([1e-300, 2e-300], [3e-300, 1e-300])
        assert stat == pytest.approx(_exact_chi_square([1e-300, 2e-300], [3e-300, 1e-300]),
                                     rel=1e-12)
        assert p == 1.0


def test_chi_square_overflowing_rows_of_a_stack_leave_the_others_alone():
    # rows of counts below 2**63 keep the bits of the direct pooled-expectation form
    small_a, small_b = derive_rng(19).integers(0, 2**62, (2, 4, 3)).astype(float)
    a = np.concatenate([small_a, [[1e300, 1e300, 0.0], [1e200, 0.0, 5.0], [0.0, 0.0, 0.0]]])
    b = np.concatenate([small_b, [[1e300, 0.0, 0.0], [0.0, 1.0, 5.0], [1.0, 2.0, 3.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stat, p = chi_square_two_sample(a, b)
        rows = [chi_square_two_sample(a[n], b[n]) for n in range(6)]
    total_a, total_b = small_a.sum(axis=-1)[:, None], small_b.sum(axis=-1)[:, None]
    pooled, grand = small_a + small_b, total_a + total_b
    direct = sum(((x - t * pooled / grand) ** 2 / (t * pooled / grand)).sum(axis=-1)
                 for x, t in ((small_a, total_a), (small_b, total_b)))
    assert stat[:4].tobytes() == direct.tobytes()
    assert (stat[4], p[4]) == (pytest.approx(7.5e299, rel=1e-12), 0.0)
    assert (stat[5], p[5]) == (pytest.approx(_exact_chi_square(a[5], b[5]), rel=1e-12), 0.0)
    assert np.isnan(stat[6]) and np.isnan(p[6])
    assert [tuple(x) for x in zip(stat[:6], p[:6])] == rows


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
    # the (sigma+, x) corner alone puts the outcomes sqrt(3)/4 apart in trace distance
    result = check_role_symmetry(object_rigid(), FAST_EXACT)
    assert not result.passed
    assert result.metric >= np.sqrt(3) / 4 - 1e-12


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


GRID_BUILDERS = (
    audit._mode_pair_grid,
    audit._role_inputs,
    audit._anti_alignment_inputs,
    audit._covariance_grid,
    audit._basis_vectors,
)


def _cold_report(rule, config) -> str:
    for builder in GRID_BUILDERS:
        builder.cache_clear()
    return audit_rule(rule, config).to_json()


@pytest.mark.parametrize("config", [FAST_EXACT, FAST_MC], ids=["exact", "mc"])
def test_grids_are_built_once_per_config(config):
    # each entry is read once per audit, but the basis vectors by every Born
    # call: C3's, and in Monte Carlo mode also both sides' of C2 and C4
    reads = {audit._basis_vectors: 5 if config.evaluation == "mc" else 1}
    for builder in GRID_BUILDERS:
        builder.cache_clear()
    audit_rule(singlet_rule(), config)
    audit_rule(probe_rigid(), config)
    for builder in GRID_BUILDERS:
        info = builder.cache_info()
        hits = 2 * reads.get(builder, 1) - 1
        assert (info.misses, info.hits, info.currsize) == (1, hits, 1), builder


@pytest.mark.parametrize("evaluation", ["exact", "mc"])
def test_grid_cache_reports_match_cold_cache(evaluation):
    sizes = dict(evaluation=evaluation, input_samples=20, unitary_samples=10, mc_input_samples=3,
                 mc_unitary_samples=2)
    a = AuditConfig(seed=11, **sizes)
    b = AuditConfig(seed=12, bases=(BASIS_SIGMA,), noise_levels=(0.3,), **sizes)
    for rule in (probe_rigid(), singlet_rule()):
        warm = [audit_rule(rule, config).to_json() for config in (a, b, a)]
        assert warm == [_cold_report(rule, config) for config in (a, b, a)]


def test_grid_cache_sees_noise_levels_mutated_in_place():
    levels = [0.0, 0.5]
    config = AuditConfig(input_samples=20, unitary_samples=10, noise_levels=levels)
    first = audit_rule(probe_rigid(), config).to_json()
    for mutate in (lambda: levels.__setitem__(1, 0.25), lambda: levels.append(1.0)):
        mutate()
        fresh = AuditConfig(input_samples=20, unitary_samples=10, noise_levels=tuple(levels))
        assert audit_rule(probe_rigid(), config).to_json() == _cold_report(probe_rigid(), fresh)
    assert _cold_report(probe_rigid(), config) != first


def test_cached_grid_arrays_are_read_only():
    pairs = audit._MC_CORNER_PAIRS
    bases = (BASIS_XY, BASIS_SIGMA)
    grids = [
        audit._mode_pair_grid(bases, "all")[1],
        audit._role_inputs(pairs, 0, 21, 3),
        audit._anti_alignment_inputs(pairs, 0, 31, 3),
        audit._covariance_grid(bases, pairs, 0, 41, 2)[1:],
        (audit._basis_vectors(bases),),
    ]
    *_, uu_dagger, uu = grids[3]
    assert uu_dagger.tobytes() == uu.conj().swapaxes(-1, -2).tobytes()
    for grid in grids:
        for array in grid:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_distinguishable_source_modes_raise_on_every_call():
    # a near-orthogonal pair, built past the Basis check, whose 50/50 mixture
    # is not I/2 although it is unbiased with SIGMA to within 1e-6
    leaky = object.__new__(Basis)
    for name, value in (("b1", STATE_X), ("b2", make_state(1e-7, 1)), ("label", "leaky")):
        object.__setattr__(leaky, name, value)
    bad = AuditConfig(bases=(leaky, BASIS_SIGMA), input_samples=5, unitary_samples=2)
    for config in (bad, FAST_EXACT, bad, bad):
        if config is bad:
            with pytest.raises(ConfigError, match="distinguishable density matrices"):
                audit_rule(singlet_rule(), config)
        else:
            audit_rule(singlet_rule(), config)


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
        counts = sample_counts(config.seed, config.mc_trials, laws[None], 22, 1)[0]
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


AUDIT_FIELD_ERRORS = {
    "epsilon_exact": (1.5, "epsilon_exact must lie in (0, 1), got 1.5"),
    "epsilon_mc": (0.0, "epsilon_mc must lie in (0, 1), got 0.0"),
    **{name: (0, f"{name} must be >= 1, got 0") for name in (
        "unitary_samples", "input_samples", "mc_trials", "mc_input_samples", "mc_unitary_samples")},
}


@pytest.mark.parametrize("name", AUDIT_FIELD_ERRORS)
def test_audit_config_errors_name_the_field(name):
    value, message = AUDIT_FIELD_ERRORS[name]
    with pytest.raises(ConfigError, match=re.escape(message)):
        AuditConfig(**{name: value})


def test_audit_sample_counts_are_capped():
    for name in ("unitary_samples", "input_samples", "mc_input_samples", "mc_unitary_samples"):
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be <= 100000, got 100001")):
            AuditConfig(**{name: 100_001})
        assert getattr(AuditConfig(**{name: 100_000}), name) == 100_000


def test_audit_noise_levels_are_capped():
    assert len(AuditConfig(noise_levels=(0.0,) * 16).noise_levels) == 16
    for count in (17, 500):
        with pytest.raises(ConfigError, match=re.escape(
                f"noise_levels must hold at most 16 levels, got {count}")):
            AuditConfig(noise_levels=(0.0,) * count)


@pytest.mark.parametrize("check", [check_indistinguishability, check_role_symmetry,
                                   check_anti_alignment, check_basis_covariance])
@pytest.mark.parametrize("evaluation", ["exact", "mc"])
@pytest.mark.parametrize("mutate, message", [
    (lambda levels: levels.extend([0.0] * 40), "noise_levels must hold at most 16 levels, got 41"),
    (lambda levels: levels.append(2.0), "noise level 2.0 outside [0, 1]"),
    (lambda levels: levels.clear(), "noise_levels must not be empty"),
], ids=["41-levels", "level-2.0", "empty"])
def test_noise_levels_mutated_after_construction_are_refused(check, evaluation, mutate, message):
    # the config keeps the caller's list, so every check re-checks it before it builds rows
    levels = [0.0]
    config = AuditConfig(noise_levels=levels, input_samples=5, unitary_samples=5,
                         evaluation=evaluation, mc_input_samples=2, mc_unitary_samples=2)
    mutate(levels)
    with pytest.raises(ConfigError, match=re.escape(message)):
        check(singlet_rule(), config)
    with pytest.raises(ConfigError, match=re.escape(message)):
        audit_rule(singlet_rule(), config)


@pytest.mark.parametrize("numbers", [
    dict(seed=np.int64(3)),
    dict(mc_trials=np.int64(1000), evaluation="mc"),
    dict(epsilon_exact=np.float32(1e-6), epsilon_mc=np.float32(1e-3)),
], ids=["seed", "mc_trials", "epsilons"])
def test_audit_config_numpy_scalars_give_a_json_report(numbers):
    sizes = dict(input_samples=5, unitary_samples=2, mc_input_samples=2, mc_unitary_samples=2)
    config = AuditConfig(**sizes, **numbers)
    for name, value in numbers.items():
        assert type(getattr(config, name)) is type(getattr(AuditConfig(), name)), name
    text = audit_rule(singlet_rule(), config).to_json()
    plain = {name: value.item() if isinstance(value, np.generic) else value
             for name, value in numbers.items()}
    assert text == audit_rule(singlet_rule(), AuditConfig(**sizes, **plain)).to_json()


def test_check_result_invariant_passed_iff_below_threshold():
    for rule in (singlet_rule(), object_rigid(), random_mix()):
        for config in (FAST_EXACT, FAST_MC):
            report = audit_rule(rule, config)
            for check in report.checks:
                assert check.passed == (check.metric < check.threshold)
                assert check.metric >= 0.0


# C1-C4 verdicts and failing metrics of the default exact audit (seed 0), each
# pinned at 1e-12.
DEFAULT_EXACT_TABLE = {
    "probe-rigid": ("FFFP", {"C1": 0.5, "C2": 0.49999892513056426, "C3": 0.5}),
    "object-rigid": ("FFFP", {"C1": 0.5, "C2": 0.49999892513056426, "C3": 0.5}),
    "singlet": ("PPPP", {}),
    "random-mix": ("PPFP", {"C3": 0.5}),
    "preferred-basis:sigma": ("PPFF", {"C3": 0.5, "C4": 0.809016994374947}),
    "coherent-projection:xy": ("PPFF", {"C3": 1.0, "C4": 0.8090169943749473}),
    "remove-aligned-xy": ("PPFF", {"C3": 1.0, "C4": 0.8090169943749473}),
}
REMOVE_ALIGNED_XY = validate_custom_rule(np.diag([0, 1, 1, 0]), name="remove-aligned-xy")


@pytest.mark.parametrize("rule", list(builtin_rules()) + [REMOVE_ALIGNED_XY],
                         ids=lambda rule: rule.name)
def test_default_exact_audit_pinned(rule):
    verdicts, failing = DEFAULT_EXACT_TABLE[rule.name]
    report = audit_rule(rule)
    assert "".join("P" if c.passed else "F" for c in report.checks) == verdicts
    for check in report.checks:
        if check.passed:
            assert check.metric < 1e-9
        else:
            assert check.metric == pytest.approx(failing[check.check_id[:2]], abs=1e-12), \
                check.check_id


# Exact C2-C4 at seed 5: their witnesses and metrics come from the seed-5
# draws, so a check that drew its random inputs at a fixed seed would show.  C4
# runs in the SIGMA basis alone, where its worst case is a Haar draw, not a
# corner unitary.
SEED5_EXACT = [
    (probe_rigid(), check_role_symmetry, AuditConfig(seed=5), 0.4999992708995177,
     "input=(theta,phi=2.20918,-0.764956, theta,phi=1.39206,1.20491) q=0"),
    (preferred_basis(BASIS_SIGMA), check_anti_alignment, AuditConfig(seed=5), 0.5,
     "input=(theta,phi=2.14866,-0.750574, "),
    (preferred_basis(BASIS_SIGMA), check_basis_covariance,
     AuditConfig(seed=5, bases=(BASIS_SIGMA,)), 0.7876827976481127, "unitary=haar[98] "),
]


@pytest.mark.parametrize("rule, check, config, metric, witness", SEED5_EXACT,
                         ids=["C2-probe-rigid", "C3-preferred-basis", "C4-preferred-basis"])
def test_exact_checks_pinned_at_seed_5(rule, check, config, metric, witness):
    result = check(rule, config)
    assert not result.passed
    assert result.metric == pytest.approx(metric, abs=1e-12)
    assert result.witness.startswith(witness), result.witness


@pytest.mark.parametrize("t", [1e-9, 1e-6, 1e-2])
def test_symmetric_survivor_mixtures_pass_c2_and_c4(monkeypatch, t):
    # survivors (1 - t) singlet + t I/4 are SWAP- and U (x) U-invariant at every
    # t, so role symmetry and covariance hold exactly however small t is
    mixture = (1.0 - t) * SINGLET.density() + t * np.eye(4) / 4.0
    monkeypatch.setattr(rules, "_universal_survivors",
                        lambda rule, probes, objects, inp: np.broadcast_to(mixture, (len(inp), 4, 4)))
    for check in (check_role_symmetry, check_basis_covariance):
        result = check(singlet_rule(), AuditConfig())
        assert result.passed, (check.__name__, result.metric, result.witness)


def test_symmetry_breaking_metric_falls_with_delta():
    # K = (|S><S| + delta |xy><xy|) / (1 + delta) breaks SWAP and U (x) U
    # symmetry at every delta > 0, and the break vanishes with delta
    xy = np.kron(STATE_X.amps, STATE_Y.amps)
    metrics = []
    for delta in (1e-2, 1e-3, 1e-5):
        operator = (SINGLET.density() + delta * np.outer(xy, xy.conj())) / (1.0 + delta)
        rule = validate_custom_rule(operator, name=f"singlet+{delta:g}xy")
        results = [check(rule, AuditConfig()) for check in (check_role_symmetry,
                                                            check_basis_covariance)]
        assert not any(r.passed for r in results), delta
        assert all(r.metric < 2 * delta for r in results), delta
        metrics.append([r.metric for r in results])
    assert np.all(np.diff(metrics, axis=0) < 0), metrics


@pytest.mark.parametrize("rule", list(builtin_rules()) + [REMOVE_ALIGNED_XY],
                         ids=lambda rule: rule.name)
def test_outcome_distance_matches_nuclear_norm_and_bounds_basis_tvd(rule):
    config = AuditConfig(input_samples=30, unitary_samples=15, seed=7)
    role = audit._role_cases(rule, config, audit._CORNER_PAIRS, 2, config.input_samples)
    covariance = audit._covariance_cases(rule, config, audit._CORNER_PAIRS, 4,
                                         config.unitary_samples)
    for _, out_a, out_b in (role, covariance):
        distance = audit._outcome_distance(out_a, out_b)
        diff = ((1.0 - out_a.p_scatter)[:, None, None] * out_a.survivors
                - (1.0 - out_b.p_scatter)[:, None, None] * out_b.survivors)
        rows = derive_rng(7).choice(len(distance), size=40, replace=False)
        for n in rows:
            nuclear = np.linalg.svd(diff[n], compute_uv=False).sum()
            brute = 0.5 * (abs(out_a.p_scatter[n] - out_b.p_scatter[n]) + nuclear)
            assert distance[n] == pytest.approx(brute, abs=1e-12), n
        # the distance bounds the five-outcome law that Monte Carlo samples, in every basis
        basis_tvd = tvd(audit._basis_laws(out_a, config.bases),
                        audit._basis_laws(out_b, config.bases))
        assert np.all(distance[:, None] >= basis_tvd - 1e-12)


def _all_rows_pair_verdict(check_id, config, label, out_a, out_b, names):
    """Reference for ``audit._exact_pair_verdict``: the trace norm of every row, then argmax."""
    disc = audit._outcome_distance(out_a, out_b)
    row = int(np.argmax(disc))
    evidence = {f"p_scatter_{name}": float(out.p_scatter[row])
                for name, out in zip(names, (out_a, out_b))}
    return audit._exact_verdict(check_id, float(disc[row]), label(row), evidence, config)


def _result_fields(result):
    return (result.check_id, result.passed, result.metric, result.threshold, result.witness,
            result.evidence)


def _assert_pair_checks_match_all_rows(rule, config):
    levels = audit._exact_pair_levels(config)
    role = audit._role_cases(rule, config, audit._CORNER_PAIRS, 2, config.input_samples, levels)
    covariance = audit._covariance_cases(rule, config, audit._CORNER_PAIRS, 4,
                                         config.unitary_samples, levels)
    for check, check_id, cases, names in (
        (check_role_symmetry, CHECK_IDS[1], role, ("direct", "swapped")),
        (check_basis_covariance, CHECK_IDS[3], covariance, ("rotated", "base")),
    ):
        want = _all_rows_pair_verdict(check_id, config, *cases, names)
        assert _result_fields(check(rule, config)) == _result_fields(want), (rule.name, check_id)


PAIR_CHECK_RULES = list(builtin_rules()) + [
    REMOVE_ALIGNED_XY,
    validate_custom_rule(np.zeros((4, 4)), name="k-zero"),
    preferred_basis(BASIS_XY),
    coherent_projection(BASIS_DIAG),
    coherent_projection(BASIS_SIGMA),
]
PAIR_CHECK_CONFIGS = {
    **{f"seed-{seed}": AuditConfig(seed=seed) for seed in (0, 1, 2, 3, 77)},
    "one-basis": AuditConfig(bases=(BASIS_SIGMA,), seed=5),
    "two-basis-three-levels": AuditConfig(bases=(BASIS_XY, BASIS_DIAG),
                                          noise_levels=(0.0, 0.3, 1.0), seed=9),
    "one-level-q0.25": AuditConfig(noise_levels=(0.25,), seed=4),
    "one-level-q0": AuditConfig(noise_levels=(0.0,), seed=4),
}


@pytest.mark.parametrize("config", PAIR_CHECK_CONFIGS.values(), ids=PAIR_CHECK_CONFIGS)
def test_exact_pair_verdict_matches_every_row_reference(config):
    # exact C2/C4 take trace norms only of rows that can be the worst; the
    # verdict, metric, witness and evidence are those of all rows
    for rule in PAIR_CHECK_RULES:
        _assert_pair_checks_match_all_rows(rule, config)


def test_exact_pair_verdict_matches_reference_on_symmetric_and_delta_rules(monkeypatch):
    xy = np.kron(STATE_X.amps, STATE_Y.amps)
    for delta in (1e-2, 1e-3, 1e-5):
        operator = (SINGLET.density() + delta * np.outer(xy, xy.conj())) / (1.0 + delta)
        _assert_pair_checks_match_all_rows(validate_custom_rule(operator), AuditConfig())
    for t in (1e-9, 1e-6, 1e-2):
        mixture = (1.0 - t) * SINGLET.density() + t * np.eye(4) / 4.0
        monkeypatch.setattr(rules, "_universal_survivors",
                            lambda rule, probes, objects, inp: np.broadcast_to(
                                mixture, (len(inp), 4, 4)))
        _assert_pair_checks_match_all_rows(singlet_rule(), AuditConfig())


def _delta_rule(delta):
    """``K = (|S><S| + delta |xy><xy|) / (1 + delta)``, off SWAP and ``U (x) U`` symmetry by delta."""
    xy = np.kron(STATE_X.amps, STATE_Y.amps)
    operator = (SINGLET.density() + delta * np.outer(xy, xy.conj())) / (1.0 + delta)
    return validate_custom_rule(operator, name=f"singlet+{delta:g}xy")


@pytest.mark.parametrize("rule", PAIR_CHECK_RULES + [_delta_rule(d) for d in (1e-2, 1e-5, 1e-7)],
                         ids=lambda rule: rule.name)
def test_pair_distance_at_level_q_is_one_minus_q_times_the_coupled_one(rule):
    # a fly-by leaves the product input on both sides, so it cancels from
    # every C2/C4 difference; exact C2/C4 rest on this to run one level
    levels = (0.0, 0.3, 0.5, 1.0)
    config = AuditConfig(noise_levels=levels)
    for _, out_a, out_b in (
        audit._role_cases(rule, config, audit._CORNER_PAIRS, 2, config.input_samples),
        audit._covariance_cases(rule, config, audit._CORNER_PAIRS, 4, config.unitary_samples),
    ):
        distance = audit._outcome_distance(out_a, out_b).reshape(-1, len(levels))
        scaled = np.multiply.outer(distance[:, 0], 1.0 - np.array(levels))
        assert np.abs(distance - scaled).max() <= 1e-12, rule.name


ALL_LEVEL_CONFIGS = {
    **PAIR_CHECK_CONFIGS,
    "levels-0.5-0": AuditConfig(noise_levels=(0.5, 0.0), seed=6),
    "one-level-q1": AuditConfig(noise_levels=(1.0,), seed=6),
}


@pytest.mark.parametrize("config", ALL_LEVEL_CONFIGS.values(), ids=ALL_LEVEL_CONFIGS)
def test_exact_pair_checks_match_the_reference_over_every_level(config):
    # exact C2/C4 run the lowest level only; against every row at every
    # configured level the verdict holds, the metric moves by rounding at
    # most, and a failing check keeps its witness, metric and evidence
    for rule in PAIR_CHECK_RULES:
        for check, check_id, cases, names in (
            (check_role_symmetry, CHECK_IDS[1],
             audit._role_cases(rule, config, audit._CORNER_PAIRS, 2, config.input_samples),
             ("direct", "swapped")),
            (check_basis_covariance, CHECK_IDS[3],
             audit._covariance_cases(rule, config, audit._CORNER_PAIRS, 4,
                                     config.unitary_samples),
             ("rotated", "base")),
        ):
            got = check(rule, config)
            want = _all_rows_pair_verdict(check_id, config, *cases, names)
            assert got.passed == want.passed, (rule.name, check_id)
            assert abs(got.metric - want.metric) <= 1e-12, (rule.name, check_id)
            if not want.passed:
                assert _result_fields(got) == _result_fields(want), (rule.name, check_id)


@pytest.mark.parametrize("scale", [0.0, 1.0, 1e-160, 1e-200])
def test_exact_pair_verdict_matches_reference_on_synthetic_couplings(scale):
    # differences near 1e-200 square to zero unless each row is scaled first;
    # row 5 has the largest scatter gap and no survivor difference, and rows 10
    # and 20 tie for the worst, so the first of them must be the witness
    rng = derive_rng(31)
    hermitian = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
    hermitian = hermitian + hermitian.conj().swapaxes(-1, -2)
    hermitian[5] = 0.0
    hermitian[10] = hermitian[20] = 3.0 * hermitian[10]
    p_a = 0.01 * rng.random(40)
    p_a[5] = 0.9
    p_a[20] = p_a[10]
    out_a = rules.Coupling(scale * p_a, scale * hermitian)
    out_b = rules.Coupling(np.zeros(40), np.zeros((40, 4, 4), dtype=complex))
    got = audit._exact_pair_verdict(CHECK_IDS[1], AuditConfig(), str, out_a, out_b, ("a", "b"))
    want = _all_rows_pair_verdict(CHECK_IDS[1], AuditConfig(), str, out_a, out_b, ("a", "b"))
    assert _result_fields(got) == _result_fields(want)
    assert got.witness == ("0" if scale == 0.0 else "10")


@pytest.mark.parametrize("rule", [coherent_projection(BASIS_XY), REMOVE_ALIGNED_XY],
                         ids=lambda rule: rule.name)
def test_exact_pair_verdict_runs_no_eigvalsh_when_every_row_is_zero(rule, monkeypatch):
    # at level 0 these rules' C2 differences are exactly zero on every row,
    # which the screen sees, so row 0 is the witness without a trace norm
    config = AuditConfig()
    cases = audit._role_cases(rule, config, audit._CORNER_PAIRS, 2, config.input_samples,
                              audit._exact_pair_levels(config))
    want = _all_rows_pair_verdict(CHECK_IDS[1], config, *cases, ("direct", "swapped"))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    got = check_role_symmetry(rule, config)
    assert (got.metric, got.witness) == (0.0, "input=(x, x) q=0")
    assert _result_fields(got) == _result_fields(want)


@pytest.mark.parametrize("pairs, stream, count", [
    (audit._CORNER_PAIRS, 4, FAST_EXACT.unitary_samples),
    (audit._MC_CORNER_PAIRS, 41, FAST_MC.mc_unitary_samples),
], ids=["exact", "mc"])
def test_covariance_cases_match_a_base_coupling_on_every_row(pairs, stream, count):
    # the base coupling runs once per distinct input and is gathered per row
    config = FAST_EXACT
    _, probes, objects, index, *_, uu = audit._covariance_grid(
        tuple(config.bases), pairs, config.seed, stream, count)
    assert len(probes) == len(pairs) + count
    for rule in PAIR_CHECK_RULES:
        _, _, conjugated = audit._covariance_cases(rule, config, pairs, stream, count)
        base = rules.coupling_channel(rule, probes[index], objects[index], config.noise_levels)
        survivors = base.survivors.reshape(len(index), -1, 4, 4)
        survivors = (uu @ survivors @ uu.conj().swapaxes(-1, -2)).reshape(-1, 4, 4)
        assert conjugated.p_scatter.tobytes() == base.p_scatter.tobytes(), rule.name
        assert conjugated.survivors.tobytes() == survivors.tobytes(), rule.name


# Trials per comparison of the random count stacks: few trials tie p-values
# near 1; many saturate 1 - p at 1.0 once the sides differ.
WALK_TRIALS = (1, 2, 3, 5, 10, 20, 1000, 100_000)


def _count_stacks(rng, stacks: int, rows: int, columns: int, cells: int):
    """Counts ``(stacks, rows, columns, cells)`` per side, each stack in one of five regimes."""
    trials = rng.choice(WALK_TRIALS, stacks)[:, None, None]
    regime = rng.integers(5, size=stacks)[:, None, None, None]
    law_a, law_b = rng.dirichlet(np.ones(cells), size=(2, stacks, rows, columns))
    # regime 1, disjoint supports: at many trials p underflows and every 1 - p is 1.0
    split = np.arange(cells) < cells // 2
    law_a, law_b = (np.where(regime == 1, law * side, law) for law, side in
                    ((law_a, split), (law_b, ~split)))
    law_a, law_b = (law / law.sum(axis=-1, keepdims=True) for law in (law_a, law_b))
    a, b = rng.multinomial(trials, law_a), rng.multinomial(trials, law_b)
    b = np.where(regime == 0, a, b)  # identical sides: p = 1 everywhere
    zero = ((regime == 2) & (rng.random(a.shape) < 0.4)  # zeroed cells mix the dof in a stack
            | (regime == 3) & (np.arange(cells) > 0))  # one pooled cell or an empty side
    return np.where(zero, 0, a), np.where(zero, 0, b)


def _every_comparison_verdicts(config, counts_a, counts_b):
    """Reference for ``audit._mc_verdict`` per stack: every p-value, the Bonferroni
    threshold, argmax of ``1 - p``."""
    _, p_values = chi_square_two_sample(counts_a, counts_b)
    flat = p_values.reshape(len(p_values), -1)
    informative = ~np.isnan(flat)
    worst = np.argmax(np.where(informative, 1.0 - flat, -1.0), axis=1)
    for n, family in enumerate(informative.sum(axis=1).tolist()):
        if not family:
            yield audit._no_cases("C", 1.0)
            continue
        threshold = 1.0 - config.epsilon_mc / family
        row, column = divmod(int(worst[n]), p_values.shape[2])
        p_value = float(flat[n, worst[n]])
        yield audit.CheckResult("C", 1.0 - p_value < threshold, 1.0 - p_value, threshold,
                                f"{row},{column}", {"p_value": p_value})


def test_mc_verdict_matches_the_every_comparison_reference():
    config = AuditConfig(evaluation="mc")
    rng = derive_rng(1616)
    checked = no_cases = 0
    for rows in range(1, 7):
        for cells, columns in ((3, 2), (5, 3)):  # C1, and C2/C4 over three bases
            a, b = _count_stacks(rng, 1700, rows, columns, cells)
            for n, want in enumerate(_every_comparison_verdicts(config, a, b)):
                got = audit._mc_verdict("C", config, a[n], b[n], lambda row, k: f"{row},{k}",
                                        lambda row, k: {})
                assert _result_fields(got) == _result_fields(want), (a[n].tolist(), b[n].tolist())
                checked += 1
                no_cases += got.witness == "no cases evaluated"
    assert checked >= 20_000
    assert 3000 < no_cases < 10_000


def _scalar_chi_square_sf(stat: float, dof: int) -> float:
    """Oracle: the A&S 26.4.4/26.4.5 series in scalar Python, one term at a time."""
    half = stat / 2.0
    if dof % 2 == 0:
        term = math.exp(-half)
        total = term
        for r in range(1, dof // 2):
            term *= half / r
            total += term
    else:
        total = math.erfc(math.sqrt(half))
        term = math.exp(-half) * math.sqrt(2.0 * stat / math.pi)
        for r in range(1, (dof + 1) // 2):
            total += term
            term *= stat / (2 * r + 1)
    return min(max(total, 0.0), 1.0)


def test_chi_square_sf_elementwise_equals_the_scalar_series_bit_for_bit():
    rng = derive_rng(1818)
    dof = np.arange(1, 41)
    bulk = np.concatenate([rng.exponential(np.tile(dof, 5000).astype(float)),  # near the mean
                           rng.random(40 * 2000) * 400.0,  # the far tail
                           rng.random(40 * 1000) * 1e-6])  # near zero
    edges = np.array([0.0, 5e-324, 1e-300, 700.0, 1400.0, 1e10, 1e300])
    stat = np.concatenate([bulk, np.repeat(edges, len(dof))])
    dofs = np.concatenate([np.tile(dof, len(bulk) // len(dof)), np.tile(dof, len(edges))])
    assert len(stat) >= 300_000
    got = _chi_square_sf(stat, dofs)
    want = np.array([_scalar_chi_square_sf(s, d) for s, d in zip(stat.tolist(), dofs.tolist())])
    assert got.tobytes() == want.tobytes()
    # scalars give a float of the same bits
    assert _chi_square_sf(float(stat[7]), int(dofs[7])) == want[7]
    assert type(_chi_square_sf(3.0, 2)) is float


def test_basis_laws_equal_a_born_call_per_basis():
    # one Born call over every basis gives the bits of one call per basis
    config = FAST_EXACT
    for rule in PAIR_CHECK_RULES:
        _, direct, mirrored = audit._role_cases(rule, config, audit._CORNER_PAIRS, 2, 20)
        for out in (direct, mirrored):
            survive = 1.0 - out.p_scatter
            want = np.stack([np.clip(np.column_stack(
                [survive[:, None] * joint_born_distribution(out.survivors, b, b), out.p_scatter]),
                0.0, None) for b in config.bases], axis=1)
            assert audit._basis_laws(out, config.bases).tobytes() == want.tobytes(), rule.name


def test_audits_load_no_numpy_ma():
    # np.unique imports numpy.ma on first use, which adds to set-up time and memory
    code = (
        "import sys, ifmsim; "
        "from ifmsim import AuditConfig, audit_rule; "
        "from ifmsim.rules import probe_rigid; "
        "[audit_rule(probe_rigid(), AuditConfig(evaluation=mode, input_samples=5, "
        "unitary_samples=5)) for mode in ('exact', 'mc')]; "
        "print('numpy.ma' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ifmsim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
