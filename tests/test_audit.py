import dataclasses
import gc
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ifmsim
from ifmsim import audit, experiments, rules
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
from ifmsim.experiments import (
    ConfigError, FilterConfig, derive_rng, run_filter_exact, run_filter_mc, sample_counts,
)
from ifmsim.rules import (
    builtin_rules,
    coherent_projection,
    object_rigid,
    preferred_basis,
    probe_rigid,
    random_mix,
    rule_from_name,
    singlet_rule,
    validate_custom_rule,
)
from ifmsim.states import (
    BASIS_DIAG, BASIS_SIGMA, BASIS_XY, NAMED_STATES, PHASE_EPS, SINGLET, STATE_X, STATE_Y,
    QubitState, _canonical_phase, _joint_vectors, _pair_amps, eigenbasis_of, haar_unitaries,
    joint_born_distribution, make_state, mutually_unbiased, orthogonal_state, state_label,
    uniform_state_amps,
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


# (a, b, dof): scaled by the row's largest count, a cell (first) or a whole
# sample (second) underflows to 0, below float resolution
UNDERFLOWING_COUNTS = [
    ([1e300, 1e-300, 0.0], [1e300, 0.0, 5.0], 2),
    ([1e-300, 0.0], [1e300, 1e300], 1),
]


def test_chi_square_cells_below_float_resolution_add_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, dof in UNDERFLOWING_COUNTS:
            stat, p = chi_square_two_sample(a, b)
            assert stat == pytest.approx(_exact_chi_square(a, b), rel=1e-12, abs=1e-290), (a, b)
            assert p == _chi_square_sf(stat, dof), (a, b)
        stat, p = chi_square_two_sample([[1e300, 1e-300, 0.0], [1e-300, 0.0, 0.0]],
                                        [[1e300, 0.0, 5.0], [1e300, 1e300, 0.0]])
    assert [tuple(x) for x in zip(stat, p)] == [chi_square_two_sample(a, b)
                                                for a, b, _ in UNDERFLOWING_COUNTS]


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
    assert result.metric == pytest.approx(0.25, abs=1e-12)
    assert result.evidence["tvd_full"] == result.metric
    assert result.evidence["tvd_conditional"] == pytest.approx(0.5, abs=1e-12)
    assert "roles=normal" in result.witness


@pytest.mark.parametrize("rule, roles", [(probe_rigid(), "normal"), (object_rigid(), "swapped")],
                         ids=["probe-rigid", "object-rigid"])
def test_c1_default_witness_pinned(rule, roles):
    result = check_indistinguishability(rule, AuditConfig())
    assert result.witness == (
        f"roles={roles} object_basis=XY analyzer=XY mode2=SIGMA"
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


@pytest.mark.parametrize("config", [FAST_EXACT, FAST_MC], ids=["exact", "mc"])
@pytest.mark.parametrize("eps", [1e-5, 1e-2])
def test_almost_always_scatter_rule_fails_as_k_zero_does(config, eps):
    # K = eps I survives every pair with eps^2 and leaves it as it was: C1, C2 and
    # C4 hold, and C3 must fail for every eps, as for K = 0.  At eps = 1e-5 every
    # row survives with 1e-10, an aligned weight below epsilon_exact, so C3 must
    # keep no such row as a case
    report = audit_rule(validate_custom_rule(eps * np.eye(4), name="eps-identity"), config)
    assert "".join("PF"[not c.passed] for c in report.checks) == "PPFP"
    assert not report.overall_pass
    if eps == 1e-5:
        c3 = report.check(CHECK_IDS[2])
        assert (c3.metric, c3.witness) == (1.0, "no cases evaluated")


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
    # the audit couples at level 0; at levels 0.25 and 0.5 every C2/C4 outcome
    # distance scales by 1 - q, so no distance crosses the threshold the level-0
    # verdict read
    cfg = AuditConfig(unitary_samples=10, input_samples=20, seed=11)
    for rule, q in itertools.product(builtin_rules(), (0.25, 0.5)):
        report = audit_rule(rule, cfg)
        for check_id, (_, out_a, out_b) in zip(CHECK_IDS[1::2], _exact_pair_cases(rule, cfg, q)):
            worst = audit._outcome_distance(out_a, out_b).max()
            assert (worst < cfg.epsilon_exact) == report.check(check_id).passed, (rule.name, q)


# The one table builder, which carries the grids it stacks and the basis forms, is the
# audit's only cache.
CACHES = (audit._table,)


def _pass_table(config):
    """The table of ``config``'s pass: the modes differ in corner pairs and sample counts."""
    if config.evaluation == "exact":
        return audit._table(config.bases, audit._CORNER_PAIRS, config.seed, config.input_samples,
                            config.unitary_samples)
    return audit._table(config.bases, audit._MC_CORNER_PAIRS, config.seed,
                        config.mc_input_samples, config.mc_unitary_samples)


def _cold_report(rule, config) -> str:
    for cached in CACHES:
        cached.cache_clear()
    experiments._seed_words.cache_clear()
    return audit_rule(rule, config).to_json()


@pytest.mark.parametrize("configs", [(FAST_EXACT,), (FAST_MC,), (FAST_EXACT, FAST_MC, FAST_EXACT)],
                         ids=["exact", "mc", "exact-mc-exact"])
def test_grids_are_built_once_per_config(configs):
    # each mode's table is built once per config, and the table cache's two
    # entries keep it across a change of mode; each audit's pass reads it once
    for cached in CACHES:
        cached.cache_clear()
    for config in configs:
        audit_rule(singlet_rule(), config)
        audit_rule(probe_rigid(), config)
    # the table builder is the audit's only cache
    cached = {f for f in vars(audit).values() if hasattr(f, "cache_info")}
    assert cached == set(CACHES)
    modes, reads = len({config.evaluation for config in configs}), 2 * len(configs)
    info = audit._table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (modes, reads - modes, modes)


def _cache_config(evaluation, seed=11, **kwargs):
    return AuditConfig(evaluation=evaluation, seed=seed, input_samples=20, unitary_samples=10,
                       mc_input_samples=3, mc_unitary_samples=2, **kwargs)


def _cache_configs(evaluation):
    other = _cache_config(evaluation, seed=12, bases=(BASIS_SIGMA,))
    return (_cache_config(evaluation), other, _cache_config(evaluation))


@pytest.mark.parametrize("configs", [
    _cache_configs("exact"),
    _cache_configs("mc"),
    (_cache_config("exact"), _cache_config("mc"), _cache_config("exact")),
], ids=["exact", "mc", "exact-mc-exact"])
def test_grid_cache_reports_match_cold_cache(configs):
    for rule in (probe_rigid(), singlet_rule()):
        warm = [audit_rule(rule, config).to_json() for config in configs]
        assert warm == [_cold_report(rule, config) for config in configs]


def test_mode_pair_grid_samples_one_analyzer_per_object_basis_position():
    # a repeated basis is one object twice, so the sampled cases are chosen by
    # position in the bases: an identity test would sample both copies as analyzers
    bases = (BASIS_XY, BASIS_XY, BASIS_SIGMA)
    grid = audit._mode_pair_grid(bases)
    want = [(swapped, obj, obj, mode2) for swapped in (False, True) for obj in bases
            for mode2 in bases if mode2 is not obj and mutually_unbiased(obj, mode2)]
    assert [grid.cases[n] for n in grid.sampled] == want
    assert len(grid.cases) == len(bases) * len(want)


def test_cached_grid_arrays_are_read_only():
    bases = (BASIS_XY, BASIS_SIGMA)
    # both tables, their index arrays and basis forms, and the grids they stack:
    # C1's, C2's and C4's; C4's map_b reads the input index and the Fano
    # rotations O = 1 (+) R(U)
    tables = [audit._table(bases, pairs, 0, 3, 2)
              for pairs in (audit._CORNER_PAIRS, audit._MC_CORNER_PAIRS)]
    covariance_grids = [table.covariance for table in tables]
    grids = []
    for table in tables:
        c1 = table.c1
        grids += [
            (*table[:3], table.c1_rows, table.role_rows, table.covariance_rows),
            (*c1[:3], *c1[4:]),
            table.role[:2],
            table.covariance[:2],
            table.covariance.map_b.args,
        ]
    for grid in covariance_grids:
        _, rotations = grid.map_b.args
        assert rotations.dtype == np.float64
        assert np.abs(rotations[:, 0] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-15
        orthogonal = rotations @ rotations.swapaxes(-1, -2)
        assert np.abs(orthogonal - np.eye(4)).max() <= 1e-14
    for grid in grids:
        for array in grid:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


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
    assert counts == [FAST_MC.mc_trials] * 2


@pytest.mark.parametrize(
    "rule", [random_mix(), probe_rigid(), preferred_basis(BASIS_SIGMA)], ids=lambda rule: rule.name
)
def test_mc_c3_evidence_counts_are_nested(rule):
    result = check_anti_alignment(rule, FAST_MC)
    assert not result.passed
    evidence = result.evidence
    assert 0 < evidence["aligned_events"] <= evidence["survivors"] <= FAST_MC.mc_trials
    assert result.metric == evidence["aligned_events"] / evidence["survivors"]
    # the aligned fraction of survivors estimates the exact aligned weight within
    # five of its largest binomial standard errors, 0.5 / sqrt(survivors): 0.008
    # at 1e5 survivors, and 0.085 for preferred-basis:sigma's witness, which
    # reads 466 of 857 survivors, 0.5438 for 0.5
    noise = 5.0 * 0.5 / math.sqrt(evidence["survivors"])
    assert result.metric == pytest.approx(check_anti_alignment(rule, FAST_EXACT).metric, abs=noise)


# Witness, metric, threshold and p-value of C1, C2 and C4 in the FAST_MC audit,
# and C3's witness, metric, threshold and evidence; the C1, C2 and C4 thresholds
# pin the Bonferroni family sizes (C1 counts probe-rigid's one-cell comparisons,
# so both rules' C1 families hold all 12 full-law comparisons).
FAST_MC_PINNED = {
    "probe-rigid": {
        "C1": ("roles=normal object_basis=XY analyzer=XY mode2=SIGMA",
               1.0, 0.9999166666666667, 0.0),
        "C2": ("input=(sigma+, x) basis=XY", 1.0, 0.9999722222222223, 0.0),
        "C3": ("input=(sigma+, sigma-) basis=XY", 0.50378, 5e-06,
               {"aligned_events": 50378, "survivors": 100000}),
        "C4": ("unitary=DIAG->SIGMA input=(y, x) basis=DIAG", 0.9542459161593924,
               0.9999925925925925, 0.04575408384060761),
    },
    "singlet": {
        "C1": ("roles=normal object_basis=SIGMA analyzer=SIGMA mode2=DIAG",
               0.7788452162369391, 0.9999166666666667, 0.22115478376306089),
        "C2": ("input=(theta,phi=1.36453,0.0843692, theta,phi=1.69484,-0.797773) basis=DIAG",
               0.9803611290911408, 0.9999722222222223, 0.019638870908859154),
        "C3": ("no aligned events observed", 0.0, 5e-06, None),
        "C4": ("unitary=DIAG->XY input=(y, x) basis=XY", 0.9985705472695843,
               0.9999925925925925, 0.0014294527304157011),
    },
}


@pytest.mark.parametrize("rule", [probe_rigid(), singlet_rule()], ids=lambda rule: rule.name)
def test_mc_evidence_pinned(rule):
    report = audit_rule(rule, FAST_MC)
    for check_id, pinned in FAST_MC_PINNED[rule.name].items():
        check = next(c for c in report.checks if c.check_id.startswith(check_id))
        # C3 reads no p-value, so its pin holds the whole evidence
        last = check.evidence if check_id == "C3" else check.evidence["p_value"]
        assert (check.witness, check.metric, check.threshold, last) == pinned
        assert check.passed == (rule.name == "singlet" or check_id == "C4")


# Each sample-count field and the (mode, check) grids it sizes.
SAMPLE_FIELDS = {
    "input_samples": {("exact", "C2"), ("exact", "C3")},
    "unitary_samples": {("exact", "C4")},
    "mc_input_samples": {("mc", "C2"), ("mc", "C3")},
    "mc_unitary_samples": {("mc", "C4")},
}
CHECKS = {"C1": check_indistinguishability, "C2": check_role_symmetry,
          "C3": check_anti_alignment, "C4": check_basis_covariance}


# The sides each check's grid stacks: a C2/C4 grid stacks both sides' inputs,
# so each sample adds one input to each side.
GRID_SIDES = {"C1": 1, "C2": 2, "C3": 1, "C4": 2}


def _grid_lengths(config, monkeypatch) -> dict:
    """Per check, the number of inputs of every grid it couples.

    A check, called alone, makes its pass's one coupling call over the whole
    table.  A check's grid is the inputs of its table rows; C3's is C2's
    side a.
    """
    lengths, coupling_channel = [], audit.coupling_channel

    def record(rule, probes, objects, noise_q=0.0):
        lengths.append(len(probes))
        return coupling_channel(rule, probes, objects, noise_q)

    monkeypatch.setattr(audit, "coupling_channel", record)
    out = {}
    for name, check in CHECKS.items():
        lengths.clear()
        check(probe_rigid(), config)
        out[name] = tuple(lengths)
    monkeypatch.undo()
    table = _pass_table(config)
    assert set(out.values()) == {(len(table.probes),)}
    return {"C1": (len(table.c1.probes),), "C2": (len(table.role.probes),),
            "C3": (table.role.split,),
            "C4": (len(table.covariance.probes),)}


def test_each_sample_count_field_sizes_only_the_grids_it_names(monkeypatch):
    sizes = {"input_samples": 20, "unitary_samples": 10, "mc_input_samples": 3,
             "mc_unitary_samples": 2}
    for field, named in SAMPLE_FIELDS.items():
        for evaluation in ("exact", "mc"):
            before = _grid_lengths(AuditConfig(evaluation=evaluation, **sizes), monkeypatch)
            after = _grid_lengths(AuditConfig(evaluation=evaluation,
                                              **{**sizes, field: sizes[field] + 1}), monkeypatch)
            for name in CHECKS:
                grows = (evaluation, name) in named
                assert not grows or before[name], (field, evaluation, name)
                assert after[name] == tuple(n + grows * GRID_SIDES[name] for n in before[name]), (
                    field, evaluation, name)


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


@pytest.mark.parametrize("levels", [(1.0,), (1.0, 1.0)])
def test_audit_config_refuses_noise_levels_without_a_coupling(levels):
    # at q = 1 every pair flies by: C1, C2 and C4 would pass every rule.  The
    # audit takes no level at all
    with pytest.raises(TypeError, match="noise_levels"):
        AuditConfig(noise_levels=levels)


def test_every_audit_coupling_runs_at_level_0(monkeypatch):
    # each mode's one pass calls the coupling with no level: level 0
    seen, coupling_channel = [], audit.coupling_channel

    def record(rule, probes, objects, *level):
        seen.append(level)
        return coupling_channel(rule, probes, objects, *level)

    monkeypatch.setattr(audit, "coupling_channel", record)
    for evaluation in ("exact", "mc"):
        audit_rule(probe_rigid(), AuditConfig(evaluation=evaluation, input_samples=5,
                                              unitary_samples=5))
    assert seen == [()] * 2


def test_audit_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(bases=())
    with pytest.raises(ValueError):
        AuditConfig(epsilon_mc=2.0)
    with pytest.raises(ValueError):
        AuditConfig(mc_trials=0)
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


@pytest.mark.parametrize("check", [check_indistinguishability, check_role_symmetry,
                                   check_anti_alignment, check_basis_covariance],
                         ids=["C1", "C2", "C3", "C4"])
@pytest.mark.parametrize("evaluation", ["exact", "mc"])
@pytest.mark.parametrize("mutate, message", [
    (lambda bases: bases.append("sigma"), "bases must be a sequence of Basis, got "),
    (lambda bases: bases.clear(), "bases must not be empty"),
], ids=["not-a-basis", "empty"])
def test_bases_mutated_after_construction_are_refused(check, evaluation, mutate, message):
    # the config stores its own tuple of the caller's bases: changing the list
    # later changes neither the config, nor a check, nor the report, and a new
    # config of the changed list is refused
    bases = [BASIS_XY, BASIS_SIGMA]
    config = AuditConfig(bases=bases, input_samples=5, unitary_samples=5, evaluation=evaluation,
                         mc_input_samples=2, mc_unitary_samples=2)
    before = vars(check(singlet_rule(), config))
    report = audit_rule(singlet_rule(), config).to_json()
    mutate(bases)
    assert config.bases == (BASIS_XY, BASIS_SIGMA)
    assert vars(check(singlet_rule(), config)) == before
    assert audit_rule(singlet_rule(), config).to_json() == report
    with pytest.raises(ConfigError, match=re.escape(message)):
        AuditConfig(bases=bases)


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
    "probe-rigid": ("FFFP", {"C1": 0.25, "C2": 0.49999892513056426, "C3": 0.5}),
    "object-rigid": ("FFFP", {"C1": 0.25, "C2": 0.49999892513056426, "C3": 0.5}),
    "singlet": ("PPPP", {}),
    "random-mix": ("PPFP", {"C3": 0.5}),
    "preferred-basis:sigma": ("PPFF", {"C3": 0.5, "C4": 0.809016994374947}),
    "coherent-projection:xy": ("PPFF", {"C3": 0.5, "C4": 0.8090169943749473}),
    "remove-aligned-xy": ("PPFF", {"C3": 0.5, "C4": 0.8090169943749473}),
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


def _dense_contraction(seed: int):
    rng = derive_rng(seed)
    k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return validate_custom_rule(k / (1.01 * np.linalg.norm(k, 2)), name=f"dense-{seed}")


# Exact C2-C4 at seed 5: their witnesses and metrics come from the seed-5
# draws, so a check that drew its random inputs at a fixed seed would show.  C4
# runs in the SIGMA basis alone, where its worst case is a Haar draw, not a
# corner unitary.  A universal rule's C3 weight (1 - p) times its survivor's
# aligned weight peaks on the corner pair (x, y), where p = 0, whatever the
# seed; a dense survive operator's can peak on a drawn pair, as dense-2601's
# does on one of C2's seed-5 draws, which exact C3 reads.
SEED5_EXACT = [
    (probe_rigid(), check_role_symmetry, AuditConfig(seed=5), 0.4999992708995177,
     "input=(theta,phi=2.20918,-0.764956, theta,phi=1.39206,1.20491)"),
    (preferred_basis(BASIS_SIGMA), check_anti_alignment, AuditConfig(seed=5), 0.5,
     "input=(x, y) basis=XY"),
    (preferred_basis(BASIS_SIGMA), check_basis_covariance,
     AuditConfig(seed=5, bases=(BASIS_SIGMA,)), 0.7876827976481127, "unitary=haar[98] "),
    (_dense_contraction(2601), check_anti_alignment, AuditConfig(seed=5), 0.7053023673888905,
     "input=(theta,phi=0.778051,2.17491, theta,phi=2.97346,-1.83539) basis=SIGMA"),
]


@pytest.mark.parametrize("rule, check, config, metric, witness", SEED5_EXACT,
                         ids=["C2-probe-rigid", "C3-preferred-basis", "C4-preferred-basis",
                              "C3-dense"])
def test_exact_checks_pinned_at_seed_5(rule, check, config, metric, witness):
    result = check(rule, config)
    assert not result.passed
    assert result.metric == pytest.approx(metric, abs=1e-12)
    assert result.witness.startswith(witness), result.witness


def _survivor_mixture(t):
    """The universal scatter law with survivor ``(1 - t)`` singlet ``+ t I/4`` on every input."""
    mixture = (1.0 - t) * SINGLET.density() + t * np.eye(4) / 4.0
    return rules.Rule(f"mixture-{t:g}", "", rules._universal_law(
        lambda probes, objects, inp: np.broadcast_to(mixture, (len(inp), 4, 4))))


@pytest.mark.parametrize("t", [1e-9, 1e-6, 1e-2])
def test_symmetric_survivor_mixtures_pass_c2_and_c4(t):
    # survivors (1 - t) singlet + t I/4 are SWAP- and U (x) U-invariant at every
    # t, so role symmetry and covariance hold exactly however small t is
    rule = _survivor_mixture(t)
    for check in (check_role_symmetry, check_basis_covariance):
        result = check(rule, AuditConfig())
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


CORNER_AMPS = np.array([s.amps for s in audit.CORNER_STATES])


def _as_corner_pairs(probes, objects):
    """The inputs, each on the rays of a corner pair replaced by that pair's amplitudes.

    Both modes' tables couple such an input as its corner pair, as every law
    is a function of rays.
    """
    fits = [np.abs(states @ CORNER_AMPS.conj().T) ** 2 > 1.0 - 1e-12
            for states in (probes, objects)]
    shared = (fits[0].any(axis=1) & fits[1].any(axis=1))[:, None]
    return tuple(np.where(shared, CORNER_AMPS[fit.argmax(axis=1)], states)
                 for fit, states in zip(fits, (probes, objects)))


def _pair_cases_at(rule, grid, q, corners=False):
    """The cases of ``grid`` at fly-by level ``q``: labeller, both sides' Fano rows.

    With ``corners``, an input on a corner pair's rays couples as that pair.
    """
    inputs = _as_corner_pairs(grid.probes, grid.objects) if corners else grid[:2]
    out = rules.coupling_channel(rule, *inputs, q)
    return (grid.label, *audit._pair_sides(grid, audit._fano(out)))


def test_c3_of_the_delta_family_does_not_depend_on_the_sample_count():
    # K = (|S><S| + delta |xy><xy|) / (1 + delta) keeps delta <bb|xy> / (1 + delta) on
    # each aligned cell |bb> of the SIGMA basis for input (x, y), as the singlet has
    # none: C3 reads delta^2 / (2 (1 + delta)^2) on that corner pair, at every sample
    # count.  C2 and C4 read about delta, so every row fails; C3 alone passes below
    # delta of about 4.5e-5, where its metric is under epsilon_exact = 1e-9
    metrics = []
    for delta, row in ((1e-5, "PFPF"), (1e-3, "PFFF"), (1e-2, "PFFF")):
        rule = _delta_rule(delta)
        c3 = {check_anti_alignment(rule, AuditConfig(input_samples=n)).metric
              for n in (200, 2000, 20000)}
        assert len(c3) == 1, (delta, c3)
        metrics.append(c3.pop())
        assert metrics[-1] == pytest.approx(delta ** 2 / (2.0 * (1.0 + delta) ** 2), rel=1e-6)
        report = audit_rule(rule)
        assert "".join("PF"[not c.passed] for c in report.checks) == row, delta
        assert not report.overall_pass
    assert metrics == sorted(metrics) and len(set(metrics)) == 3


def _exact_pair_cases(rule, config, q=0.0):
    """Exact C2's and C4's cases at level ``q``; at level 0 those the audit reads.

    The exact table is coupled at ``q``, and each grid's sides read the table
    rows of its inputs, C4's rotated corners the rows of the corner pairs they
    land on.
    """
    table = _pass_table(config)
    fano = audit._fano(rules.coupling_channel(rule, table.probes, table.objects, q))
    return tuple((grid.label, *audit._pair_sides(grid, audit._Fano(*(x[rows] for x in fano))))
                 for grid, rows in ((table.role, table.role_rows),
                                    (table.covariance, table.covariance_rows)))


@pytest.mark.parametrize("rule", list(builtin_rules()) + [REMOVE_ALIGNED_XY],
                         ids=lambda rule: rule.name)
def test_outcome_distance_matches_nuclear_norm_and_bounds_basis_tvd(rule):
    config = AuditConfig(input_samples=30, unitary_samples=15, seed=7)
    for _, out_a, out_b in (*_exact_pair_cases(rule, config),
                            *_exact_pair_cases(rule, config, 0.5)):
        distance = audit._outcome_distance(out_a, out_b)
        diff = _pauli_sum_reference(out_a.r - out_b.r)
        rows = derive_rng(7).choice(len(distance), size=40, replace=False)
        for n in rows:
            nuclear = np.linalg.svd(diff[n], compute_uv=False).sum()
            brute = 0.5 * (abs(out_a.p_scatter[n] - out_b.p_scatter[n]) + nuclear)
            assert distance[n] == pytest.approx(brute, abs=1e-12), n
        # the distance bounds the five-outcome law that Monte Carlo samples, in every basis
        forms = audit._basis_forms(config.bases)
        basis_tvd = tvd(audit._fano_laws(out_a, forms), audit._fano_laws(out_b, forms))
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


PAIR_NAMES = (("direct", "swapped"), ("rotated", "base"))


def _assert_pair_checks_match_all_rows(rule, config, levels=()):
    """Exact C2/C4 against the every-row reference; the screen also at each of ``levels``."""
    for check, check_id, cases, names in zip((check_role_symmetry, check_basis_covariance),
                                             CHECK_IDS[1::2], _exact_pair_cases(rule, config),
                                             PAIR_NAMES):
        want = _all_rows_pair_verdict(check_id, config, *cases, names)
        assert _result_fields(check(rule, config)) == _result_fields(want), (rule.name, check_id)
    for q in levels:
        for check_id, cases, names in zip(CHECK_IDS[1::2], _exact_pair_cases(rule, config, q),
                                          PAIR_NAMES):
            got = audit._exact_pair_verdict(check_id, config, *cases, names)
            want = _all_rows_pair_verdict(check_id, config, *cases, names)
            assert _result_fields(got) == _result_fields(want), (rule.name, check_id, q)


PAIR_CHECK_RULES = list(builtin_rules()) + [
    REMOVE_ALIGNED_XY,
    validate_custom_rule(np.zeros((4, 4)), name="k-zero"),
    preferred_basis(BASIS_XY),
    coherent_projection(BASIS_DIAG),
    coherent_projection(BASIS_SIGMA),
]
# Each config with the fly-by levels its couplings are also read at: the
# audit couples at level 0, and the tests compare other levels against it.
PAIR_CHECK_CONFIGS = {
    **{f"seed-{seed}": (AuditConfig(seed=seed), (0.0,)) for seed in (0, 1, 2, 3, 77)},
    "one-basis": (AuditConfig(bases=(BASIS_SIGMA,), seed=5), (0.0,)),
    "two-basis-three-levels": (AuditConfig(bases=(BASIS_XY, BASIS_DIAG), seed=9), (0.0, 0.3, 1.0)),
    "one-level-q0.25": (AuditConfig(seed=4), (0.25,)),
    "one-level-q0": (AuditConfig(seed=4), (0.0,)),
}


@pytest.mark.parametrize("config, levels", PAIR_CHECK_CONFIGS.values(), ids=PAIR_CHECK_CONFIGS)
def test_exact_pair_verdict_matches_every_row_reference(config, levels):
    # exact C2/C4 take trace norms only of rows that can be the worst; the
    # verdict, metric, witness and evidence are those of all rows, for the
    # audit's level-0 couplings and for the fly-by couplings of each level
    for rule in PAIR_CHECK_RULES:
        _assert_pair_checks_match_all_rows(rule, config, levels)


def test_exact_pair_verdict_matches_reference_on_symmetric_and_delta_rules():
    for delta in (1e-2, 1e-3, 1e-5):
        _assert_pair_checks_match_all_rows(_delta_rule(delta), AuditConfig())
    for t in (1e-9, 1e-6, 1e-2):
        _assert_pair_checks_match_all_rows(_survivor_mixture(t), AuditConfig())


def _delta_rule(delta):
    """``K = (|S><S| + delta |xy><xy|) / (1 + delta)``, off SWAP and ``U (x) U`` symmetry by delta."""
    xy = np.kron(STATE_X.amps, STATE_Y.amps)
    operator = (SINGLET.density() + delta * np.outer(xy, xy.conj())) / (1.0 + delta)
    return validate_custom_rule(operator, name=f"singlet+{delta:g}xy")


@pytest.mark.parametrize("rule", PAIR_CHECK_RULES + [_delta_rule(d) for d in (1e-2, 1e-5, 1e-7)],
                         ids=lambda rule: rule.name)
def test_pair_distance_at_level_q_is_one_minus_q_times_the_coupled_one(rule):
    # a fly-by leaves the product input on both sides, so it cancels from
    # every C2/C4 difference; the audit rests on this to run level 0 alone
    config = AuditConfig()
    coupled = [audit._outcome_distance(a, b) for _, a, b in _exact_pair_cases(rule, config)]
    for q in (0.3, 0.5, 1.0):
        for base, (_, out_a, out_b) in zip(coupled, _exact_pair_cases(rule, config, q)):
            distance = audit._outcome_distance(out_a, out_b)
            assert np.abs(distance - (1.0 - q) * base).max() <= 1e-12, (rule.name, q)


ALL_LEVEL_CONFIGS = {
    **PAIR_CHECK_CONFIGS,
    "levels-0.5-0": (AuditConfig(seed=6), (0.5, 0.0)),
}


def _interleaved(sides) -> audit._Fano:
    """The Fano rows of ``sides`` as one, input-major, then the side's position."""
    return audit._Fano(*(np.stack(rows, axis=1).reshape(-1, *rows[0].shape[1:])
                         for rows in zip(*sides)))


@pytest.mark.parametrize("config, levels", ALL_LEVEL_CONFIGS.values(), ids=ALL_LEVEL_CONFIGS)
def test_exact_pair_checks_match_the_reference_over_every_level(config, levels):
    # exact C2/C4 run level 0 only; against every row at level 0 and at each
    # listed level the verdict holds, the metric moves by rounding at most,
    # and a failing check keeps its witness, metric and evidence
    every = (0.0, *levels)
    for rule in PAIR_CHECK_RULES:
        per_level = [_exact_pair_cases(rule, config, q) for q in every]
        for k, (check, check_id) in enumerate(zip((check_role_symmetry, check_basis_covariance),
                                                   CHECK_IDS[1::2])):
            label, *_ = per_level[0][k]
            out_a, out_b = (_interleaved([cases[k][side] for cases in per_level])
                            for side in (1, 2))
            got = check(rule, config)
            want = _all_rows_pair_verdict(check_id, config, lambda row: label(row // len(every)),
                                          out_a, out_b, PAIR_NAMES[k])
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
    out_a = audit._fano(rules.Coupling(scale * p_a, scale * hermitian))
    out_b = audit._fano(rules.Coupling(np.zeros(40), np.zeros((40, 4, 4), dtype=complex)))
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
    cases = _exact_pair_cases(rule, config)[0]
    want = _all_rows_pair_verdict(CHECK_IDS[1], config, *cases, ("direct", "swapped"))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh ran")

    calls = _inside_pair_verdict(monkeypatch, CHECK_IDS[1], np.linalg, "eigvalsh", refuse)
    got = check_role_symmetry(rule, config)
    assert calls == [CHECK_IDS[1]]
    assert (got.metric, got.witness) == (0.0, "input=(x, x)")
    assert _result_fields(got) == _result_fields(want)


def _inside_pair_verdict(monkeypatch, check_id, owner, name, stand_in):
    """Put ``stand_in`` for ``owner.name`` only while ``check_id``'s ``_exact_pair_verdict`` runs.

    A pass runs every check, so a stand-in set for the whole pass would see
    the other pair check's calls too.  Returns the list of that check's
    verdict calls, one entry per call.
    """
    verdict, original, calls = audit._exact_pair_verdict, getattr(owner, name), []

    def scoped(this_check, *args):
        if this_check != check_id:
            return verdict(this_check, *args)
        calls.append(this_check)
        setattr(owner, name, stand_in)
        try:
            return verdict(this_check, *args)
        finally:
            setattr(owner, name, original)

    monkeypatch.setattr(audit, "_exact_pair_verdict", scoped)
    return calls


def _psd_branches(rng, count, rank, traces):
    """``count`` random PSD 4x4 branches of the given rank, row ``n`` of trace ``traces[n]``."""
    v = rng.normal(size=(count, rank, 4)) + 1j * rng.normal(size=(count, rank, 4))
    sigma = np.einsum("nk,nki,nkj->nij", rng.random((count, rank)) + 0.1, v, v.conj())
    return sigma * (traces / np.trace(sigma, axis1=1, axis2=2).real)[:, None, None]


def _trace_norms(r_a, r_b):
    """``||sigma_a - sigma_b||_1`` per row, as ``_outcome_distance`` takes it: no scatter gap."""
    zeros = np.zeros(len(r_a))
    return 2.0 * audit._outcome_distance(audit._Fano(zeros, r_a), audit._Fano(zeros, r_b))


@given(seed=st.integers(0, 2 ** 32 - 1), ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       exponent=st.floats(-200.0, 0.0), side=st.sampled_from(["drawn", "near", "swap", "rotate"]),
       near=st.sampled_from([1e-3, 1e-9, 1e-15]))
def test_trace_norm_bracket_holds_on_random_psd_branches(seed, ranks, exponent, side, near):
    # L <= ||sigma_a - sigma_b||_1 <= U for PSD branches of any rank and of traces from
    # 1 down to 1e-200: drawn independently, near-equal, or side b SWAP'd or rotated
    # by U (x) U as C2's and C4's sides are
    rng = np.random.default_rng(seed)
    count = 16
    traces = 10.0 ** exponent * rng.uniform(0.01, 1.0, size=(2, count))
    sigma_a = _psd_branches(rng, count, ranks[0], traces[0])
    r_a = _fano_of(sigma_a)
    if side == "drawn":
        r_b = _fano_of(_psd_branches(rng, count, ranks[1], traces[1]))
    elif side == "near":
        other = _psd_branches(rng, count, ranks[1], traces[0])
        r_b = _fano_of((1.0 - near) * sigma_a + near * other)
    elif side == "swap":
        r_b = r_a.swapaxes(-1, -2)
    else:
        rotations = audit._fano_rotations(haar_unitaries(rng.random((count, 3))))
        r_b = rotations @ r_a @ rotations.swapaxes(-1, -2)
    frobenius = audit._half_norm(r_a - r_b)
    lower, upper = audit._trace_norm_bracket(r_a, r_b, frobenius)
    norms = _trace_norms(r_a, r_b)
    assert np.all(lower <= norms * (1.0 + 1e-12)), (lower - norms).max()
    assert np.all(norms <= upper), (norms - upper).max()


def test_trace_norm_bracket_is_tight_on_pure_branches():
    # both ends are exact for pure branches, whose difference has rank 2 at most
    rng = derive_rng(3501)
    traces = rng.uniform(0.01, 1.0, size=(2, 200))
    r_a, r_b = (_fano_of(_psd_branches(rng, 200, 1, t)) for t in traces)
    lower, upper = audit._trace_norm_bracket(r_a, r_b, audit._half_norm(r_a - r_b))
    norms = _trace_norms(r_a, r_b)
    assert np.abs(lower - norms).max() <= 1e-13
    assert np.all(upper - norms <= 1e-5 * (traces[0] + traces[1]))


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-200])
def test_trace_norm_bracket_verdict_matches_every_row_reference(scale, monkeypatch):
    # 96 rank-2 branch pairs with small scatter gaps leave more stage-1 candidates
    # than the bracket needs, at traces where (a + b)^2 underflows too, so that a
    # bracket read from underflowed squares would keep the largest gap alone; rows
    # 10 and 20 hold the worst pair, so the first of them must be the witness
    rng = derive_rng(3502)
    sigmas = [_psd_branches(rng, 96, 2, np.full(96, 0.5)) for _ in range(2)]
    p_a, p_b = 0.01 * rng.random(96), np.zeros(96)
    disc = audit._outcome_distance(*(audit._Fano(p, _fano_of(sigma))
                                     for p, sigma in zip((p_a, p_b), sigmas)))
    worst = int(np.argmax(disc))
    for row in (p_a, *sigmas):
        row[[10, worst]] = row[[worst, 10]]
        row[20] = row[10]
    out_a, out_b = (audit._fano(rules.Coupling(scale * p, scale * sigma))
                    for p, sigma in zip((p_a, p_b), sigmas))
    bracketed, bracket = [], audit._trace_norm_bracket

    def record(r_a, r_b, frobenius):
        bracketed.append(len(frobenius))
        return bracket(r_a, r_b, frobenius)

    monkeypatch.setattr(audit, "_trace_norm_bracket", record)
    got = audit._exact_pair_verdict(CHECK_IDS[1], AuditConfig(), str, out_a, out_b, ("a", "b"))
    want = _all_rows_pair_verdict(CHECK_IDS[1], AuditConfig(), str, out_a, out_b, ("a", "b"))
    assert len(bracketed) == 1 and bracketed[0] > audit._BRACKET_MIN_ROWS, bracketed
    assert _result_fields(got) == _result_fields(want)
    assert got.witness == "10"


def _tied_rows(seed):
    """Two rows of no scatter gap whose outcome distances tie at ``2 lam`` in exact arithmetic.

    Row 0's branch difference ``lam U diag(1, 1, -1, -1) U^dag`` has rank 4 and
    eigenvalues of one magnitude, so its trace norm ``4 lam`` is ``2 F``, its
    upper end; row 1's ``4 lam |v><v|`` has rank 1, so its trace norm ``4 lam``
    is ``F``, twice row 0's ``F``.  Side b is zero.
    """
    rng = derive_rng(3601, seed)
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    lam = rng.uniform(0.01, 0.2)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    sigma = np.stack([lam * (u * [1, 1, -1, -1]) @ u.conj().T, 4 * lam * np.outer(v, v.conj())])
    return (audit._fano(rules.Coupling(np.zeros(2), sigma)),
            audit._fano(rules.Coupling(np.zeros(2), np.zeros((2, 4, 4), dtype=complex))))


def test_stage_1_keeps_a_row_whose_upper_end_reaches_the_top_in_exact_arithmetic():
    # the first seed where rounding puts row 0's upper end 2 F below row 1's F,
    # the top, while its trace norm still ties the worst: the screen must widen
    # both ends to keep row 0, the first worst row, as the witness
    for seed in range(400):
        out_a, out_b = _tied_rows(seed)
        frobenius = audit._half_norm(out_a.r - out_b.r)
        disc = audit._outcome_distance(out_a, out_b)
        if 2.0 * frobenius[0] < frobenius[1] and disc[0] >= disc[1]:
            break
    else:
        pytest.fail("no seed rounds row 0's upper end below the top")
    assert abs(disc[0] - disc[1]) <= 1e-15
    got = audit._exact_pair_verdict(CHECK_IDS[1], AuditConfig(), str, out_a, out_b, ("a", "b"))
    want = _all_rows_pair_verdict(CHECK_IDS[1], AuditConfig(), str, out_a, out_b, ("a", "b"))
    assert got.witness == "0"
    assert _result_fields(got) == _result_fields(want)


@pytest.mark.parametrize("rule, check, check_id, rows", [
    (probe_rigid(), check_role_symmetry, CHECK_IDS[1], 1),
    (coherent_projection(BASIS_XY), check_basis_covariance, CHECK_IDS[3], 16),
], ids=["C2-probe-rigid", "C4-coherent-projection-xy"])
def test_trace_norm_bracket_leaves_the_ties_at_seed_5(rule, check, check_id, rows, monkeypatch):
    # the stage-1 screen leaves 166 and 68 rows here; the bracket leaves the worst
    # row of probe-rigid's pure branches and coherent-projection's 16 tied rows
    seen, distance = [], audit._outcome_distance

    def record(rows_a, rows_b):
        seen.append(len(rows_a.p_scatter))
        return distance(rows_a, rows_b)

    calls = _inside_pair_verdict(monkeypatch, check_id, audit, "_outcome_distance", record)
    check(rule, AuditConfig(seed=5))
    assert calls == [check_id]
    assert seen == [rows]


@pytest.mark.parametrize("pairs, count", [
    (audit._CORNER_PAIRS, FAST_EXACT.unitary_samples),
    (audit._MC_CORNER_PAIRS, FAST_MC.mc_unitary_samples),
], ids=["exact", "mc"])
def test_covariance_cases_match_a_base_coupling_on_every_row(pairs, count):
    # the base coupling runs once per distinct input, and its Fano rows are
    # gathered per row and rotated by O r O^T
    config = FAST_EXACT
    grid = audit._covariance_grid(tuple(config.bases), pairs, config.seed, count)
    probes, objects = (inputs[grid.split:] for inputs in grid[:2])
    assert len(probes) == len(pairs) + count
    # each input's U and distinct input, and U (x) U, rebuilt from the grid's stream draw
    corners = audit._corner_unitaries(config.bases)
    draw = derive_rng(config.seed, 4).random((count, 7))
    unitaries = np.concatenate([np.repeat([m for _, m in corners], len(pairs), axis=0),
                                haar_unitaries(draw[:, 0:3])])
    index = np.concatenate([np.tile(np.arange(len(pairs)), len(corners)),
                            len(pairs) + np.arange(count)])
    rotations = audit._fano_rotations(unitaries)
    assert grid.map_b.args[1].tobytes() == rotations.tobytes()
    for inputs, distinct in zip(grid[:2], (probes, objects)):
        rotated = inputs[:grid.split]
        assert rotated.tobytes() == np.einsum("nij,nj->ni", unitaries, distinct[index]).tobytes()
    for rule in PAIR_CHECK_RULES:
        _, _, conjugated = _pair_cases_at(rule, grid, 0.0)
        base = audit._fano(rules.coupling_channel(rule, probes[index], objects[index]))
        r = rotations @ base.r @ rotations.swapaxes(-1, -2)
        assert conjugated.p_scatter.tobytes() == base.p_scatter.tobytes(), rule.name
        assert conjugated.r.tobytes() == r.tobytes(), rule.name


@pytest.mark.parametrize("levels", [(0.0,), (0.3,), (0.0, 0.5)], ids=str)
def test_pair_cases_sides_equal_a_coupling_call_per_side(levels):
    # one coupling call over both sides' stacked inputs gives each side the
    # bytes of its own call, side b mapped back as the grid maps it, at the
    # audit's level 0 and at every other level
    config = FAST_EXACT
    grids = (audit._role_grid(audit._CORNER_PAIRS, config.seed, config.input_samples),
             audit._covariance_grid(config.bases, audit._CORNER_PAIRS, config.seed,
                                    config.unitary_samples),
             audit._role_grid(audit._MC_CORNER_PAIRS, config.seed, 1),
             audit._covariance_grid(config.bases, audit._MC_CORNER_PAIRS, config.seed, 1))
    for grid in grids:
        sides = [(inputs[:grid.split], inputs[grid.split:]) for inputs in grid[:2]]
        for rule, q in itertools.product(PAIR_CHECK_RULES, levels):
            _, got_a, got_b = _pair_cases_at(rule, grid, q)
            want_a = audit._fano(rules.coupling_channel(rule, sides[0][0], sides[1][0], q))
            want_b = grid.map_b(audit._fano(rules.coupling_channel(rule, sides[0][1], sides[1][1],
                                                                   q)))
            for got, want in ((got_a, want_a), (got_b, want_b)):
                for field, expected in zip(got, want):
                    assert field.shape == expected.shape, rule.name
                    assert field.tobytes() == expected.tobytes(), rule.name


def _two_call_c1(rule, config):
    """Reference for exact C1: the full view and the view given survival in two ``tvd`` calls."""
    grid = audit._mode_pair_grid(config.bases)
    if not grid.cases:
        return audit._no_cases(CHECK_IDS[0], config.epsilon_exact)
    laws = _c1_laws(rules.coupling_channel(rule, grid.probes, grid.objects), grid)
    conditional, defined = experiments.conditional_clicks(laws)
    both = defined.all(axis=1)
    t_full = tvd(laws[:, 0], laws[:, 1])
    t_cond = np.full(len(laws), -1.0)
    t_cond[both] = tvd(conditional[both, 0, :2], conditional[both, 1, :2])
    n = int(np.argmax(t_full))
    evidence = {"mode1": [float(x) for x in laws[n, 0]], "mode2": [float(x) for x in laws[n, 1]],
                "tvd_full": float(t_full[n]),
                "tvd_conditional": float(t_cond[n]) if both[n] else None}
    witness = audit._mode_pair_witness(grid.cases, n)
    return audit._exact_verdict(CHECK_IDS[0], float(t_full[n]), witness, evidence, config)


def _c1_laws(coupled, grid, cases=slice(None)):
    """The filter device's laws of the C1 ``cases``, ``(cases, mode, 3)``, from the coupling rows.

    Case ``n`` reads the four analyzer rows of block ``n``.
    """
    rows = np.arange(len(grid.analyzers)).reshape(-1, 4)[cases].reshape(-1)
    return experiments.filter_laws(coupled, grid.swapped, grid.analyzers[rows],
                                   grid.take[rows]).reshape(-1, 2, 3)


def _c1_full_views(rule, config, q):
    """The full-view TVD of every exact C1 case at fly-by level ``q``, from the filter law."""
    grid = audit._mode_pair_grid(config.bases)
    laws = _c1_laws(rules.coupling_channel(rule, grid.probes, grid.objects, q), grid)
    return tvd(laws[:, 0], laws[:, 1])


@pytest.mark.parametrize("config, levels", PAIR_CHECK_CONFIGS.values(), ids=PAIR_CHECK_CONFIGS)
def test_exact_c1_one_tvd_call_matches_two_calls(config, levels):
    # both views in one call keep the witness, metric and evidence bits of two
    # calls, the full view scoring; K = 0 leaves no view given survival.  At
    # each listed level every case's full view is 1 - q times its level-0 one,
    # which the check reads
    for rule in PAIR_CHECK_RULES:
        got, want = check_indistinguishability(rule, config), _two_call_c1(rule, config)
        assert repr(_result_fields(got)) == repr(_result_fields(want)), rule.name
        coupled = _c1_full_views(rule, config, 0.0)
        assert got.metric == (coupled.max() if coupled.size else 1.0), rule.name
        for q in levels:
            scaled = _c1_full_views(rule, config, q) - (1.0 - q) * coupled
            assert np.all(np.abs(scaled) <= 1e-12), (rule.name, q)


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
                _, p_values = chi_square_two_sample(a[n], b[n])
                got = audit._mc_verdict("C", config, p_values, lambda row, k: f"{row},{k}",
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


def test_fano_laws_equal_the_born_laws_and_a_call_per_basis():
    # the law map over every basis gives the bits of one call per basis and the
    # Born laws of the survive branches; one call over both sides' rows, as Monte
    # Carlo C2/C4 make, gives the bits of each side's own call
    config = FAST_EXACT
    grid = audit._role_grid(audit._CORNER_PAIRS, config.seed, 20)
    forms = audit._basis_forms(config.bases)
    for rule in PAIR_CHECK_RULES:
        _, direct, mirrored = _pair_cases_at(rule, grid, 0.0)
        out = rules.coupling_channel(rule, grid.probes, grid.objects)
        branches = (out.survived[:grid.split], rules.swap_back(
            rules.Coupling(*(x[grid.split:] for x in out))).survived)
        for rows, sigma in zip((direct, mirrored), branches):
            laws = audit._fano_laws(rows, forms)
            for k, basis in enumerate(config.bases):
                alone = audit._fano_laws(rows, audit._basis_forms((basis,)))
                assert alone.tobytes() == laws[:, k:k + 1].tobytes(), rule.name
                born = np.column_stack([joint_born_distribution(sigma, basis, basis),
                                        rows.p_scatter])
                assert np.abs(laws[:, k] - born).max() <= 1e-13, rule.name
        both = audit._Fano(*map(np.concatenate, zip(direct, mirrored)))
        sides = [audit._fano_laws(rows, forms) for rows in (direct, mirrored)]
        assert audit._fano_laws(both, forms).tobytes() == np.concatenate(sides).tobytes()


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


def test_chi_square_sf_gives_nan_for_nan_and_keeps_the_other_bits():
    rng = derive_rng(1819)
    stat = rng.exponential(5.0, 400)
    stat[::7] = np.nan
    stat[1:4] = (0.0, 1e10, 1e300)
    dofs = rng.integers(1, 9, 400)
    got = _chi_square_sf(stat, dofs)
    known = ~np.isnan(stat)
    assert np.isnan(got[~known]).all()
    want = [_scalar_chi_square_sf(s, d) for s, d in zip(stat[known].tolist(), dofs[known].tolist())]
    assert got[known].tobytes() == np.array(want).tobytes()
    assert math.isnan(_chi_square_sf(math.nan, 3))


def test_chi_square_statistic_has_the_bits_of_one_pass_per_sample():
    a, b = (x.astype(float) for x in _count_stacks(derive_rng(1820), 3, 40, 3, 5))
    a[0, :5], b[0, :5] = 0.0, 0.0  # empty samples: no statistic
    a[1, :5, 2:] = b[1, :5, 2:] = 0.0  # pooled-zero cells
    stat, _ = chi_square_two_sample(a, b)
    total_a, total_b = a.sum(axis=-1), b.sum(axis=-1)
    pooled = a + b
    valid = (total_a > 0) & (total_b > 0) & ((pooled > 0).sum(axis=-1) >= 2)
    use = (pooled > 0) & valid[..., None]

    def squared_deviations(x, total):
        expected = np.divide(total[..., None] * pooled, (total_a + total_b)[..., None],
                             out=np.zeros_like(pooled), where=use)
        return np.divide((x - expected) ** 2, expected, out=np.zeros_like(pooled),
                         where=use).sum(axis=-1)

    want = squared_deviations(a, total_a) + squared_deviations(b, total_b)
    assert (~np.isnan(stat) == valid).all()
    assert not valid[0, :5].any() and valid.sum() > 100
    assert stat[valid].tobytes() == want[valid].tobytes()


def _label_reference(amps) -> str:
    return state_label(QubitState(amps))


def _grid_states(seed: int) -> np.ndarray:
    # the exact table holds C2's and C4's exact inputs, the Haar-rotated ones too,
    # and with them every Monte Carlo input at the default sample counts
    table = audit._table.__wrapped__(AuditConfig().bases, audit._CORNER_PAIRS, seed, 200, 100)
    return np.concatenate(table[:2])


@pytest.mark.parametrize("seed", range(10))
def test_input_labels_equal_state_labels_on_every_grid_row(seed):
    states = _grid_states(seed)
    assert len(states) > 1000
    for probe, obj in zip(states[:-1], states[1:]):
        assert audit._input_label(probe, obj) == (
            f"input=({_label_reference(probe)}, {_label_reference(obj)})")


def _phase_oracle(amps) -> list[tuple[float, float]]:
    """The phase rule as explicit float operations, one rounding each.

    The factor ``conj(a) / |a|`` of the first amplitude above ``PHASE_EPS``
    follows numpy's complex division by ``|a| + 0j`` (Smith's rule); each
    amplitude is then the textbook complex product with it, and the anchor
    is ``|a|``.  ``|a|`` is C's ``hypot``, as numpy's ``abs`` takes it
    (``math.hypot`` rounds differently).
    """
    parts = [(float(a.real), float(a.imag)) for a in amps]
    sizes = [abs(complex(re, im)) for re, im in parts]
    k = next(k for k, size in enumerate(sizes) if size > PHASE_EPS)
    size = sizes[k]
    ratio = 0.0 / size
    scale = 1.0 / (size + 0.0 * ratio)
    conj_re, conj_im = parts[k][0], -parts[k][1]
    f_re, f_im = (conj_re + conj_im * ratio) * scale, (conj_im - conj_re * ratio) * scale
    out = [(re * f_re - im * f_im, re * f_im + im * f_re) for re, im in parts]
    out[k] = (size, 0.0)
    return out


def test_canonical_phase_is_the_unfused_float_rotation():
    rng = derive_rng(1821)
    u = rng.random((100_000, 3))
    states = uniform_state_amps(u[:, :2]) * np.exp(2j * math.pi * u[:, 2:])
    named = np.array([s.amps for s in NAMED_STATES.values()])
    # two corner states times global phases, then points 0.5e-9 and 2e-9 from
    # a named state, on either side of the ATOL match
    corners = (named[:, None, :] * np.array([1, 1j, -1, np.exp(1j * math.pi / 3)])[:, None])
    orthogonal = np.array([orthogonal_state(s).amps for s in NAMED_STATES.values()])
    near = [(named + d * orthogonal) / math.hypot(1.0, d) for d in (0.5e-9, 2e-9)]
    near = [s * phase for s in near for phase in (1, 1j, -1)]
    probes = np.concatenate([states, corners.reshape(-1, 2), *near])
    # dimension 4: each row times its neighbour, so products with y lead with zeros
    pairs = _pair_amps(probes, np.roll(probes, 1, axis=0))
    assert {int(np.argmax(np.abs(v) > PHASE_EPS)) for v in pairs} == {0, 1, 2, 3}
    for rows in (probes, pairs):
        got = np.array([[(a.real, a.imag) for a in _canonical_phase(amps)] for amps in rows])
        want = np.array([_phase_oracle(amps) for amps in rows])
        differ = (got.view(np.int64) != want.view(np.int64)).any(axis=(1, 2))
        assert not differ.any(), rows[differ][:3]
    # witness labels take the same rule: a named state 0.5e-9 away reads as its name, 2e-9 away not
    assert [audit._input_label(s, s) for s in near[0][:6]] == [f"input=({n}, {n})" for n in NAMED_STATES]
    assert all(audit._input_label(s, s).startswith("input=(theta,phi=") for s in near[3])


@pytest.mark.parametrize("evaluation", ["exact", "mc"])
def test_mode_pair_laws_equal_filter_runs_of_their_cases(evaluation):
    # C1's cached wiring gives the laws run_filter computes per case at level 0
    config = AuditConfig(evaluation=evaluation)
    grid = audit._mode_pair_grid(config.bases)
    cases = grid.sampled if evaluation == "mc" else np.arange(len(grid.cases))
    for rule in PAIR_CHECK_RULES:
        laws = _c1_laws(rules.coupling_channel(rule, grid.probes, grid.objects), grid, cases)
        for n, (swapped, obj, analyzer, mode2) in enumerate(grid.cases[c] for c in cases):
            for m, source in enumerate((obj, mode2)):
                run = run_filter_exact(FilterConfig(
                    rule=rule, source_basis=source, object_state=obj.b1, analyzer_basis=analyzer,
                    swapped_roles=swapped))
                assert laws[n, m].tobytes() == run.probabilities().tobytes(), (rule.name, n, m)


def _chi_square_parts(counts_a, counts_b, monkeypatch):
    """Statistic, dof and p-value bits of one ``chi_square_two_sample`` call."""
    seen, sf = [], audit._chi_square_sf

    def record(stat, dof):
        seen.append(np.asarray(dof))
        return sf(stat, dof)

    monkeypatch.setattr(audit, "_chi_square_sf", record)
    stat, p_value = chi_square_two_sample(counts_a, counts_b)
    monkeypatch.undo()
    return np.asarray(stat), seen[0], np.asarray(p_value)


@pytest.mark.parametrize("trials", [5, 100_000])
def test_chi_square_rows_keep_their_bits_alone_stacked_and_padded(trials, monkeypatch):
    # the Monte Carlo pass takes every comparison of C1, C2 and C4 in one call,
    # C1's three cells padded with two zero cells: each comparison must keep
    # the statistic, dof and p-value bits it has alone, NaN rows among them
    rng = derive_rng(2601)
    a, b = rng.multinomial(trials, rng.dirichlet(np.ones(3), size=(2, 90)))
    b[:10] = a[:10]  # identical sides
    a[10:20, 1:], b[10:20, 1:] = 0, 0  # one pooled cell: NaN
    b[20:25] = 0  # an empty side: NaN
    a[25:40, 2], b[25:40, 2] = 0, 0  # a pooled-zero cell
    assert np.isnan(chi_square_two_sample(a, b)[1]).sum() >= 15
    alone = [_chi_square_parts(a[n:n + 1], b[n:n + 1], monkeypatch) for n in range(len(a))]
    alone = [np.concatenate(part) for part in zip(*alone)]
    pad = np.zeros((len(a), 2), dtype=a.dtype)
    others = rng.multinomial(trials, rng.dirichlet(np.ones(5), size=(2, 50)))
    forms = {
        "stacked": _chi_square_parts(a, b, monkeypatch),
        "padded": [part[:len(a)] for part in _chi_square_parts(
            np.concatenate([np.hstack([a, pad]), others[0]]),
            np.concatenate([np.hstack([b, pad]), others[1]]), monkeypatch)],
    }
    for name, parts in forms.items():
        for part, want in zip(parts, alone):
            assert part.tobytes() == want.tobytes(), name
    for n in np.flatnonzero(~np.isnan(alone[2])):  # two vectors give the same floats
        stat, p_value = chi_square_two_sample(a[n], b[n])
        assert (stat, p_value) == (alone[0][n], alone[2][n])


BLOCK_RULES = [*builtin_rules(), rule_from_name("coherent-projection:sigma"),
               _dense_contraction(2602)]


@pytest.mark.parametrize("levels", [(0.0, 0.5), (0.3,)])
@pytest.mark.parametrize("rule", BLOCK_RULES, ids=lambda rule: rule.name)
def test_stacked_grid_blocks_keep_the_bits_of_their_own_calls(rule, levels):
    # both modes' tables stack every grid's inputs after the corner pairs, and
    # every row past the corner pairs is read by exactly one grid input; one
    # coupling call over a table and one Fano conversion give each grid's rows
    # the bits of one call of its own inputs, an input on a corner pair's rays
    # coupled as that pair, at level 0 and at each of ``levels``.  Every grid
    # starts with the corner pairs or C1's coupling rows, so none holds one row.
    tiny = dict(bases=(BASIS_XY, BASIS_SIGMA), seed=3, input_samples=1, unitary_samples=1,
                mc_input_samples=1, mc_unitary_samples=1)
    configs = [AuditConfig(evaluation=mode, **sizes)
               for mode in ("exact", "mc") for sizes in ({}, tiny)]
    corners = len(audit._CORNER_PAIRS)
    for config, q in itertools.product(configs, (0.0, *levels)):
        table = _pass_table(config)
        grids = {"C1": (table.c1[:2], table.c1_rows), "C2": (table.role[:2], table.role_rows),
                 "C4": (table.covariance[:2], table.covariance_rows)}
        own = np.concatenate([index[index >= corners] for _, index in grids.values()])
        assert sorted(own.tolist()) == list(range(corners, len(table.probes)))
        stacked = rules.coupling_channel(rule, table.probes, table.objects, q)
        fano = audit._fano(stacked)
        for name, (inputs, index) in grids.items():
            assert len(inputs[0]) >= 2
            alone = rules.coupling_channel(rule, *_as_corner_pairs(*inputs), q)
            for got, want in zip(stacked, alone):
                assert got[index].tobytes() == want.tobytes(), (config.evaluation, name, q)
            assert fano.r[index].tobytes() == audit._fano(alone).r.tobytes(), (name, q)


def test_each_audit_runs_its_own_mc_pass(monkeypatch):
    # the four checks of one audit share one pass and its one coupling call;
    # two audits of the same rule and config share none
    calls, coupling_channel = [], audit.coupling_channel

    def record(*args):
        calls.append(len(args[1]))
        return coupling_channel(*args)

    monkeypatch.setattr(audit, "coupling_channel", record)
    rule = probe_rigid()
    reports = [audit_rule(rule, FAST_MC).to_json() for _ in range(2)]
    assert len(calls) == 2 and reports[0] == reports[1]


@pytest.mark.parametrize("config", [FAST_EXACT, FAST_MC], ids=["exact", "mc"])
def test_no_pass_rows_outlive_the_audit(config, monkeypatch):
    # the table is the audit's only cache: once audit_rule returns, nothing
    # keeps the C1 coupling rows or the Fano rows its pass coupled
    refs, couple = [], audit._couple

    def record(rule, table):
        c1, fano = couple(rule, table)
        refs.extend(weakref.ref(rows) for rows in (*c1, *fano))
        return c1, fano

    monkeypatch.setattr(audit, "_couple", record)
    audit_rule(probe_rigid(), config)
    gc.collect()
    assert len(refs) == 4
    assert [ref() is None for ref in refs] == [True] * 4


K_ZERO = validate_custom_rule(np.zeros((4, 4)), name="k-zero")
# Every audit couples at level 0; "level-0" is the config with nothing else changed.
MC_ALONE_CONFIGS = {
    "repeated-basis": AuditConfig(evaluation="mc", bases=(BASIS_XY, BASIS_XY, BASIS_SIGMA), seed=6),
    "one-basis": AuditConfig(evaluation="mc", bases=(BASIS_XY,), seed=7),
    "level-0": AuditConfig(evaluation="mc", seed=8),
}


@pytest.mark.parametrize("config", MC_ALONE_CONFIGS.values(), ids=MC_ALONE_CONFIGS)
def test_mc_checks_called_alone_match_the_audit(config):
    # in Monte Carlo and in exact mode, each check called alone runs its mode's
    # pass and gives field for field the result of the whole audit, and a
    # caller's change to one result's evidence reaches no later call
    for mode, rule in itertools.product(("mc", "exact"), (
            probe_rigid(), singlet_rule(), coherent_projection(BASIS_SIGMA), K_ZERO)):
        mode_config = dataclasses.replace(config, evaluation=mode)
        report = audit_rule(rule, mode_config)
        for check, check_id in zip(CHECKS.values(), CHECK_IDS):
            alone = check(rule, mode_config)
            assert _result_fields(alone) == _result_fields(report.check(check_id)), (
                mode, rule.name, check_id)
            if alone.evidence is not None:
                alone.evidence["p_value"] = "changed"
                assert _result_fields(check(rule, mode_config)) == _result_fields(
                    report.check(check_id)), (mode, rule.name, check_id)
    if config.bases == AuditConfig().bases:
        # every K = 0 pair scatters at level 0: C1 and C2/C4 compare two samples
        # that fill the scatter cell alone, and only C3 has no case
        assert [c.witness == "no cases evaluated" for c in audit_rule(K_ZERO, config).checks] == [
            False, False, True, False]


def _one_cell_p_values(counts_a, counts_b):
    """Chi-square p-values, with p = 1 where two nonempty samples fill one and the same cell."""
    _, p_values = chi_square_two_sample(counts_a, counts_b)
    cells = ((counts_a + counts_b) > 0).sum(axis=-1)
    filled = (counts_a.sum(axis=-1) > 0) & (counts_b.sum(axis=-1) > 0)
    return np.where((cells == 1) & filled, 1.0, p_values)


def _mc_checks_one_call_each(rule, config):
    """Reference for the Monte Carlo pass: each check couples its own grid,
    reads its own Born laws and makes its own chi-square call.

    C2 draws from stream 2 and C4 from stream 4, C3 reads C2's side a, and
    an input on a corner pair's rays couples as that pair, as in exact mode.
    """
    bases = config.bases
    grid = audit._mode_pair_grid(bases)
    laws = _c1_laws(rules.coupling_channel(rule, *_as_corner_pairs(grid.probes, grid.objects)),
                    grid, grid.sampled)
    mode1, mode2 = audit._mc_sides(config, laws[:, 0], laws[:, 1], 11)
    cases = [grid.cases[n] for n in grid.sampled]
    results = [audit._mc_verdict(
        CHECK_IDS[0], config, _one_cell_p_values(mode1[:, None], mode2[:, None]),
        lambda row, _: audit._mode_pair_witness(cases, row),
        lambda row, _: {"counts_mode1": mode1[row].tolist(), "counts_mode2": mode2[row].tolist()})]
    pairs, forms = audit._MC_CORNER_PAIRS, audit._basis_forms(bases)
    role = audit._role_grid(pairs, config.seed, config.mc_input_samples)
    for check_id, grid, stream in (
            (CHECK_IDS[1], role, 22),
            (CHECK_IDS[3], audit._covariance_grid(bases, pairs, config.seed,
                                                  config.mc_unitary_samples), 42)):
        label, out_a, out_b = _pair_cases_at(rule, grid, 0.0, corners=True)
        counts = audit._mc_sides(config, audit._fano_laws(out_a, forms),
                                 audit._fano_laws(out_b, forms), stream)
        results.append(audit._mc_verdict(
            check_id, config, _one_cell_p_values(*counts),
            lambda row, k, label=label: f"{label(row)} basis={bases[k].label}",
            lambda row, k: {}))
    _, side_a, _ = _pair_cases_at(rule, role, 0.0, corners=True)
    cases = np.flatnonzero(side_a.p_scatter < 1.0 - 1e-6)
    counts = sample_counts(config.seed, config.mc_trials,
                           audit._fano_laws(audit._Fano(*(x[cases] for x in side_a)), forms), 32, 1)
    results.insert(2, audit._mc_aligned_verdict(config, lambda i: role.label(cases[i]), counts))
    return results


MC_PASS_CONFIGS = {
    **MC_ALONE_CONFIGS,
    "fast": FAST_MC,
    "five-trials": AuditConfig(evaluation="mc", mc_trials=5, seed=2),
    "two-bases": AuditConfig(evaluation="mc", bases=(BASIS_XY, BASIS_SIGMA), seed=3),
}


@pytest.mark.parametrize("config", MC_PASS_CONFIGS.values(), ids=MC_PASS_CONFIGS)
def test_mc_pass_matches_one_call_per_check(config):
    # one coupling, Born and chi-square call per rule gives every report field
    # the bits of one call per check
    for rule in BLOCK_RULES + [REMOVE_ALIGNED_XY, validate_custom_rule(np.zeros((4, 4)))]:
        got = audit_rule(rule, config).checks
        want = _mc_checks_one_call_each(rule, config)
        assert [_result_fields(c) for c in got] == [_result_fields(c) for c in want], rule.name


# The audit sample counts of ifmbench's tiny sizes.
TINY_SIZES = {"input_samples": 6, "unitary_samples": 3, "mc_input_samples": 2,
              "mc_unitary_samples": 1}


def _role_cases(table) -> set:
    """C2's cases of a table, both sides: each input's amplitude bytes."""
    return {probe.tobytes() + obj.tobytes() for probe, obj in zip(*table.role[:2])}


def _covariance_cases(table) -> set:
    """C4's cases of a table: each (unitary, input) pair's label and bytes.

    The bytes are those of the rotated input, the Fano rotation of the
    unitary and the distinct input it rotates.
    """
    grid = table.covariance
    index, rotations = grid.map_b.args
    probes, objects = (inputs[grid.split:] for inputs in grid[:2])
    return {(grid.label(n), b"".join(x.tobytes() for x in (
        grid.probes[n], grid.objects[n], rotations[n], probes[index[n]], objects[index[n]])))
        for n in range(grid.split)}


@pytest.mark.parametrize("sizes", [{}, TINY_SIZES], ids=["default", "tiny"])
def test_every_mc_case_is_an_exact_case(sizes, monkeypatch):
    # Monte Carlo draws C2's cases from stream 2 and C4's from stream 4 as exact
    # does, a prefix of exact's draw over a subset of its corner pairs, so every
    # Monte Carlo case is an exact case at the same seed, bit for bit
    for seed in (0, 5):
        exact, mc = (_pass_table(AuditConfig(evaluation=mode, seed=seed, **sizes))
                     for mode in ("exact", "mc"))
        assert _role_cases(mc) < _role_cases(exact), seed
        assert _covariance_cases(mc) < _covariance_cases(exact), seed
    # both modes' C3 reads their C2's side a through one helper
    seen, cases = [], audit._anti_alignment_cases

    def record(role, side_a):
        seen.append((role, side_a))
        return cases(role, side_a)

    monkeypatch.setattr(audit, "_anti_alignment_cases", record)
    rule = preferred_basis(BASIS_SIGMA)
    for evaluation in ("exact", "mc"):
        config = AuditConfig(evaluation=evaluation, **sizes)
        seen.clear()
        audit_rule(rule, config)
        table = _pass_table(config)
        [(role, side_a)] = seen
        assert role is table.role, evaluation
        fano = audit._fano(rules.coupling_channel(rule, table.probes, table.objects))
        for got, want in zip(side_a, fano):
            assert got.tobytes() == want[table.role_rows[:role.split]].tobytes(), evaluation


@pytest.mark.parametrize("seed", [0, 5])
def test_permuting_the_bases_moves_no_exact_metric_and_no_verdict(seed):
    # the checks read the bases as a set: their order moves no exact metric
    # beyond rounding and no verdict
    orders = list(itertools.permutations(AuditConfig().bases))
    for rule in [*builtin_rules(), REMOVE_ALIGNED_XY, K_ZERO]:
        reports = [audit_rule(rule, AuditConfig(bases=bases, seed=seed)) for bases in orders]
        for check_id in CHECK_IDS:
            results = [report.check(check_id) for report in reports]
            assert len({result.passed for result in results}) == 1, (rule.name, check_id)
            metrics = [result.metric for result in results]
            assert max(metrics) - min(metrics) <= 1e-12, (rule.name, check_id)


def _role_exchanged(rule):
    """R': ``rule`` with its inputs exchanged and its outcome mapped back by ``swap_back``."""
    def law(probes, objects, inp):
        return tuple(rules.swap_back(rules.Coupling(*rule.law(objects, probes,
                                                              _pair_amps(objects, probes)))))

    return rules.Rule(f"{rule.name}-exchanged", rule.description, law)


@pytest.mark.parametrize("seed", [0, 5])
def test_exchanging_the_roles_moves_no_exact_c2_metric(seed):
    # the paper's role exchange: R' gives on (probe, object) what R gives on
    # (object, probe), mapped back by SWAP, and C2's distance on an input is
    # that on the exchanged input, so R' reads R's C2 metric and verdict
    for rule in [*builtin_rules(), REMOVE_ALIGNED_XY]:
        config = AuditConfig(seed=seed)
        got = audit_rule(_role_exchanged(rule), config).check(CHECK_IDS[1])
        want = audit_rule(rule, config).check(CHECK_IDS[1])
        assert got.passed == want.passed, rule.name
        assert abs(got.metric - want.metric) <= 1e-12, rule.name


@pytest.fixture(scope="module")
def k_zero_rows():
    """The verdict row of K = 0 in each mode, from one audit per mode."""
    return {mode: "".join("P" if c.passed else "F" for c in audit_rule(
        K_ZERO, AuditConfig(evaluation=mode)).checks)
        for mode in ("exact", "mc")}


@pytest.mark.parametrize("levels", [(0.0, 0.5), (0.0,), (0.3,)])
def test_k_zero_reads_one_row_in_both_modes(levels, k_zero_rows):
    # at level 0 every K = 0 pair scatters, so both samples of every C2/C4
    # comparison fill the scatter cell alone: they agree, at p = 1.  A fly-by
    # leaves the input on both sides, so the C2/C4 distances stay 0 at each level
    assert k_zero_rows == {"exact": "PPFP", "mc": "PPFP"}
    for q in levels:
        for _, out_a, out_b in _exact_pair_cases(K_ZERO, AuditConfig(), q):
            assert audit._outcome_distance(out_a, out_b).max() <= 1e-12, q


# The Pauli matrices I, X, Y, Z and their pair products P_a (x) P_b, built with
# np.kron apart from the audit's own tables: PAULI_KRON[a, b] is P_a (x) P_b.
PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))
PAULI_KRON = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])


def _pauli_sum_reference(r):
    """``sum_ab r_ab P_a (x) P_b / 4`` per row."""
    return np.einsum("nab,abij->nij", r, PAULI_KRON) / 4.0


def _random_branches(rng, count):
    """``count`` random Hermitian 4x4 matrices, entries of order 1."""
    a = rng.normal(size=(count, 4, 4)) + 1j * rng.normal(size=(count, 4, 4))
    return a + a.conj().swapaxes(-1, -2)


def _aligned_weights(r, forms):
    """Per row and basis, the aligned weight exact C3 reads: the aligned cells' forms summed."""
    return np.einsum("nf,jf->nj", r.reshape(-1, 16), forms[:, 0] + forms[:, 3])


def _fano_of(sigma):
    return audit._fano(rules.Coupling(np.zeros(len(sigma)), sigma)).r


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fano_identities_hold_on_random_branches(seed):
    # the Fano matrix r_ab = tr(sigma P_a (x) P_b) of a Hermitian sigma: SWAP is
    # r^T, U (x) U is O r O^T, the Pauli sum gives sigma back, the Frobenius norm
    # of a difference is half that of its Fano difference, and a basis of Bloch
    # axis m reads its aligned Born cells as (r_00 + m^T R m) / 2
    rng = np.random.default_rng(seed)
    sigma, other = _random_branches(rng, 8), _random_branches(rng, 8)
    r = _fano_of(sigma)
    assert np.abs(r - np.einsum("nij,abji->nab", sigma, PAULI_KRON).real).max() <= 1e-13
    swap = rules.SWAP
    assert np.abs(_fano_of(swap @ sigma @ swap) - r.swapaxes(-1, -2)).max() <= 1e-13
    unitaries = haar_unitaries(rng.random((8, 3)))
    uu = np.einsum("nij,nkl->nikjl", unitaries, unitaries).reshape(-1, 4, 4)
    rotations = audit._fano_rotations(unitaries)
    rotated = _fano_of(uu @ sigma @ uu.conj().swapaxes(-1, -2))
    assert np.abs(rotated - rotations @ r @ rotations.swapaxes(-1, -2)).max() <= 1e-13
    assert np.abs(audit._pauli_sum(r) - sigma).max() <= 1e-13
    assert np.abs(_pauli_sum_reference(r) - sigma).max() <= 1e-13
    frobenius = np.linalg.norm(sigma - other, axis=(1, 2))
    assert np.abs(audit._half_norm(r - _fano_of(other)) - frobenius).max() <= 1e-13
    bases = (BASIS_XY, BASIS_SIGMA, BASIS_DIAG,
             eigenbasis_of(QubitState(uniform_state_amps(rng.random(2)))))
    forms = audit._basis_forms(bases)
    aligned = _aligned_weights(r, forms)
    cells = np.einsum("nf,jcf->njc", r.reshape(-1, 16), forms)
    for k, basis in enumerate(bases):
        vectors = _joint_vectors(basis, basis)
        born = np.einsum("ci,nij,cj->nc", vectors.conj(), sigma, vectors).real
        assert np.abs(aligned[:, k] - born[:, [0, 3]].sum(axis=1)).max() <= 1e-13
        assert np.abs(cells[:, k] - born).max() <= 1e-13


def test_singlet_reads_minus_the_identity_on_its_bloch_block():
    # the singlet's Fano matrix is diag(1, -1, -1, -1), so each survive branch
    # (1 - p) |S><S| reads (1 - p) diag(1, -1, -1, -1), and (r_00 + m^T R m) / 2
    # is 0 for every unit axis m
    singlet = np.diag([1.0, -1.0, -1.0, -1.0])
    assert np.abs(_fano_of(SINGLET.density()[None])[0] - singlet).max() <= 1e-15
    config = AuditConfig()
    grid = audit._role_grid(audit._CORNER_PAIRS, config.seed, 50)
    probes, objects = (inputs[:grid.split] for inputs in grid[:2])
    rows = audit._fano(rules.coupling_channel(singlet_rule(), probes, objects))
    want = (1.0 - rows.p_scatter)[:, None, None] * singlet
    assert np.abs(rows.r - want).max() <= 1e-15
    aligned = _aligned_weights(rows.r, audit._basis_forms(config.bases))
    assert np.abs(aligned).max() <= 1e-15


# The Monte Carlo sample cap's row count: blocks of it at these sizes and offsets.
BATCH_ROWS = 100_036
BLOCK_SIZES = (1, 2, 3, 236, 2036, 20036)
BLOCK_OFFSETS = (0, 1, 513, 40000)


def test_fano_rows_and_laws_do_not_depend_on_their_batch():
    # the Fano conversion, the law map, the Pauli sum the pair screen rebuilds and
    # C4's rotation give every block of rows, a single row among them, the bits it
    # has in a batch of the sample cap's size
    rng = derive_rng(3201)
    sigma = _random_branches(rng, BATCH_ROWS)
    full = audit._fano(rules.Coupling(rng.random(BATCH_ROWS), sigma))
    forms = audit._basis_forms(AuditConfig().bases)
    laws = audit._fano_laws(full, forms)
    rebuilt = audit._pauli_sum(full.r)
    rotations = audit._fano_rotations(haar_unitaries(rng.random((BATCH_ROWS, 3))))
    index = np.arange(BATCH_ROWS)
    turned = audit._rotate(index, rotations, full).r
    for size, offset in itertools.product(BLOCK_SIZES, BLOCK_OFFSETS):
        rows = slice(offset, offset + size)
        block = audit._fano(rules.Coupling(full.p_scatter[rows], sigma[rows]))
        assert block.r.tobytes() == full.r[rows].tobytes(), (size, offset)
        assert audit._fano_laws(block, forms).tobytes() == laws[rows].tobytes(), (size, offset)
        assert audit._pauli_sum(block.r).tobytes() == rebuilt[rows].tobytes(), (size, offset)
        alone = audit._rotate(index[:size], rotations[rows], block).r
        assert alone.tobytes() == turned[rows].tobytes(), (size, offset)


PHASE_RULES = [*builtin_rules(), REMOVE_ALIGNED_XY, K_ZERO, _dense_contraction(2602)]


@pytest.mark.parametrize("rule", PHASE_RULES, ids=lambda rule: rule.name)
def test_coupling_rows_do_not_depend_on_global_phases(rule):
    # a law is a function of the input rays: a global phase on the probe or the
    # object moves no scatter probability and no Fano row beyond rounding, so the
    # exact table may serve a rotated corner from the row of the corner it lands on
    rng = derive_rng(3401)
    corners = np.array([s.amps for s in audit.CORNER_STATES])
    states = np.concatenate([corners, uniform_state_amps(rng.random((60, 2)))])
    probes, objects = (np.repeat(states, len(states), axis=0), np.tile(states, (len(states), 1)))
    phases = np.exp(2j * math.pi * rng.random((2, len(probes), 1)))
    plain = audit._fano(rules.coupling_channel(rule, probes, objects))
    phased = audit._fano(rules.coupling_channel(rule, phases[0] * probes, phases[1] * objects))
    assert np.abs(phased.p_scatter - plain.p_scatter).max() <= 1e-15
    assert np.abs(phased.r - plain.r).max() <= 1e-15


# Basis sets of the exact table: the named ones, where every corner input reads a
# corner pair's row, and two with a basis that is no named one, whose states and
# the corners rotated onto them take rows of their own.  The near-x basis's first
# state has overlap 1 - 1e-6 with x, near a corner's ray but not on it.
TILTED = eigenbasis_of(QubitState(uniform_state_amps([0.3, 0.8])))
NEAR_X = eigenbasis_of(make_state(1, 1e-3))
TABLE_BASES = {"default": AuditConfig().bases, "xy-sigma": (BASIS_XY, BASIS_SIGMA),
               "tilted": (BASIS_XY, TILTED, BASIS_SIGMA),
               "near-x": (NEAR_X, BASIS_SIGMA, BASIS_DIAG)}


def _exact_checks_one_call_each(rule, config):
    """Reference for the exact pass: each check reads one coupling call of its own inputs."""
    table = _pass_table(config)

    def own(grid):
        out = rules.coupling_channel(rule, grid.probes, grid.objects)
        return out, audit._fano(out)

    c1_out, _ = own(table.c1)
    _, role = own(table.role)
    _, covariance = own(table.covariance)
    role_rows = np.arange(len(table.role.probes))
    return [audit._exact_c1(config, table.c1, c1_out),
            audit._exact_pair_verdict(CHECK_IDS[1], config, table.role.label,
                                      *audit._pair_sides(table.role, role), PAIR_NAMES[0]),
            audit._exact_c3(config, table._replace(role_rows=role_rows), role),
            audit._exact_pair_verdict(CHECK_IDS[3], config, table.covariance.label,
                                      *audit._pair_sides(table.covariance, covariance),
                                      PAIR_NAMES[1])]


@pytest.mark.parametrize("evaluation", ["exact", "mc"])
@pytest.mark.parametrize("bases", TABLE_BASES.values(), ids=TABLE_BASES)
def test_table_rows_keep_the_bits_of_their_own_calls(bases, evaluation, monkeypatch):
    # each pass couples its table of distinct inputs once; each check's rows
    # keep the bits of a call of its own inputs, but for C4's corners rotated by a
    # basis change, which read the row of the corner pair on their rays
    config = AuditConfig(bases=bases, evaluation=evaluation)
    table = _pass_table(config)
    named = all(basis in (BASIS_XY, BASIS_SIGMA, BASIS_DIAG) for basis in bases)
    assert (len(table.probes) == {"exact": 636, "mc": 72}[evaluation]) == named
    # C1's inputs off the corner rays read rows of their own, which hold their
    # amplitudes: the near-x basis's states do, while the tilted basis, unbiased
    # with no other, sources no C1 case
    own = table.c1_rows >= len(audit._CORNER_PAIRS)
    for inputs, stored in zip(table.c1[:2], table[:2]):
        assert stored[table.c1_rows[own]].tobytes() == inputs[own].tobytes()
    assert own.any() == (NEAR_X in bases)
    role, covariance = table.role, table.covariance
    pairs = {"exact": audit._CORNER_PAIRS, "mc": audit._MC_CORNER_PAIRS}[evaluation]
    corners = len(pairs) * len(audit._corner_unitaries(bases))
    blocks = {  # each block's inputs, and the table rows it reads; C3 reads C2's side a
        "C1": (table.c1[:2], table.c1_rows),
        "C2-a": ((x[:role.split] for x in role[:2]), table.role_rows[:role.split]),
        "C2-b": ((x[role.split:] for x in role[:2]), table.role_rows[role.split:]),
        "C4-haar": ((x[corners:covariance.split] for x in covariance[:2]),
                    table.covariance_rows[corners:covariance.split]),
        "C4-base": ((x[covariance.split:] for x in covariance[:2]),
                    table.covariance_rows[covariance.split:]),
    }
    blocks = {name: (tuple(inputs), rows) for name, (inputs, rows) in blocks.items()}
    # each rotated corner reads a row on its rays: a corner pair's, or its own
    rows = table.covariance_rows[:corners]
    for rotated, stored in zip(covariance[:2], table[:2]):
        overlap = np.abs(np.einsum("ni,ni->n", stored[rows].conj(), rotated[:corners])) ** 2
        assert np.abs(overlap - 1.0).max() <= 1e-12
        own = rows >= len(audit._CORNER_PAIRS)
        assert stored[rows[own]].tobytes() == rotated[:corners][own].tobytes()
    assert own.any() == (not named)
    for rule in BLOCK_RULES + [REMOVE_ALIGNED_XY, K_ZERO]:
        out = rules.coupling_channel(rule, *table[:2])
        fano = audit._fano(out)
        for name, (inputs, rows) in blocks.items():
            alone = rules.coupling_channel(rule, *inputs)
            for got, want in zip(out, alone):
                assert got[rows].tobytes() == want.tobytes(), (rule.name, name)
            assert fano.r[rows].tobytes() == audit._fano(alone).r.tobytes(), (rule.name, name)
        got = audit_rule(rule, config).checks
        if evaluation == "mc":  # every field of the reference that couples corners as the table
            want = _mc_checks_one_call_each(rule, config)
            assert [_result_fields(c) for c in got] == [_result_fields(c) for c in want]
            continue
        # C1-C3 keep every field, C4 its verdict and its metric within rounding
        want = _exact_checks_one_call_each(rule, config)
        assert [_result_fields(c) for c in got[:3]] == [_result_fields(c) for c in want[:3]]
        assert got[3].passed == want[3].passed, rule.name
        assert abs(got[3].metric - want[3].metric) <= 1e-12, rule.name
    # one coupling call and one Fano conversion per audit, over the whole table
    calls, coupling_channel, fano = [], audit.coupling_channel, audit._fano

    def record_coupling(rule, probes, objects):
        calls.append(("coupling_channel", len(probes)))
        return coupling_channel(rule, probes, objects)

    def record_fano(out):
        calls.append(("_fano", len(out.p_scatter)))
        return fano(out)

    monkeypatch.setattr(audit, "coupling_channel", record_coupling)
    monkeypatch.setattr(audit, "_fano", record_fano)
    audit_rule(probe_rigid(), config)
    assert calls == [("coupling_channel", len(table.probes)), ("_fano", len(table.probes))]


@pytest.mark.parametrize("evaluation", ["exact", "mc"])
@pytest.mark.parametrize("bases", TABLE_BASES.values(), ids=TABLE_BASES)
def test_table_blocks_keep_every_report_byte(bases, evaluation, monkeypatch):
    # both passes couple their table in blocks of _TABLE_BLOCK rows, the default
    # tables in one; blocks of any size, a lone row among them, give every report
    # byte of the one-block pass, the Fano rows joined across blocks; C1's coupling
    # rows always stay in the first block, which is widened to hold them all and
    # is the only call above _TABLE_BLOCK rows
    config = AuditConfig(bases=bases, evaluation=evaluation)
    table = _pass_table(config)
    assert len(table.probes) <= audit._TABLE_BLOCK
    c1_rows = int(table.c1_rows.max()) + 1
    rules_ = BLOCK_RULES + [REMOVE_ALIGNED_XY, K_ZERO]
    want = [audit_rule(rule, config).to_json() for rule in rules_]
    calls, coupling_channel = [], audit.coupling_channel

    def record(rule, probes, objects):
        calls.append(len(probes))
        return coupling_channel(rule, probes, objects)

    monkeypatch.setattr(audit, "coupling_channel", record)
    for block in (1, 37, 250):
        monkeypatch.setattr(audit, "_TABLE_BLOCK", block)
        calls.clear()
        assert [audit_rule(rule, config).to_json() for rule in rules_] == want, block
        assert max(calls) <= max(block, c1_rows), block
        assert sum(calls) == len(rules_) * len(table.probes), block
