import numpy as np
import pytest

from ifmsim import (
    AuditConfig,
    BASIS_DIAG,
    BASIS_SIGMA,
    BASIS_XY,
    ConfigError,
    D_PLUS,
    FilterConfig,
    NoSurvivorsError,
    SIGMA_PLUS,
    STATE_X,
    STATE_Y,
    check_mode_equivalence,
    derive_rng,
    derive_seed,
    object_rigid,
    preferred_basis,
    probe_rigid,
    random_mix,
    random_state,
    run_correlation,
    run_correlation_mc,
    run_filter,
    run_filter_exact,
    run_filter_mc,
    run_flip,
    run_flip_mc,
    run_role_swapped,
    singlet_rule,
    tvd,
)
from ifmsim.experiments import CHUNK_ROWS, _config_branches, categorical_counts
from ifmsim.rules import builtin_rules, coherent_projection


def exact_cfg(rule, mode, **kw):
    return FilterConfig(rule=rule, source_mode=mode, **kw)


def mc_cfg(rule, mode, trials=100_000, seed=42, **kw):
    return FilterConfig(rule=rule, source_mode=mode, evaluation="mc", trials=trials, seed=seed, **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        FilterConfig(rule=singlet_rule(), source_mode=3)
    with pytest.raises(ConfigError):
        FilterConfig(rule=singlet_rule(), noise_q=1.5)
    with pytest.raises(ConfigError):
        FilterConfig(rule=singlet_rule(), evaluation="guess")
    with pytest.raises(ConfigError):
        FilterConfig(rule=singlet_rule(), trials=0)
    with pytest.raises(ConfigError):
        run_filter_exact(mc_cfg(singlet_rule(), 1))
    with pytest.raises(ConfigError):
        run_filter_mc(exact_cfg(singlet_rule(), 1))


def test_source_basis_defaults():
    assert exact_cfg(singlet_rule(), 1).resolved_source_basis() is BASIS_XY
    assert exact_cfg(singlet_rule(), 2).resolved_source_basis() is BASIS_SIGMA
    cfg = exact_cfg(singlet_rule(), 1, object_state=SIGMA_PLUS)
    assert cfg.resolved_source_basis() is BASIS_SIGMA
    cfg = exact_cfg(singlet_rule(), 2, source_basis=BASIS_DIAG)
    assert cfg.resolved_source_basis() is BASIS_DIAG


def test_probe_rigid_mode_distinguishability():
    d1 = run_filter_exact(exact_cfg(probe_rigid(), 1))
    d2 = run_filter_exact(exact_cfg(probe_rigid(), 2))
    assert np.allclose(d1.probabilities(), [0, 0.5, 0.5], atol=1e-12)
    assert np.allclose(d2.probabilities(), [0.25, 0.25, 0.5], atol=1e-12)
    assert tvd(d1.probabilities(), d2.probabilities()) == pytest.approx(0.25, abs=1e-12)
    assert tvd(d1.conditional_on_survival, d2.conditional_on_survival) == pytest.approx(
        0.5, abs=1e-12
    )


def test_object_rigid_role_asymmetry():
    # direct roles: both modes produce the same statistics
    d1 = run_filter_exact(exact_cfg(object_rigid(), 1))
    d2 = run_filter_exact(exact_cfg(object_rigid(), 2))
    assert np.allclose(d1.probabilities(), [0, 0.5, 0.5], atol=1e-12)
    assert np.allclose(d1.probabilities(), d2.probabilities(), atol=1e-12)
    # swapped roles: the modes separate
    s1 = run_role_swapped(exact_cfg(object_rigid(), 1))
    s2 = run_role_swapped(exact_cfg(object_rigid(), 2))
    assert np.allclose(s1.probabilities(), [0, 0.5, 0.5], atol=1e-12)
    assert np.allclose(s2.probabilities(), [0.25, 0.25, 0.5], atol=1e-12)


def test_singlet_is_flat_everywhere():
    for swapped in (False, True):
        for mode in (1, 2):
            dist = run_filter_exact(exact_cfg(singlet_rule(), mode, swapped_roles=swapped))
            assert np.allclose(dist.probabilities(), [0.25, 0.25, 0.5], atol=1e-12)


def test_singlet_mode_equivalence_across_bases_roles_noise():
    for analyzer in (BASIS_XY, BASIS_SIGMA, BASIS_DIAG):
        for swapped in (False, True):
            for q in (0.0, 0.25, 0.5):
                d1 = run_filter_exact(
                    exact_cfg(singlet_rule(), 1, analyzer_basis=analyzer,
                              swapped_roles=swapped, noise_q=q)
                )
                d2 = run_filter_exact(
                    exact_cfg(singlet_rule(), 2, analyzer_basis=analyzer,
                              swapped_roles=swapped, noise_q=q)
                )
                assert np.allclose(d1.probabilities(), d2.probabilities(), atol=1e-12)


def test_probability_bookkeeping():
    rng = derive_rng(301)
    for rule in builtin_rules():
        for mode in (1, 2):
            for q in (0.0, 0.37):
                dist = run_filter_exact(
                    exact_cfg(rule, mode, object_state=random_state(rng), noise_q=q)
                )
                assert dist.probabilities().sum() == pytest.approx(1.0, abs=1e-9)
                if dist.conditional_on_survival is not None:
                    assert sum(dist.conditional_on_survival) == pytest.approx(1.0, abs=1e-9)


def test_fly_by_neutrality_at_q1_filter():
    for rule in builtin_rules():
        for mode in (1, 2):
            dist = run_filter_exact(exact_cfg(rule, mode, noise_q=1.0))
            # no coupling: the source ensemble passes straight to the analyzer
            assert dist.p_scatter == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(
                dist.probabilities()[:2], [0.5, 0.5], atol=1e-12
            )  # both modes have density I/2


def test_mc_counts_sum_to_trials():
    dist = run_filter_mc(mc_cfg(singlet_rule(), 1, trials=1))
    assert sum(dist.counts) == 1
    dist = run_filter_mc(mc_cfg(probe_rigid(), 2, trials=1234, noise_q=0.3))
    assert sum(dist.counts) == 1234
    assert dist.trials == 1234


def test_mc_same_seed_bit_identical():
    a = run_filter_mc(mc_cfg(singlet_rule(), 1))
    b = run_filter_mc(mc_cfg(singlet_rule(), 1))
    assert a.counts == b.counts
    c = run_filter_mc(mc_cfg(singlet_rule(), 1, seed=43))
    assert c.counts != a.counts


def test_mc_counts_pinned_per_seed():
    # counts of the per-trial sampler, fixed for these seeds
    swapped = mc_cfg(probe_rigid(), 2, trials=20_000, seed=5, noise_q=0.3, swapped_roles=True)
    assert run_filter_mc(swapped).counts == (3023, 9894, 7083)
    corr = run_correlation_mc(STATE_Y, SIGMA_PLUS, BASIS_XY, object_rigid(), 0.3,
                              trials=20_000, seed=3)
    assert corr.counts.tolist() == [1686, 1775, 4794, 4774]
    assert corr.survivors == 13_029
    flip = run_flip_mc(D_PLUS, STATE_X, probe_rigid(), 0.3, trials=20_000, seed=4)
    assert flip.counts.tolist() == [6383, 6604]


def test_mc_close_to_exact():
    for rule, mode, kw in (
        (singlet_rule(), 1, {}),
        (probe_rigid(), 2, {}),
        (object_rigid(), 2, {"swapped_roles": True}),
        (random_mix(), 1, {"noise_q": 0.5}),
    ):
        exact = run_filter_exact(exact_cfg(rule, mode, **kw))
        mc = run_filter_mc(mc_cfg(rule, mode, **kw))
        assert tvd(mc.probabilities(), exact.probabilities()) < 0.01


def test_mc_tvd_calibration_over_seeds():
    exact = run_filter_exact(exact_cfg(singlet_rule(), 2)).probabilities()
    close = sum(
        tvd(run_filter_mc(mc_cfg(singlet_rule(), 2, seed=seed)).probabilities(), exact) < 0.01
        for seed in range(100)
    )
    assert close >= 99


def test_source_mode_equivalence_precondition():
    check_mode_equivalence(BASIS_XY, BASIS_SIGMA)
    check_mode_equivalence(BASIS_SIGMA, BASIS_DIAG)


def test_correlation_singlet():
    result = run_correlation(STATE_Y, STATE_X, BASIS_SIGMA, singlet_rule())
    assert np.allclose(result.cells, [0, 0.5, 0.5, 0], atol=1e-12)
    assert result.aligned_weight == pytest.approx(0.0, abs=1e-12)


def test_correlation_random_mix():
    result = run_correlation(STATE_Y, STATE_X, BASIS_SIGMA, random_mix())
    assert np.allclose(result.cells, [0.25, 0.25, 0.25, 0.25], atol=1e-12)
    assert result.aligned_weight == pytest.approx(0.5, abs=1e-12)


def test_correlation_object_rigid_in_xy():
    result = run_correlation(STATE_Y, STATE_X, BASIS_XY, object_rigid())
    assert np.allclose(result.cells, [0, 0, 1, 0], atol=1e-12)
    assert result.aligned_weight == pytest.approx(0.0, abs=1e-12)


def test_correlation_no_survivors():
    with pytest.raises(NoSurvivorsError):
        run_correlation(STATE_X, STATE_X, BASIS_SIGMA, singlet_rule())
    # fly-by noise reopens the survivor branch
    result = run_correlation(STATE_X, STATE_X, BASIS_XY, singlet_rule(), noise_q=0.5)
    assert result.cells[0] == pytest.approx(1.0, abs=1e-12)


def test_correlation_mc_matches_exact():
    exact = run_correlation(STATE_Y, STATE_X, BASIS_SIGMA, random_mix())
    mc = run_correlation_mc(STATE_Y, STATE_X, BASIS_SIGMA, random_mix(), trials=100_000, seed=5)
    assert mc.counts.sum() == mc.survivors
    assert tvd(mc.cells, exact.cells) < 0.01
    again = run_correlation_mc(STATE_Y, STATE_X, BASIS_SIGMA, random_mix(), trials=100_000, seed=5)
    assert np.array_equal(mc.counts, again.counts)


def test_correlation_mc_singlet_never_aligned():
    mc = run_correlation_mc(STATE_Y, STATE_X, BASIS_SIGMA, singlet_rule(), trials=100_000, seed=6)
    assert mc.counts[0] == 0 and mc.counts[3] == 0


def test_flip_singlet():
    result = run_flip(STATE_Y, STATE_X, singlet_rule())
    assert np.allclose(result.probe_probs, [0.5, 0.5], atol=1e-12)
    assert np.allclose(result.object_given[0], STATE_Y.density(), atol=1e-12)
    assert np.allclose(result.object_given[1], STATE_X.density(), atol=1e-12)


def test_flip_object_rigid_keeps_everything():
    result = run_flip(STATE_Y, STATE_X, object_rigid())
    assert np.allclose(result.probe_probs, [0, 1], atol=1e-12)
    assert result.object_given[0] is None
    assert np.allclose(result.object_given[1], STATE_X.density(), atol=1e-12)


def test_flip_pure_fly_by():
    result = run_flip(STATE_Y, STATE_X, singlet_rule(), noise_q=1.0)
    assert np.allclose(result.probe_probs, [0, 1], atol=1e-12)


def test_flip_no_survivors():
    with pytest.raises(NoSurvivorsError):
        run_flip(STATE_X, STATE_X, singlet_rule())


def test_flip_mc_matches_exact():
    exact = run_flip(STATE_Y, STATE_X, singlet_rule())
    mc = run_flip_mc(STATE_Y, STATE_X, singlet_rule(), trials=100_000, seed=9)
    assert mc.counts.sum() == 100_000
    assert abs(mc.probe_probs[0] - exact.probe_probs[0]) < 0.01
    assert np.allclose(mc.object_given[0], exact.object_given[0], atol=1e-12)


def test_run_filter_dispatch():
    assert run_filter(exact_cfg(singlet_rule(), 1)).counts is None
    assert run_filter(mc_cfg(singlet_rule(), 1, trials=10)).counts is not None


def test_coherent_projection_filter_runs():
    dist = run_filter_exact(exact_cfg(coherent_projection(BASIS_XY), 1))
    assert dist.probabilities().sum() == pytest.approx(1.0, abs=1e-12)


def test_preferred_basis_filter_runs():
    dist = run_filter_exact(exact_cfg(preferred_basis(BASIS_SIGMA), 2))
    assert dist.probabilities().sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (FilterConfig, "source_mode", True),
        (FilterConfig, "trials", 2.5),
        (FilterConfig, "trials", 3.0),
        (FilterConfig, "seed", False),
        (AuditConfig, "input_samples", 2.5),
        (AuditConfig, "seed", True),
        (AuditConfig, "mc_trials", 2.5),
        (AuditConfig, "unitary_samples", "10"),
        (AuditConfig, "mc_unitary_samples", np.float64(2.0)),
        (AuditConfig, "mc_input_samples", None),
    ],
)
def test_config_integer_fields_reject_bools_and_non_integers(cls, field, value):
    base = {"rule": singlet_rule()} if cls is FilterConfig else {}
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        cls(**base, **{field: value})
    assert getattr(cls(**base, **{field: np.int64(1)}), field) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: AuditConfig(seed=-1),
        lambda: FilterConfig(rule=singlet_rule(), seed=-3),
        lambda: run_correlation_mc(STATE_Y, STATE_X, BASIS_SIGMA, singlet_rule(), seed=-2),
        lambda: run_flip_mc(STATE_Y, STATE_X, singlet_rule(), seed=-2),
    ],
    ids=["AuditConfig", "FilterConfig", "run_correlation_mc", "run_flip_mc"],
)
def test_negative_seed_rejected(call):
    with pytest.raises(ConfigError, match="^seed must be >= 0"):
        call()


@pytest.mark.parametrize("rule", [singlet_rule(), probe_rigid()], ids=lambda rule: rule.name)
@pytest.mark.parametrize("q", [0.0, 0.3])
@pytest.mark.parametrize(
    "trials", [1, 1000, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 7, 2_000_000]
)
def test_sample_branches_chunks_match_one_block(rule, q, trials):
    cfg = mc_cfg(rule, 2, trials=trials, seed=17, noise_q=q)
    p_scatter, survivor, flyby = _config_branches(cfg)
    # one (trials, 4) block: source branch, fly-by, scatter, outcome per trial
    u = derive_rng(17).random((trials, 4))
    branch = (u[:, 0] >= 0.5).astype(int)
    fly = u[:, 1] < q
    scatter = ~fly & (u[:, 2] < p_scatter[branch])
    laws = np.where(fly[:, None], flyby[branch], survivor[branch])
    cells = np.count_nonzero(u[~scatter, 3:] >= np.cumsum(laws[~scatter], axis=1)[:, :-1], axis=1)
    want = np.append(np.bincount(cells, minlength=2), np.count_nonzero(scatter))
    assert run_filter_mc(cfg).counts == tuple(int(c) for c in want)


def test_derive_rng_streams_differ():
    a = derive_rng(1).random(4)
    b = derive_rng(1).random(4)
    assert np.array_equal(a, b)
    c = derive_rng(1, 7).random(4)
    assert not np.array_equal(a, c)
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


@pytest.mark.parametrize(
    "law",
    [
        pytest.param([0.0, 0.0, 0.0, 0.0, 1.0], id="all-scatter"),
        pytest.param([0.5, 0.0, 0.0, 0.5, 0.0], id="zero-cells"),
        pytest.param([0.0, 0.25, 0.0, 0.75], id="zero-first-and-third"),
        pytest.param([0.1] * 10, id="cumsum-ends-below-1"),
        pytest.param([0.3, 0.3, 0.3, 0.1 - 1e-12], id="mass-below-1"),
    ],
)
def test_categorical_counts_match_searchsorted(law):
    cum = np.cumsum(law)
    cum[-1] = max(cum[-1], 1.0)
    # random draws plus draws exactly on every bound, where side="right" matters
    u = np.concatenate([derive_rng(70).random(50_000), [0.0], cum[:-1]])
    u = u[u < 1.0]
    want = np.bincount(np.searchsorted(cum, u, side="right"), minlength=len(law))
    assert np.array_equal(categorical_counts(law, u), want)


def test_categorical_counts_match_searchsorted_on_random_laws():
    rng = derive_rng(71)
    u = rng.random(20_000)
    for _ in range(200):
        law = rng.random(5) * (rng.random(5) < 0.7)
        law = law / law.sum() if law.sum() > 0 else np.eye(5)[4]
        cum = np.cumsum(law)
        cum[-1] = max(cum[-1], 1.0)
        want = np.bincount(np.searchsorted(cum, u, side="right"), minlength=5)
        assert np.array_equal(categorical_counts(law, u), want)
