import re
from dataclasses import replace

import numpy as np
import pytest

from ifmsim.audit import AuditConfig, _chi_square_sf, tvd
from ifmsim.experiments import (
    ConfigError,
    FilterConfig,
    NoSurvivorsError,
    derive_rng,
    filter_laws,
    run_correlation,
    run_correlation_mc,
    run_filter,
    run_filter_exact,
    run_filter_mc,
    run_flip,
    run_flip_mc,
)
from ifmsim.rules import (
    builtin_rules,
    coherent_projection,
    coupling_channel,
    object_rigid,
    preferred_basis,
    probe_rigid,
    random_mix,
    singlet_rule,
    validate_custom_rule,
)
from ifmsim.states import (
    BASIS_DIAG,
    BASIS_SIGMA,
    BASIS_XY,
    D_MINUS,
    D_PLUS,
    Basis,
    QubitState,
    SIGMA_MINUS,
    SIGMA_PLUS,
    STATE_X,
    STATE_Y,
    random_state,
)


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
    # mode 2 takes a basis unbiased with mode 1's: DIAG for a SIGMA object, SIGMA otherwise
    for obj in (SIGMA_PLUS, SIGMA_MINUS):
        assert exact_cfg(singlet_rule(), 2, object_state=obj).resolved_source_basis() is BASIS_DIAG
    assert exact_cfg(singlet_rule(), 2, object_state=D_PLUS).resolved_source_basis() is BASIS_SIGMA
    generic = exact_cfg(singlet_rule(), 2, object_state=random_state(derive_rng(66)))
    assert generic.resolved_source_basis() is BASIS_SIGMA
    cfg = exact_cfg(singlet_rule(), 2, source_basis=BASIS_DIAG)
    assert cfg.resolved_source_basis() is BASIS_DIAG


def test_mode_2_refuses_the_mode_1_basis_in_any_order_and_phase():
    # mode 2 with mode 1's basis would compare mode 1 with itself
    x_phased, y_phased = (QubitState(1j * s.amps) for s in (STATE_X, STATE_Y))
    for basis in (BASIS_XY, Basis(STATE_Y, STATE_X), Basis(y_phased, x_phased, "phased")):
        with pytest.raises(ConfigError, match=f"mode-1 basis XY, got source_basis {basis.label}$"):
            exact_cfg(singlet_rule(), 2, source_basis=basis)
    with pytest.raises(ConfigError, match="mode-1 basis d--eigen, got source_basis DIAG$"):
        exact_cfg(singlet_rule(), 2, object_state=D_MINUS, source_basis=BASIS_DIAG)
    # mode 1 may name its own basis; a generic object's mode 2 takes sigma, as by default
    assert exact_cfg(singlet_rule(), 1, source_basis=BASIS_XY).resolved_source_basis() is BASIS_XY
    generic = random_state(derive_rng(66))
    cfg = exact_cfg(singlet_rule(), 2, object_state=generic, source_basis=BASIS_SIGMA)
    assert cfg.resolved_source_basis() is BASIS_SIGMA


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
    s1 = run_filter_exact(exact_cfg(object_rigid(), 1, swapped_roles=True))
    s2 = run_filter_exact(exact_cfg(object_rigid(), 2, swapped_roles=True))
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


def test_mc_counts_sum_to_trials_beyond_memory():
    # one draw of the law, so 10**12 trials cost no more than ten
    dist = run_filter_mc(mc_cfg(probe_rigid(), 2, trials=10**12, noise_q=0.3))
    assert sum(dist.counts) == 10**12


def test_mc_same_seed_bit_identical():
    a = run_filter_mc(mc_cfg(singlet_rule(), 1))
    b = run_filter_mc(mc_cfg(singlet_rule(), 1))
    assert a.counts == b.counts
    c = run_filter_mc(mc_cfg(singlet_rule(), 1, seed=43))
    assert c.counts != a.counts


def test_mc_counts_pinned_per_seed():
    # one multinomial draw of each run's exact law, fixed for these seeds
    swapped = mc_cfg(probe_rigid(), 2, trials=20_000, seed=5, noise_q=0.3, swapped_roles=True)
    assert run_filter_mc(swapped).counts == (3042, 9955, 7003)
    corr = run_correlation_mc(STATE_Y, SIGMA_PLUS, BASIS_XY, object_rigid(), 0.3,
                              trials=20_000, seed=3)
    assert corr.counts.tolist() == [1744, 1693, 4635, 4849]
    assert corr.survivors == 12_921
    flip = run_flip_mc(D_PLUS, STATE_X, probe_rigid(), 0.3, trials=20_000, seed=4)
    assert flip.counts.tolist() == [6473, 6508]


def _calibration_runs(seed):
    """Per run: the observed counts (scatter last) and the exact law they are drawn from."""
    trials = 20_000
    for mode in (1, 2):
        cfg = mc_cfg(probe_rigid(), mode, trials=trials, seed=seed, noise_q=0.3,
                     swapped_roles=True)
        exact = run_filter_exact(replace(cfg, evaluation="exact"))
        yield np.array(run_filter_mc(cfg).counts), exact.probabilities()
    p_scatter = coupling_channel(object_rigid(), STATE_Y.amps, SIGMA_PLUS.amps, 0.3).p_scatter[0]
    corr = run_correlation_mc(STATE_Y, SIGMA_PLUS, BASIS_XY, object_rigid(), 0.3,
                              trials=trials, seed=seed)
    cells = run_correlation(STATE_Y, SIGMA_PLUS, BASIS_XY, object_rigid(), 0.3).cells
    yield (np.append(corr.counts, trials - corr.survivors),
           np.append((1.0 - p_scatter) * cells, p_scatter))
    p_scatter = coupling_channel(probe_rigid(), D_PLUS.amps, STATE_X.amps, 0.3).p_scatter[0]
    flip = run_flip_mc(D_PLUS, STATE_X, probe_rigid(), 0.3, trials=trials, seed=seed)
    probs = run_flip(D_PLUS, STATE_X, probe_rigid(), 0.3).probe_probs
    yield (np.append(flip.counts, trials - flip.counts.sum()),
           np.append((1.0 - p_scatter) * probs, p_scatter))


def test_mc_runs_null_calibration():
    # every MC run's counts follow the exact law of its run, scatter included
    good = total = 0
    for seed in range(100):
        for counts, law in _calibration_runs(seed):
            assert np.all(counts[law == 0] == 0)
            keep = law > 0
            expected = counts.sum() * law[keep]
            stat = float(np.sum((counts[keep] - expected) ** 2 / expected))
            good += _chi_square_sf(stat, int(keep.sum()) - 1) > 0.01
            total += 1
    assert good >= 0.95 * total


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


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
def test_filter_runs_read_the_coupling_at_their_level(q):
    # fly-by noise enters a run only through coupling_channel, which filter_laws reads
    analyzer = [BASIS_DIAG.b1.amps, BASIS_DIAG.b2.amps]
    for rule in builtin_rules():
        for mode in (1, 2):
            for swapped in (False, True):
                cfg = exact_cfg(rule, mode, object_state=D_PLUS, analyzer_basis=BASIS_DIAG,
                                noise_q=q, swapped_roles=swapped)
                sources = np.array([s.amps for s in cfg.resolved_source_basis().states()])
                objects = np.array([D_PLUS.amps] * 2)
                slots = (objects, sources) if swapped else (sources, objects)
                law = filter_laws(coupling_channel(rule, *slots, q), [swapped] * 2, [analyzer] * 2)
                got = run_filter_exact(cfg).probabilities()
                assert got.tobytes() == law[0].tobytes(), (rule.name, mode, swapped)


def test_sure_scatter_below_phase_eps_reads_certain_scatter():
    # a fly-by of 1e-13 leaves a survive probability below PHASE_EPS: certain scatter
    k_zero = validate_custom_rule(np.zeros((4, 4)), "k-zero")
    for mode in (1, 2):
        for swapped in (False, True):
            dist = run_filter_exact(exact_cfg(k_zero, mode, noise_q=1e-13, swapped_roles=swapped))
            assert dist.p_scatter == 1.0
            assert dist.conditional_on_survival is None


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
    "cls, field, wrong, accepted",
    [
        (AuditConfig, "bases", ("xy",), (BASIS_SIGMA,)),
        (AuditConfig, "bases", "xy", [BASIS_XY]),
        (AuditConfig, "bases", [BASIS_XY, "sigma"], [BASIS_SIGMA, BASIS_XY]),
        (AuditConfig, "epsilon_mc", "0.1", np.float32(0.125)),
        (AuditConfig, "evaluation", b"mc", np.str_("mc")),
        (AuditConfig, "seed", 2.0, np.uint16(2)),
        (FilterConfig, "noise_q", True, np.int64(1)),
        (FilterConfig, "noise_q", "0.5", np.float16(0.5)),
        (FilterConfig, "swapped_roles", "no", np.bool_(True)),
        (FilterConfig, "rule", "singlet", probe_rigid()),
        (FilterConfig, "source_basis", "sigma", None),
        (FilterConfig, "object_state", "y", STATE_Y),
        (FilterConfig, "analyzer_basis", 0, BASIS_SIGMA),
    ],
)
def test_config_fields_reject_wrong_types(cls, field, wrong, accepted):
    base = {"rule": singlet_rule()} if cls is FilterConfig else {}
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        cls(**{**base, field: wrong})
    stored = getattr(cls(**{**base, field: accepted}), field)
    # numpy scalars are stored as plain Python values, sequences as tuples of
    # their items; anything else as given
    if isinstance(accepted, (tuple, list)):
        assert type(stored) is tuple and all(x is y for x, y in zip(stored, accepted, strict=True))
    else:
        assert stored is accepted or (stored == accepted and type(stored) in (int, float, bool, str))


@pytest.mark.parametrize("make, message", [
    (lambda: FilterConfig(rule=singlet_rule(), noise_q=10**400),
     "noise_q must be a number within the float range"),
    (lambda: AuditConfig(epsilon_exact=-10**400),
     "epsilon_exact must be a number within the float range"),
], ids=["noise_q", "epsilon_exact"])
def test_config_integer_beyond_the_float_range_is_a_config_error(make, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make()


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


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: AuditConfig(mc_trials=2**63), "mc_trials"),
        (lambda: FilterConfig(rule=singlet_rule(), trials=2**63), "trials"),
    ],
    ids=["AuditConfig", "FilterConfig"],
)
def test_trials_above_int64_rejected_in_exact_mode(call, field):
    with pytest.raises(ConfigError, match=rf"^{field} must be <= 2\*\*63 - 1, got {2**63}$"):
        call()


@pytest.mark.parametrize(
    "run",
    [
        lambda **kw: run_correlation_mc(STATE_Y, STATE_X, BASIS_SIGMA, singlet_rule(), **kw),
        lambda **kw: run_flip_mc(STATE_Y, STATE_X, singlet_rule(), **kw),
    ],
    ids=["run_correlation_mc", "run_flip_mc"],
)
@pytest.mark.parametrize(
    "field, value",
    [("trials", 2.5), ("trials", 1e3), ("trials", True), ("seed", True), ("seed", 1.0),
     ("seed", "1")],
)
def test_mc_runs_reject_non_integer_trials_and_seed(run, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
        run(**{field: value})
    assert run(**{field: np.int64(1000)}).trials == (1000 if field == "trials" else 100_000)


@pytest.mark.parametrize("rule", [singlet_rule(), probe_rigid()], ids=lambda rule: rule.name)
@pytest.mark.parametrize("q", [0.0, 0.3])
@pytest.mark.parametrize("trials", [1, 1000, 262_144, 262_145, 786_439, 2_000_000])
def test_sample_branches_chunks_match_one_block(rule, q, trials):
    # at any trial count the counts are one multinomial block of the exact run's law
    cfg = mc_cfg(rule, 2, trials=trials, seed=17, noise_q=q)
    law = run_filter_exact(replace(cfg, evaluation="exact")).probabilities()
    want = derive_rng(17).multinomial(trials, law / law.sum())
    assert run_filter_mc(cfg).counts == tuple(int(c) for c in want)


def test_derive_rng_streams_differ():
    a = derive_rng(1).random(4)
    b = derive_rng(1).random(4)
    assert np.array_equal(a, b)
    c = derive_rng(1, 7).random(4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
def test_derive_rng_draws_what_a_seed_sequence_generator_draws(seed):
    # the key words are hashed once per (seed, stream); a second call, after
    # the first generator has drawn, reads the same words
    for stream in ((), (1,), (11, 2), (42, 1), (3, 4, 5)):
        for _ in range(2):
            got = derive_rng(seed, *stream)
            want = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream)))
            assert got.random(8).tobytes() == want.random(8).tobytes()
            law = [0.2, 0.3, 0.5]
            assert np.array_equal(got.multinomial(10**6, law, size=3), want.multinomial(10**6, law, size=3))
            assert got.integers(0, 2**63, 8).tobytes() == want.integers(0, 2**63, 8).tobytes()


def test_derived_generators_do_not_spawn():
    # spawning would need the SeedSequence itself; nothing in the package spawns
    with pytest.raises(TypeError, match="spawning"):
        derive_rng(0, 1).spawn(1)
