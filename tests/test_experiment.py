"""Experiment orchestration: config schema, trial streams, aggregation, files."""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import logging
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import CountedFrame
from hypothesis import given, settings
from hypothesis import strategies as st

from netsketch import experiment, nets, reconstructor
from netsketch.config import build_family, load_experiment_config, parse_flat_config
from netsketch.entropy import measurement_lower_bound, within_measurement_budget
from netsketch.errors import AmbientTooSmallError, UsageError
from netsketch.jl import exact_failure_bound
from netsketch.reconstructor import CHAIN_BAND
from netsketch.experiment import (
    CSV_COLUMNS,
    run_experiment,
    wilson_interval,
    write_summary_json,
    write_trials_csv,
)
from netsketch.function_classes import (
    PiecewiseAnalyticClass,
    PiecewiseSmoothClass,
    SmoothClass,
    TailDecayModel,
)
from netsketch.nets import build_net, round_coordinates

SMOOTH_CONFIG = """
# exact-measurement smoke experiment
class = smooth
smoothness = 3
amplitude = 2.0
eps = 3.0
p = 0.5
trials = 6
mode = fixed_w
seed = 17
jl_constant = 4.0
tail_dims = 32,64,128,256
"""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_flat_config_syntax():
    parsed = parse_flat_config(
        "a = 1\n\n# full comment\nb=two  # trailing comment\n  c =  3  \n"
    )
    assert parsed == {"a": "1", "b": "two", "c": "3"}


def test_parse_flat_config_rejects_malformed_lines():
    with pytest.raises(UsageError, match="line 1"):
        parse_flat_config("not a pair")
    with pytest.raises(UsageError, match="empty key"):
        parse_flat_config("= 3")
    with pytest.raises(UsageError, match="repeats"):
        parse_flat_config("a = 1\na = 2")


def test_build_family_constructs_each_class():
    smooth = build_family({"class": "smooth", "smoothness": "2", "amplitude": "1.5"})
    assert isinstance(smooth, SmoothClass)
    assert smooth.spec_string() == "smooth(k=2,K=1.5)"
    piecewise = build_family(
        {
            "class": "piecewise",
            "degree": "0",
            "max_jumps": "1",
            "deriv_bound": "1",
            "min_gap": "0.5",
            "level_bound": "1",
        }
    )
    assert isinstance(piecewise, PiecewiseSmoothClass)
    analytic = build_family(
        {"class": "analytic", "max_jumps": "1", "strip_width": "2", "amplitude": "0.5"}
    )
    assert isinstance(analytic, PiecewiseAnalyticClass)


def test_build_family_rejects_unknown_or_incomplete():
    with pytest.raises(UsageError, match="missing the 'class' key"):
        build_family({"eps": "1"})
    with pytest.raises(UsageError, match="unknown class"):
        build_family({"class": "wavelet"})
    with pytest.raises(UsageError, match="amplitude"):
        build_family({"class": "smooth", "smoothness": "2"})


def test_load_experiment_config_defaults_and_coercions():
    cfg = load_experiment_config(SMOOTH_CONFIG)
    assert cfg.family == SmoothClass(smoothness=3, amplitude=2.0)
    assert cfg.eps == 3.0
    assert cfg.delta == 0.0
    assert cfg.mode == "fixed_w"
    assert cfg.tail_dims == (32, 64, 128, 256)
    assert cfg.m_max == 10**6
    assert cfg.ambient_dim == 4096
    auto = load_experiment_config(SMOOTH_CONFIG + "\ndelta = auto\nm_max = inf\n")
    assert auto.delta is None
    assert auto.m_max == math.inf


def test_load_experiment_config_rejects_unknown_keys():
    with pytest.raises(UsageError, match="unknown config keys: depth, rounds"):
        load_experiment_config(SMOOTH_CONFIG + "\nrounds = 3\ndepth = 2\n")
    # keys from another class's schema are unknown here
    with pytest.raises(UsageError, match="min_gap"):
        load_experiment_config(SMOOTH_CONFIG + "\nmin_gap = 0.5\n")


def test_load_experiment_config_requires_core_keys():
    with pytest.raises(UsageError, match="missing required keys"):
        load_experiment_config("class = smooth\nsmoothness = 1\namplitude = 1\n")
    no_seed = SMOOTH_CONFIG.replace("seed = 17\n", "")
    with pytest.raises(UsageError, match="seed"):
        load_experiment_config(no_seed)
    assert load_experiment_config(no_seed, seed_override=5).seed == 5
    # an explicit override beats the config value
    assert load_experiment_config(SMOOTH_CONFIG, seed_override=99).seed == 99


def test_load_experiment_config_validates_values():
    with pytest.raises(UsageError, match="mode"):
        load_experiment_config(SMOOTH_CONFIG.replace("fixed_w", "sideways"))
    with pytest.raises(UsageError, match="trials"):
        load_experiment_config(SMOOTH_CONFIG.replace("trials = 6", "trials = 0"))
    with pytest.raises(UsageError, match="delta"):
        load_experiment_config(SMOOTH_CONFIG + "\ndelta = -0.5\n")
    with pytest.raises(UsageError, match="eps"):
        load_experiment_config(SMOOTH_CONFIG.replace("eps = 3.0", "eps = -1"))


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------


def test_wilson_interval_brackets_point_estimate():
    for successes, trials in [(0, 10), (3, 10), (10, 10), (50, 100), (1, 2)]:
        low, high = wilson_interval(successes, trials)
        phat = successes / trials
        assert 0.0 <= low <= phat <= high <= 1.0
    with pytest.raises(UsageError):
        wilson_interval(5, 0)
    with pytest.raises(UsageError):
        wilson_interval(11, 10)


def test_wilson_interval_known_value():
    # 50/100 at z = 1.959963984540054
    low, high = wilson_interval(50, 100)
    assert low == pytest.approx(0.40383153, abs=1e-6)
    assert high == pytest.approx(0.59616847, abs=1e-6)


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smooth_result():
    return run_experiment(load_experiment_config(SMOOTH_CONFIG))


def test_run_experiment_smooth_baseline(smooth_result):
    summary = smooth_result.summary
    assert summary["trials"] == 6
    assert summary["success_rate"] == 1.0
    assert summary["success_count"] == 6
    # r = (3 - 2 * 0.5) / (2 * 1.15) = 0.8696 lays the net out at 7 centers.
    assert summary["net_size"] == 7
    assert summary["net_mode"] == "configurations"
    assert summary["clamped"] and summary["n"] == summary["d"]
    assert summary["theorem_bound_check"]
    assert summary["implication_premise_trials"] == 6
    assert summary["implication_counterexamples"] == 0
    assert summary["distortion_failures"] == 0
    assert summary["max_ambient_error"] <= 3.0
    low, high = summary["success_ci"]
    assert low <= summary["success_rate"] <= high
    assert len(smooth_result.rows) == 6
    assert all(row["guarantee_met"] for row in smooth_result.rows)


def test_run_experiment_is_deterministic_and_jobs_invariant(smooth_result):
    cfg = load_experiment_config(SMOOTH_CONFIG)
    rerun = run_experiment(cfg)
    assert rerun.summary == smooth_result.summary
    assert rerun.rows == smooth_result.rows
    parallel = run_experiment(cfg, jobs=3)
    assert parallel.summary == smooth_result.summary
    assert parallel.rows == smooth_result.rows


@pytest.mark.parametrize("jobs", [1, 2])
def test_operator_draws_per_run(monkeypatch, jobs):
    # fixed_x draws one operator per trial and none in set-up; fixed_w draws
    # its one operator in set-up, before any trial starts.
    started = []
    draws = []
    draw = reconstructor.random_subspace
    trial = experiment._run_trial

    def counted_draw(*args, **kwargs):
        draws.append(len(started))
        return draw(*args, **kwargs)

    def counted_trial(*args, **kwargs):
        started.append(None)
        return trial(*args, **kwargs)

    monkeypatch.setattr(reconstructor, "random_subspace", counted_draw)
    monkeypatch.setattr(experiment, "_run_trial", counted_trial)
    fixed_w = load_experiment_config(SMOOTH_CONFIG)
    run_experiment(fixed_w, jobs=jobs)
    assert draws == [0]
    draws.clear()
    started.clear()
    fixed_x = load_experiment_config(SMOOTH_CONFIG.replace("fixed_w", "fixed_x"))
    run_experiment(fixed_x, jobs=jobs)
    assert len(draws) == fixed_x.trials
    assert min(draws) >= 1


# A step class: its net decodes factored, whatever its size.
FACTORED_FIXED_W_CONFIG = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 3.0
p = 0.5
trials = 4
mode = fixed_w
seed = 5
jl_constant = 0.5
ambient_dim = 512
tail_samples = 10
tail_dims = 32,64,128
"""


def test_theorem_bound_check_uses_the_configured_constant(caplog):
    # At eps 1.0 (r = 0.2899, M = 60,840) the exact tail sets n 31 of d
    # 1,242, at any constant: within c = 20's rate 40 log2(M) + 41 ~ 677, over
    # c = 0.1's 0.2 log2(M) + 1.2 ~ 4.4.  Setting the constant is warned
    # about, once, on the package's logger.
    text = FACTORED_FIXED_W_CONFIG.split("eps = ")[0] + (
        "eps = 1.0\np = 0.5\ntrials = 1\nmode = fixed_w\nseed = 17\njl_constant = 0.1\n"
        "tail_dims = 32,64,128,256\n"
    )
    with caplog.at_level(logging.WARNING, logger="netsketch"):
        summary = run_experiment(load_experiment_config(text)).summary
    assert (summary["net_size"], summary["n"], summary["d"]) == (60_840, 31, 1_242)
    assert within_measurement_budget(31, 0.5, summary["entropy_bits"])
    assert summary["jl_constant"] == 0.1
    assert summary["theorem_bound_check"] is False
    warnings = [record for record in caplog.records if record.levelno >= logging.WARNING]
    assert len(warnings) == 1 and warnings[0].name.startswith("netsketch")
    assert "jl_constant = 0.1 is unused" in warnings[0].getMessage()


def term_builds(monkeypatch, text, jobs):
    """Run ``text`` and list, for each decoder terms build, the trial it ran in, ``None`` for set-up."""
    builds = []
    current = threading.local()
    trial = experiment._run_trial

    def tagged_trial(config, sampler, fixed, delta, index):
        current.trial = index
        try:
            return trial(config, sampler, fixed, delta, index)
        finally:
            current.trial = None

    monkeypatch.setattr(experiment, "_run_trial", tagged_trial)
    for decoder in (nets.FactoredStepDecoder, nets.ConfigurationDecoder):

        def counted_build(self, operator, build=decoder._operator_terms):
            builds.append(getattr(current, "trial", None))
            return build(self, operator)

        monkeypatch.setattr(decoder, "_operator_terms", counted_build)
    config = load_experiment_config(text)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_experiment(config, jobs=jobs)
    finally:
        sys.setswitchinterval(previous)
    return builds


@pytest.mark.parametrize("jobs", [1, 2])
def test_fixed_w_builds_decoder_terms_once_in_set_up(monkeypatch, jobs):
    # Both decoders build what they need for the run's one operator in
    # set-up, so no trial, the first one included, pays for it.
    for text in (FACTORED_FIXED_W_CONFIG, SMOOTH_CONFIG):
        assert term_builds(monkeypatch, text, jobs) == [None]


@pytest.mark.parametrize("jobs", [1, 2])
def test_fixed_x_builds_decoder_terms_once_per_trial(monkeypatch, jobs):
    # Each trial sketches the net under its own operator once, for its
    # decode and its audit both, whatever the other threads' trials do;
    # set-up sketches nothing.  40 trials give the threads room to interleave.
    for text in (FACTORED_FIXED_W_CONFIG, SMOOTH_CONFIG):
        text = re.sub(r"trials = \d+", "trials = 40", text.replace("mode = fixed_w", "mode = fixed_x"))
        assert sorted(term_builds(monkeypatch, text, jobs)) == list(range(40))


def test_a_fixed_x_trial_frees_its_operator_and_table(monkeypatch):
    # A trial's operator and the sketched net built for it are the trial
    # sampler's alone, so they die with it: once _run_trial returns, no frame
    # or step table of that trial is reachable.  The set-up sampler never
    # draws.
    samplers, seeds, alive = [], [], []
    prepare, draw, trial = experiment.preprocess, reconstructor.random_subspace, experiment._run_trial
    build = nets.FactoredStepDecoder._operator_terms

    def kept_sampler(*args, **kwargs):
        samplers.append(prepare(*args, **kwargs))
        return samplers[-1]

    def watched_draw(d, n, seed):
        operator = draw(d, n, seed=seed)
        seeds.append(seed)
        alive.append(weakref.ref(operator.frame))
        return operator

    def watched_build(self, operator):
        geometry, sketch = build(self, operator)
        alive.append(weakref.ref(sketch[0]))
        return geometry, sketch

    def checked_trial(*args):
        result = trial(*args)
        gc.collect()
        assert len(alive) == 2 and [ref() for ref in alive] == [None, None]
        alive.clear()
        return result

    monkeypatch.setattr(experiment, "preprocess", kept_sampler)
    monkeypatch.setattr(reconstructor, "random_subspace", watched_draw)
    monkeypatch.setattr(nets.FactoredStepDecoder, "_operator_terms", watched_build)
    monkeypatch.setattr(experiment, "_run_trial", checked_trial)
    text = FACTORED_FIXED_W_CONFIG.replace("mode = fixed_w", "mode = fixed_x")
    run_experiment(load_experiment_config(text))
    (sampler,) = samplers
    assert len(seeds) == 4 and sampler.operator_seed not in seeds
    assert "_sketched" not in vars(sampler)


# The bench's step config at its seed 1 (master seed 436732992): d 1,886,
# n 37, P 900 breakpoints and M 396,900 centers.
BENCH_FIXED_X_CONFIG = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 0.6
p = 0.5
trials = 6
mode = fixed_x
seed = 436732992
delta = 0.0
ambient_dim = 4096
tail_samples = 40
tail_dims = 64,128,256,512,1024
"""


def test_a_fixed_x_trial_allocates_little_beyond_what_it_keeps(monkeypatch):
    # A trial keeps its frame (545 KiB), its n x P table (260 KiB) and its
    # search geometry (92 KiB).  Past them, each steady-state trial's traced
    # peak stays within 192 KiB: the draw's one substitution chunk lives
    # before the table, the terms build's 8-row series and half spectrum
    # are gone before the geometry, and numpy buffers no operand of theirs.
    # An n x d substitution product and 32-row terms blocks read 1,351 KiB.
    # Trial 0 is left out: it also makes the FFT's one-time plan.
    draw, build, trial = reconstructor.random_subspace, nets.FactoredStepDecoder._operator_terms, experiment._run_trial
    kept, extra = [], []

    def watched_draw(d, n, seed):
        operator = draw(d, n, seed=seed)
        kept.append(operator.frame.nbytes)
        return operator

    def watched_build(self, operator):
        geometry, sketch = build(self, operator)
        kept.append(sketch[0].nbytes + sum(array.nbytes for array in geometry))
        return geometry, sketch

    def traced_trial(config, sampler, fixed, delta, index):
        if index == 0:
            return trial(config, sampler, fixed, delta, index)
        kept.clear()
        tracemalloc.start()
        try:
            result = trial(config, sampler, fixed, delta, index)
            extra.append(tracemalloc.get_traced_memory()[1] - sum(kept))
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(reconstructor, "random_subspace", watched_draw)
    monkeypatch.setattr(nets.FactoredStepDecoder, "_operator_terms", watched_build)
    monkeypatch.setattr(experiment, "_run_trial", traced_trial)
    summary = run_experiment(load_experiment_config(BENCH_FIXED_X_CONFIG)).summary
    assert (summary["d"], summary["n"], summary["net_size"]) == (1886, 37, 396_900)
    assert len(extra) == 5 and max(extra) <= 192 * 1024, extra


def test_summary_reports_the_certified_failure_bound(smooth_result):
    # A clamped operator is exact.  Unclamped, the bound is the chain's exact
    # tails: the lower band on each of M pairs, the upper band on one.  It is
    # within 1 - p whatever jl_constant says, and n does not follow it.
    assert smooth_result.summary["clamped"]
    assert smooth_result.summary["certified_failure_bound"] == 0.0
    counts = set()
    for constant in ("0.1", "0.5", "4.0", "400"):
        text = FACTORED_FIXED_W_CONFIG.replace("trials = 4", "trials = 2")
        config = load_experiment_config(text.replace("jl_constant = 0.5", f"jl_constant = {constant}"))
        summary = run_experiment(config).summary
        assert not summary["clamped"]
        bound = exact_failure_bound(summary["n"], summary["d"], summary["net_size"], 1, CHAIN_BAND)
        assert summary["certified_failure_bound"] == bound <= 1.0 - config.p
        counts.add(summary["n"])
    assert len(counts) == 1


# perfbench/run.py's materialized_fixed_w inputs at bench seed 1: eps 4.8,
# jl_constant 2.0, and the master seed its tail fit puts at d 43.
SMALL_CONSTANT_CONFIG = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 4.8
p = 0.5
trials = 20
mode = fixed_w
seed = 434211399
delta = 0.0
jl_constant = 2.0
ambient_dim = 4096
m_max = 1000000
"""


def test_a_small_jl_constant_leaves_no_run_uncertified():
    # The union-bound rule gave this run ceil(2 ln(181 / 0.5)) = 12 rows,
    # whose Dasgupta-Gupta bound is 1.0; the exact tail certifies n 13 of d
    # 43 at 0.406, within 1 - p, and the premise holds on every trial.
    summary = run_experiment(load_experiment_config(SMALL_CONSTANT_CONFIG)).summary
    assert (summary["d"], summary["net_size"], summary["n"]) == (43, 180, 13)
    assert summary["certified_failure_bound"] == pytest.approx(0.406, abs=1e-3)
    assert summary["certified_failure_bound"] <= 1.0 - summary["p"]
    assert summary["implication_premise_trials"] == summary["trials"]
    assert summary["implication_counterexamples"] == 0 and summary["success_rate"] == 1.0


def test_fixed_x_builds_its_witness_once_in_set_up(monkeypatch):
    # One member for every trial, so one rounding and one expansion of its
    # witness; each trial's audit still matches one that finds w afresh.
    rounds = []
    rounding = experiment.round_coordinates
    audit = experiment.audit_trial

    def counted_round(family, plan, member):
        rounds.append(None)
        return rounding(family, plan, member)

    def compared_audit(sampler, member, x_d, sketch, outcome, delta, trial, witness):
        result = audit(sampler, member, x_d, sketch, outcome, delta, trial, witness)
        assert witness is not None and witness.coefficients.shape == (sampler.d,)
        count = len(rounds)
        assert result == audit(sampler, member, x_d, sketch, outcome, delta, trial)
        del rounds[count:]
        return result

    monkeypatch.setattr(experiment, "round_coordinates", counted_round)
    monkeypatch.setattr(experiment, "audit_trial", compared_audit)
    text = FACTORED_FIXED_W_CONFIG.replace("fixed_w", "fixed_x").replace("trials = 4", "trials = 6")
    run_experiment(load_experiment_config(text))
    assert len(rounds) == 1


def frame_products_per_trial(monkeypatch, text):
    """Run ``text`` and count each trial's matrix products with the frame.

    Returns one ``(products, witness_is_decoded)`` pair per trial: whether
    the class's rounding witness is the decoded center, which forms no product.
    """
    products = CountedFrame.products
    products.clear()
    draw = reconstructor.random_subspace

    def counted_draw(*args, **kwargs):
        operator = draw(*args, **kwargs)
        object.__setattr__(operator, "frame", operator.frame.view(CountedFrame))
        return operator

    trial, audit = experiment._run_trial, experiment.audit_trial
    counts, same = [], []

    def counted_trial(*args, **kwargs):
        before = len(products)
        result = trial(*args, **kwargs)
        counts.append(len(products) - before)
        return result

    def recorded_audit(sampler, member, x_d, sketch, outcome, *args):
        family = sampler.net.family
        witness = round_coordinates(family, sampler.net.plan, member)
        same.append(witness == outcome.coordinates)
        return audit(sampler, member, x_d, sketch, outcome, *args)

    monkeypatch.setattr(reconstructor, "random_subspace", counted_draw)
    monkeypatch.setattr(experiment, "_run_trial", counted_trial)
    monkeypatch.setattr(experiment, "audit_trial", recorded_audit)
    run_experiment(load_experiment_config(text))
    return list(zip(counts, same))


@pytest.mark.parametrize("delta", ["0.0", "0.05"])
def test_a_trial_reads_the_frame_once(monkeypatch, delta):
    # measure forms R x_d; the decode works from the decoder's kept sketch,
    # which gives the winner's R c and, when the witness w is not the
    # decoded center, R w_d for the audit.  Noise is added to R x_d.  At 16
    # trials both cases occur at either delta (trial 13 decodes its witness).
    text = FACTORED_FIXED_W_CONFIG.replace("trials = 4", "trials = 16") + f"delta = {delta}\n"
    trials = frame_products_per_trial(monkeypatch, text)
    assert [products for products, _ in trials] == [1] * 16
    assert {same for _, same in trials} == {True, False}


def test_a_clamped_trial_keeps_its_direct_products(monkeypatch):
    # n = d: besides measure's R x_d, the audit applies the operator to the
    # lower pair's difference, and to the upper pair's when the witness is
    # not the decoded center.
    trials = frame_products_per_trial(monkeypatch, SMOOTH_CONFIG)
    assert [products for products, _ in trials] == [2 if same else 3 for _, same in trials]


def test_the_witness_closes_the_chain_where_the_nearest_center_is_another(monkeypatch):
    # Trial 2 of the factored run: the rounding witness w is neither the
    # nearest center c* in coefficient space nor the decoded center c, the
    # premise holds (lower ratio 0.916, upper 0.997), and the decode's
    # minimality with the band's ends on (x, w) and (x, c) still bounds
    # |x_d - c_d| by (a_hi / a_lo) |x_d - w_d|.
    audits = {}
    audit = experiment.audit_trial

    def recorded_audit(sampler, member, x_d, sketch, outcome, delta, trial, witness):
        result = audit(sampler, member, x_d, sketch, outcome, delta, trial, witness)
        audits[trial] = (sampler, member, x_d, outcome, result)
        return result

    monkeypatch.setattr(experiment, "audit_trial", recorded_audit)
    run_experiment(load_experiment_config(FACTORED_FIXED_W_CONFIG.replace("trials = 4", "trials = 6")))
    sampler, member, x_d, outcome, result = audits[2]
    family, plan = sampler.net.family, sampler.net.plan
    coordinates = round_coordinates(family, plan, member)
    nearest = sampler.decoder.decode_coefficients(x_d)
    assert coordinates != nearest.coordinates
    assert coordinates != outcome.coordinates
    assert nearest.index != outcome.index
    witness = family.member(*coordinates)
    witness_d = family.coefficient_prefix(witness, sampler.d)
    assert result.witness_error == family.distance(member, witness) <= sampler.budget.resolution
    # The upper pair's length is |R x_d - R w_d| from the kept sketches.
    direct = experiment._distortion_ratio(sampler.operator, x_d - witness_d)
    assert result.upper_ratio == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert result.premise and result.guarantee_met and not result.counterexample
    offset = np.linalg.norm(x_d - outcome.coefficients)
    lower, upper = sampler.budget.band
    assert offset <= upper / lower * np.linalg.norm(x_d - witness_d)


_WITNESS_TAILS = TailDecayModel(constant=30.0, decay_exponent=1.0, norm_bound=1.0)
_WITNESS_CLASSES = {
    # name: (class, eps); each net decodes with n < d
    "step": (PiecewiseSmoothClass(0, 1, 1.0, 0.5, 1.0), 3.0),
    "degree_1": (PiecewiseSmoothClass(1, 1, 1.0, 0.5, 1.0), 12.0),
    "analytic": (PiecewiseAnalyticClass(max_jumps=1, strip_width=1.0, amplitude=1.0), 9.0),
    "smooth": (SmoothClass(3, 2.0), 3.0),
}


@pytest.fixture(scope="module")
def witness_samplers():
    return {
        name: reconstructor.preprocess(
            family, eps, 0.5, _WITNESS_TAILS, np.random.default_rng(3), ambient_dim=512
        )
        for name, (family, eps) in _WITNESS_CLASSES.items()
    }


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_WITNESS_CLASSES)), seed=st.integers(0, 2**32 - 1))
def test_the_witness_covers_every_sampled_member(witness_samplers, name, seed):
    sampler = witness_samplers[name]
    family = sampler.net.family
    member = family.sample(np.random.default_rng(seed), 512)
    x_d = family.coefficient_prefix(member, sampler.d)
    sketch = reconstructor.measure(sampler, x_d)
    outcome = reconstructor.reconstruct(sampler, sketch)
    audit = experiment.audit_trial(sampler, member, x_d, sketch, outcome, 0.0, seed)
    assert audit.witness_error <= sampler.budget.resolution
    coordinates = round_coordinates(family, sampler.net.plan, member)
    if coordinates == outcome.coordinates:
        assert audit.witness_error == audit.ambient_error
        assert audit.upper_ratio == audit.lower_ratio
    else:
        assert audit.witness_error == family.distance(member, family.member(*coordinates))


@functools.lru_cache(maxsize=None)
def _scaled_witness_sampler(name, scale):
    family, eps = _WITNESS_CLASSES[name]
    return reconstructor.preprocess(
        family, eps * scale, 0.5, _WITNESS_TAILS, np.random.default_rng(3), ambient_dim=512
    )


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_WITNESS_CLASSES)),
    scale=st.sampled_from([1.0, 1.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_witness_lies_within_the_budget_resolution(name, scale, seed):
    # The net is laid out at the budget's r, coarser than the tail budget
    # eps / 6, and still covers: the witness of every sampled member is
    # within r, the premise the chain's middle term rests on.
    sampler = _scaled_witness_sampler(name, scale)
    budget = sampler.budget
    assert sampler.net.plan.eps1 == budget.resolution > budget.tail
    member = sampler.net.family.sample(np.random.default_rng(seed), 512)
    assert experiment.covering_witness(sampler, member).error <= budget.resolution


def test_summary_and_rows_report_the_budget(tmp_path, smooth_result):
    # eps 3: r = (3 - 2 * 0.5) / (2 * 1.15); the chain's band is (1/2, 1.15).
    summary, rows = smooth_result.summary, smooth_result.rows
    assert summary["resolution"] == pytest.approx(2.0 / 2.3, rel=1e-15)
    assert summary["band"] == [0.5, 1.15]
    assert sum(row["premise"] for row in rows) == summary["implication_premise_trials"]
    assert all(0.0 <= row["witness_error"] <= summary["resolution"] for row in rows)
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), rows)
    header, first = path.read_text().splitlines()[:2]
    assert header.endswith(",premise,witness_error")
    assert first.endswith(f",{rows[0]['premise']},{rows[0]['witness_error']!r}")


def test_run_experiment_seed_changes_trials(smooth_result):
    other = run_experiment(
        load_experiment_config(SMOOTH_CONFIG.replace("seed = 17", "seed = 18"))
    )
    assert other.rows != smooth_result.rows


def test_run_experiment_modes_draw_different_streams(smooth_result):
    fixed_x = run_experiment(
        load_experiment_config(SMOOTH_CONFIG.replace("fixed_w", "fixed_x"))
    )
    assert fixed_x.summary["mode"] == "fixed_x"
    assert fixed_x.rows != smooth_result.rows
    # one signal, fresh operators: the ambient ground truth is shared, so the
    # per-trial errors vary only through the operator draw
    assert fixed_x.summary["success_rate"] == 1.0


def test_run_experiment_auto_delta_and_lower_bound():
    cfg = load_experiment_config(SMOOTH_CONFIG + "\ndelta = auto\n")
    result = run_experiment(cfg)
    summary = result.summary
    expected_delta = 3.0 / (4.0 * math.sqrt(summary["d"]))
    assert summary["delta"] == pytest.approx(expected_delta, rel=1e-12)
    assert summary["delta_policy"] == "auto"
    assert all(row["delta"] == summary["delta"] for row in result.rows)
    eps_net = build_net(cfg.family, cfg.eps)
    assert summary["entropy_bits_at_eps"] == eps_net.entropy_bits
    expected_bound = measurement_lower_bound(eps_net.entropy_bits, summary["delta"])
    assert summary["measurement_lower_bound"] == pytest.approx(expected_bound)
    assert summary["n_meets_lower_bound"]
    # noisy premises are never counted toward the exactness implication
    assert summary["implication_premise_trials"] == 0


def test_run_experiment_propagates_preprocess_errors():
    # tail probes must fit inside the ambient dimension
    with pytest.raises(UsageError):
        run_experiment(load_experiment_config(SMOOTH_CONFIG + "\nambient_dim = 2\n"))
    # slowly decaying tails demand more coefficients than the ambient space has
    step_cfg = load_experiment_config(
        """
        class = piecewise
        degree = 0
        max_jumps = 1
        deriv_bound = 1.0
        min_gap = 0.5
        level_bound = 1.0
        eps = 0.6
        p = 0.5
        trials = 2
        mode = fixed_w
        seed = 7
        ambient_dim = 256
        tail_dims = 32,64,128
        """
    )
    with pytest.raises(AmbientTooSmallError):
        run_experiment(step_cfg)
    with pytest.raises(UsageError):
        run_experiment(load_experiment_config(SMOOTH_CONFIG), jobs=0)


# The net at eps / 6 lays out; the net at eps itself does not.  A piecewise
# net always lays out: its pitch stays under min_gap / 2, which leaves every
# grid a configuration (PiecewiseSmoothClass.net_plan).
COARSE_REFUSALS = {
    "analytic": (
        "class = analytic\nmax_jumps = 3\nstrip_width = 1.0\namplitude = 1.0\neps = 60\n",
        "step-position grid at eps1 = 60.0 has 1 points",
    ),
}


@pytest.mark.parametrize("name", sorted(COARSE_REFUSALS))
def test_a_refused_layout_at_eps_runs_no_trial(monkeypatch, name):
    text, reason = COARSE_REFUSALS[name]
    config = load_experiment_config(
        text + "p = 0.5\ntrials = 2\nmode = fixed_w\nseed = 3\nambient_dim = 512\n"
        "tail_samples = 10\ntail_dims = 32,64,128\n"
    )
    build_net(config.family, config.eps / 6.0)  # the run's own net lays out
    started = []
    trial = experiment._run_trial

    def counted_trial(*args, **kwargs):
        started.append(None)
        return trial(*args, **kwargs)

    monkeypatch.setattr(experiment, "_run_trial", counted_trial)
    with pytest.raises(UsageError, match="the net at eps = ") as refusal:
        run_experiment(config)
    assert reason in str(refusal.value)
    assert started == []


@pytest.mark.parametrize("above", [False, True])
def test_within_ball_holds_up_to_twice_eps1_plus_the_noise_shift(monkeypatch, above):
    # Every decode lands exactly on the ball's edge, or one float above it.
    decode = experiment.reconstruct

    def on_the_edge(sampler, y):
        budget = sampler.budget
        edge = budget.band[1] * budget.resolution + reconstructor.noise_shift(sampler, 0.05)
        distance = math.nextafter(edge, math.inf) if above else edge
        return dataclasses.replace(decode(sampler, y), distance=distance)

    monkeypatch.setattr(experiment, "reconstruct", on_the_edge)
    rows = run_experiment(load_experiment_config(SMOOTH_CONFIG + "delta = 0.05\n")).rows
    assert [row["within_ball"] for row in rows] == [not above] * len(rows)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def test_write_trials_csv_format(tmp_path, smooth_result):
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), smooth_result.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(smooth_result.rows)
    # class ids contain commas, so the field must be quoted
    assert '"smooth(k=3,K=2)"' in lines[1]
    first = lines[1].split('"')
    prefix = first[0][:-1].split(",")  # columns before the quoted class id
    assert prefix == ["17"]
    tail = first[2][1:].split(",")
    assert tail[0] == "3.0" and tail[1] == "0.5"
    # floats round-trip through repr
    assert float(tail[7]) == smooth_result.rows[0]["projected_distance"]


def test_write_summary_json_stable(tmp_path, smooth_result):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    write_summary_json(str(path_a), smooth_result.summary)
    write_summary_json(str(path_b), smooth_result.summary)
    assert path_a.read_bytes() == path_b.read_bytes()
    loaded = json.loads(path_a.read_text())
    assert loaded["success_rate"] == 1.0
    assert list(loaded) == sorted(loaded)
    assert "wall" not in path_a.read_text()


def test_csv_bytes_identical_across_reruns(tmp_path):
    cfg = load_experiment_config(SMOOTH_CONFIG)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_trials_csv(str(path_a), run_experiment(cfg).rows)
    write_trials_csv(str(path_b), run_experiment(cfg, jobs=2).rows)
    assert path_a.read_bytes() == path_b.read_bytes()
