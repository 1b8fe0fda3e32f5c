"""End-to-end acceptance checks with pinned tolerances and runtime budgets."""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from netsketch.cli import run_jl_check, run_tailfit
from netsketch.entropy import fit_growth, within_measurement_budget
from netsketch.config import JlCheckConfig, TailfitConfig, load_experiment_config
from netsketch import experiment
from netsketch.experiment import _distortion_ratio, audit_trial, run_experiment
from netsketch.function_classes import (
    PiecewiseAnalyticClass,
    PiecewiseSmoothClass,
    SmoothClass,
    TailDecayModel,
)
from netsketch.hilbert import DEFAULT_AMBIENT_DIM
from netsketch.jl import apply_operator, exact_failure_bound
from netsketch.nets import build_net, round_coordinates
from netsketch.reconstructor import add_noise, measure, preprocess, reconstruct

# Piecewise-constant reconstruction target: one jump, unit levels, eps = 0.6.
STEP_CONFIG = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 0.6
p = 0.5
trials = 100
seed = 101
mode = {mode}
delta = {delta}
"""

SCAN_EPS = (0.4, 0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def step_runs():
    """100-trial runs in both framings, exact and auto-noise, with wall times."""
    runs = {}
    for delta in ("0.0", "auto"):
        for mode in ("fixed_x", "fixed_w"):
            started = time.monotonic()
            config = load_experiment_config(STEP_CONFIG.format(mode=mode, delta=delta))
            result = run_experiment(config)
            runs[(mode, delta)] = (result, time.monotonic() - started)
    return runs


@pytest.fixture(scope="module")
def unclamped_trials():
    """200 direct-pipeline trials with n < d and a per-trial implication audit.

    The injected tail model keeps the truncation dimension small enough that
    the measurement count is not clamped, so the random-projection step is
    genuinely lossy and the triangle-inequality implication is non-vacuous.
    At n 6 of d 36 the chain's premise holds on 183 of the 200 trials.
    """
    family = SmoothClass(3, 2.0)
    model = TailDecayModel(constant=1.2, decay_exponent=0.5, norm_bound=2.5)
    sampler = preprocess(family, 3.0, 0.5, model, np.random.default_rng(404))
    assert not sampler.clamped and sampler.n < sampler.d

    trials = 200
    premises = counterexamples = successes = 0
    for trial in range(trials):
        member = family.sample(np.random.default_rng([404, 5, trial]), DEFAULT_AMBIENT_DIM)
        x_d = family.coefficient_prefix(member, sampler.d)
        sketch = measure(sampler, x_d)
        outcome = reconstruct(sampler, sketch)
        audit = audit_trial(sampler, member, x_d, sketch, outcome, delta=0.0, trial=trial)
        assert audit.ambient_error == family.distance(member, outcome.member)
        successes += audit.guarantee_met
        premises += audit.premise
        counterexamples += audit.counterexample

    return {
        "sampler": sampler,
        "trials": trials,
        "premises": premises,
        "counterexamples": counterexamples,
        "successes": successes,
    }


# ---------------------------------------------------------------------------
# 1. Random-projection distortion band
# ---------------------------------------------------------------------------


def test_jl_distortion_band_success_fraction():
    # The exact Beta tails over both ends of all 2,016 pairs certify 20 rows
    # (F 0.490), where the union-bound rule asked ceil(20 ln(64 / 0.5)) =
    # ceil(97.04) = 98.
    assert math.ceil(20.0 * math.log(64 / 0.5)) == 98
    started = time.monotonic()
    report = run_jl_check(JlCheckConfig(seed=9001, d=512, m=64, p=0.5, seeds=200))
    elapsed = time.monotonic() - started
    assert report["n"] == 20
    assert report["certified_failure_bound"] <= 0.5
    assert report["success_fraction"] >= 0.5
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. End-to-end reconstruction success rate
# ---------------------------------------------------------------------------


def test_reconstruction_success_rate_with_exact_measurements(step_runs):
    for mode in ("fixed_x", "fixed_w"):
        result, _ = step_runs[(mode, "0.0")]
        summary = result.summary
        assert summary["trials"] == 100
        assert summary["delta"] == 0.0
        assert summary["clamped"] is False
        assert summary["success_rate"] >= 0.5
        assert summary["success_ci"][0] >= 0.4
    exact_elapsed = step_runs[("fixed_x", "0.0")][1] + step_runs[("fixed_w", "0.0")][1]
    assert exact_elapsed < 180.0


# ---------------------------------------------------------------------------
# 3. Triangle-inequality implication across the whole suite
# ---------------------------------------------------------------------------


def test_no_implication_counterexamples_across_suite(step_runs, unclamped_trials):
    total_trials = unclamped_trials["trials"]
    premise_trials = unclamped_trials["premises"]
    counterexamples = unclamped_trials["counterexamples"]
    for result, _ in step_runs.values():
        summary = result.summary
        total_trials += summary["trials"]
        premise_trials += summary["implication_premise_trials"]
        counterexamples += summary["implication_counterexamples"]
    assert total_trials >= 500
    assert premise_trials >= 300  # the implication is not vacuous
    assert counterexamples == 0
    # The floor above needs the exact step runs (the smooth trials hold the
    # premise on 183), so each must hold it at least as often as its
    # certificate promises: 1 - F of its trials, less three standard errors
    # (43 of 100 at F = 0.419; they hold it on 89 and 97).  A noisy run
    # holds it on none, since the premise asks for delta 0.
    for mode in ("fixed_x", "fixed_w"):
        summary = step_runs[(mode, "0.0")][0].summary
        trials, bound = summary["trials"], summary["certified_failure_bound"]
        floor = trials * (1.0 - bound) - 3.0 * math.sqrt(trials * bound * (1.0 - bound))
        assert summary["implication_premise_trials"] >= floor > trials / 3, (mode, floor)


def check_against_direct_products(sampler, member, x_d, sketch, outcome, delta, audit):
    """One audit's ratios and verdicts against direct products with the frame.

    Kept-sketch ratios agree to 1e-12 relative; a clamped audit forms the
    direct products itself, so its ratios agree bit for bit.  The errors are
    the class's own distances, bit for bit; the upper pair is x and the
    class's rounding witness.
    """
    d, operator, family = sampler.d, sampler.operator, sampler.net.family
    assert np.array_equal(x_d, family.coefficient_prefix(member, d))
    assert np.array_equal(sketch, apply_operator(operator, x_d))
    assert audit.ambient_error == family.distance(member, outcome.member)
    center = family.coefficient_prefix(outcome.member, d)
    witness = family.member(*round_coordinates(family, sampler.net.plan, member))
    budget = sampler.budget
    assert audit.witness_error == family.distance(member, witness) <= budget.resolution
    upper = _distortion_ratio(operator, x_d - family.coefficient_prefix(witness, d))
    lower = _distortion_ratio(operator, x_d - center)
    if sampler.clamped:
        assert (audit.upper_ratio, audit.lower_ratio) == (upper, lower)
    else:
        assert audit.upper_ratio == pytest.approx(upper, rel=1e-12, abs=0.0)
        assert audit.lower_ratio == pytest.approx(lower, rel=1e-12, abs=0.0)
    band_low, band_high = budget.band
    distortion_ok = upper <= band_high and lower >= band_low
    premise = (
        distortion_ok
        and delta == 0.0
        and audit.truncation_tail <= budget.tail
        and audit.center_tail <= budget.tail
    )
    assert audit.distortion_ok == distortion_ok
    assert audit.premise == premise
    assert audit.counterexample == (premise and not audit.guarantee_met)


@pytest.mark.parametrize("delta", ["0.0", "auto"])
@pytest.mark.parametrize("mode, trials", [("fixed_w", 100), ("fixed_x", 10)])
def test_step_audits_match_direct_products(monkeypatch, mode, trials, delta):
    audit = experiment.audit_trial
    checked = []

    def checked_audit(sampler, member, x_d, sketch, outcome, noise, trial, witness):
        result = audit(sampler, member, x_d, sketch, outcome, noise, trial, witness)
        check_against_direct_products(sampler, member, x_d, sketch, outcome, noise, result)
        checked.append(trial)
        return result

    monkeypatch.setattr(experiment, "audit_trial", checked_audit)
    text = STEP_CONFIG.format(mode=mode, delta=delta)
    run_experiment(load_experiment_config(text.replace("trials = 100", f"trials = {trials}")))
    assert checked == list(range(trials))


# The smooth class's tail models: unclamped_trials' (d 36, n 6), and one that
# stops at d 2, where no count below d is certified.
SMOOTH_MODELS = {
    False: TailDecayModel(constant=1.2, decay_exponent=0.5, norm_bound=2.5),
    True: TailDecayModel(constant=1.0, decay_exponent=1.0, norm_bound=1.0),
}


@pytest.mark.parametrize("delta", [0.0, 0.05])
@pytest.mark.parametrize("clamped", [False, True])
def test_smooth_audits_match_direct_products(clamped, delta):
    # The sampler of unclamped_trials, and the same class clamped at n = d.
    family = SmoothClass(3, 2.0)
    sampler = preprocess(family, 3.0, 0.5, SMOOTH_MODELS[clamped], np.random.default_rng(404))
    assert sampler.clamped == clamped
    assert sampler.d == (2 if clamped else 36)
    for trial in range(20):
        rng = np.random.default_rng([404, 6, trial])
        member = family.sample(rng, DEFAULT_AMBIENT_DIM)
        x_d = family.coefficient_prefix(member, sampler.d)
        sketch = measure(sampler, x_d)
        outcome = reconstruct(sampler, add_noise(sampler, sketch, delta, rng))
        audit = audit_trial(sampler, member, x_d, sketch, outcome, delta, trial)
        check_against_direct_products(sampler, member, x_d, sketch, outcome, delta, audit)


# ---------------------------------------------------------------------------
# 4. Measurement-count bookkeeping
# ---------------------------------------------------------------------------


# perfbench/run.py's step workloads at bench seeds 1 and 7919: the class,
# eps 0.6 and the master seeds its fitted-d search picks.
BENCH_STEP_CONFIG = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 0.6
p = 0.5
trials = 2
mode = {mode}
seed = {seed}
delta = 0.0
ambient_dim = 4096
m_max = 1000000
"""


@pytest.mark.parametrize("mode", ["fixed_w", "fixed_x"])
@pytest.mark.parametrize("seed, d", [(436732992, 1886), (2045698760, 1938)])
def test_the_bench_step_config_is_certified(seed, d, mode):
    # r = 0.4 / 2.3 = 0.1739: P 900 and 21 levels, M = 396,900, and n 37,
    # the first count whose exact bound is within 1/2: 0.4185 at d 1,886 and
    # 0.4196 at d 1,938.
    summary = run_experiment(
        load_experiment_config(BENCH_STEP_CONFIG.format(mode=mode, seed=seed))
    ).summary
    assert (summary["net_size"], summary["n"], summary["d"]) == (396_900, 37, d)
    expected = {1886: 0.4185, 1938: 0.4196}[d]
    assert summary["certified_failure_bound"] == pytest.approx(expected, abs=1e-4)
    assert summary["success_rate"] == 1.0
    assert summary["implication_counterexamples"] == 0


def test_every_acceptance_config_is_certified(step_runs, unclamped_trials):
    # Each band end priced by its exact tail, M pairs below and one above.
    for result, _ in step_runs.values():
        summary = result.summary
        bound = exact_failure_bound(
            summary["n"], summary["d"], summary["net_size"], 1, tuple(summary["band"])
        )
        assert summary["certified_failure_bound"] == bound <= 1.0 - summary["p"]
    sampler = unclamped_trials["sampler"]
    assert sampler.certified_failure_bound <= 1.0 - sampler.p
    for model in SMOOTH_MODELS.values():
        family = SmoothClass(3, 2.0)
        sampler = preprocess(family, 3.0, 0.5, model, np.random.default_rng(404))
        assert sampler.certified_failure_bound <= 1.0 - sampler.p


def test_measurement_bounds_hold_everywhere(step_runs, unclamped_trials):
    for result, _ in step_runs.values():
        summary = result.summary
        assert summary["theorem_bound_check"] is True
        if summary["delta"] > 0.0:
            assert summary["n_meets_lower_bound"] is True
            assert summary["n"] >= summary["measurement_lower_bound"]
    sampler = unclamped_trials["sampler"]
    assert within_measurement_budget(sampler.n, sampler.p, sampler.net.entropy_bits)


# ---------------------------------------------------------------------------
# 5. Tail-decay model fit and fresh-sample validation
# ---------------------------------------------------------------------------


def test_tail_model_fit_band_and_validation():
    family = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    report = run_tailfit(TailfitConfig(family=family, seed=0))
    assert report["validation_samples"] == 100
    assert 0.4 <= report["fitted_beta"] <= 0.6
    assert report["violations"] == 0
    assert report["reference_beta"] == 1.0
    assert report["beta_discrepancy"] == report["fitted_beta"] - 1.0


# ---------------------------------------------------------------------------
# 6. Entropy growth rates across resolutions
# ---------------------------------------------------------------------------


def test_entropy_growth_rates():
    started = time.monotonic()
    for k in (1, 2):
        # Large amplitude keeps the scan out of the pre-asymptotic regime,
        # where integer grid counts drag the fitted exponent above 1/k.
        family = SmoothClass(k, 100.0)
        bits = [build_net(family, eps).entropy_bits for eps in SCAN_EPS]
        scan = fit_growth(SCAN_EPS, bits, "power")
        assert 0.8 / k <= scan.fit_params["exponent"] <= 1.2 / k
    analytic = PiecewiseAnalyticClass(max_jumps=1, strip_width=1.0, amplitude=1.0)
    bits = [build_net(analytic, eps).entropy_bits for eps in SCAN_EPS]
    scan = fit_growth(SCAN_EPS, bits, "logsquare")
    assert scan.r_squared >= 0.95
    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# 7. Noise robustness at delta = eps / (4 sqrt(d))
# ---------------------------------------------------------------------------


def test_noise_robustness_degradation(step_runs):
    for mode in ("fixed_x", "fixed_w"):
        exact = step_runs[(mode, "0.0")][0].summary
        noisy = step_runs[(mode, "auto")][0].summary
        assert noisy["delta_policy"] == "auto"
        assert noisy["delta"] == pytest.approx(
            noisy["eps"] / (4.0 * math.sqrt(noisy["d"]))
        )
        assert noisy["success_rate"] >= exact["success_rate"] - 0.10


# ---------------------------------------------------------------------------
# 8. Byte-identical outputs on repeated commands
# ---------------------------------------------------------------------------


def _run_cli(args: list[str]) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "netsketch", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_repeated_commands_are_byte_identical(tmp_path):
    experiment_cfg = tmp_path / "experiment.cfg"
    experiment_cfg.write_text(
        STEP_CONFIG.format(mode="fixed_x", delta="0.0").replace(
            "trials = 100", "trials = 5"
        ),
        encoding="utf-8",
    )
    jl_cfg = tmp_path / "jl.cfg"
    jl_cfg.write_text("d = 512\nm = 64\np = 0.5\nseeds = 200\nseed = 9001\n")
    scan_cfg = tmp_path / "scan.cfg"
    scan_cfg.write_text(
        "class = smooth\nsmoothness = 1\namplitude = 100.0\n"
        "eps_values = 0.4,0.2,0.1,0.05\nmodel = power\n"
    )
    tailfit_cfg = tmp_path / "tailfit.cfg"
    tailfit_cfg.write_text(
        "class = piecewise\ndegree = 1\nmax_jumps = 2\nderiv_bound = 1.0\n"
        "min_gap = 0.5\nlevel_bound = 1.0\nseed = 0\n"
    )

    commands = [
        (["experiment", "run", str(experiment_cfg)], "experiment", (".csv", ".json")),
        (["jl", "check", str(jl_cfg)], "jl", ("",)),
        (["entropy", "scan", str(scan_cfg)], "scan", (".csv", ".json")),
        (["tailfit", str(tailfit_cfg)], "tailfit", ("",)),
    ]
    for args, stem, suffixes in commands:
        first = tmp_path / f"{stem}-a"
        second = tmp_path / f"{stem}-b"
        _run_cli([*args, "--out", str(first)])
        _run_cli([*args, "--out", str(second)])
        for suffix in suffixes:
            left = tmp_path / f"{stem}-a{suffix}"
            right = tmp_path / f"{stem}-b{suffix}"
            assert left.read_bytes() == right.read_bytes(), (stem, suffix)
