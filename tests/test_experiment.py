"""Experiment orchestration: config schema, trial streams, aggregation, files."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from netsketch import experiment, nets, reconstructor
from netsketch.config import build_family, load_experiment_config, parse_flat_config
from netsketch.entropy import measurement_lower_bound
from netsketch.errors import AmbientTooSmallError, UsageError
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
)
from netsketch.nets import build_net

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
    assert summary["net_size"] == 39
    assert summary["net_mode"] == "materialized"
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


# A step class over m_max = 100 forces the factored decoder.
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
m_max = 100
ambient_dim = 512
tail_samples = 10
tail_dims = 32,64,128
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_fixed_w_builds_decoder_terms_once_in_set_up(monkeypatch, jobs):
    # Both decoders build what they need for the run's one operator in
    # set-up, so no trial, the first one included, pays for it.
    started = []
    builds = []
    trial = experiment._run_trial

    def counted_trial(*args, **kwargs):
        started.append(None)
        return trial(*args, **kwargs)

    monkeypatch.setattr(experiment, "_run_trial", counted_trial)
    for decoder, name in (
        (nets.FactoredStepDecoder, "_operator_terms"),
        (nets.MaterializedDecoder, "_measured_rows"),
    ):

        def counted_build(self, operator, build=getattr(decoder, name), name=name):
            builds.append((name, len(started)))
            return build(self, operator)

        monkeypatch.setattr(decoder, name, counted_build)
    for text, name in (
        (FACTORED_FIXED_W_CONFIG, "_operator_terms"),
        (SMOOTH_CONFIG, "_measured_rows"),
    ):
        builds.clear()
        started.clear()
        config = load_experiment_config(text)
        run_experiment(config, jobs=jobs)
        assert len(started) == config.trials
        assert builds == [(name, 0)]


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
    eps_net = build_net(cfg.family, cfg.eps, mode="counted")
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
