"""Command-line interface: subcommands, exit codes, and file outputs."""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from conftest import split_net_text

from netsketch import experiment, function_classes, nets, reconstructor
from netsketch.cli import COMMANDS, main, run_jl_check
from netsketch.config import JlCheckConfig
from netsketch.errors import NetSketchError
from netsketch.function_classes import PiecewiseSmoothClass, SmoothClass
from netsketch.jl import exact_failure_bound
from netsketch.nets import enumerate_members, gap_separated_count

SMOOTH_EXPERIMENT = """
class = smooth
smoothness = 3
amplitude = 2.0
eps = 3.0
p = 0.5
trials = 6
mode = fixed_w
seed = 17
tail_dims = 32,64,128,256
"""

# A step class decodes factored; the exact tail keeps n (13) below d (20),
# and the auto noise level makes every trial noisy.
FACTORED_EXPERIMENT = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 3.0
p = 0.5
trials = 12
mode = {mode}
seed = 5
delta = auto
ambient_dim = 512
tail_samples = 10
tail_dims = 32,64,128
"""

# The bench's step class at eps 0.6 (d ~ 1,900, n = 37), with few trials.
BENCH_STEP_EXPERIMENT = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 0.6
p = 0.5
trials = 4
mode = fixed_x
seed = 101
"""

# The degree-1, one-jump class decodes by its configurations (16,200
# centers); the exact tail keeps n (15) below d (17).
MATERIALIZED_EXPERIMENT = """
class = piecewise
degree = 1
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 10.0
p = 0.5
trials = 12
mode = {mode}
seed = 5
delta = auto
ambient_dim = 512
tail_samples = 10
tail_dims = 32,64,128
"""

JL_CHECK = """
d = 64
m = 8
p = 0.5
seeds = 20
seed = 5
"""

STEP_CLASS = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
"""

NET_BUILD = """
class = smooth
smoothness = 3
amplitude = 2.0
eps1 = 0.5
"""

ENTROPY_SCAN = """
class = smooth
smoothness = 1
amplitude = 2.0
eps_values = 0.4,0.2,0.1,0.05
model = power
"""

TAILFIT = """
class = piecewise
degree = 1
max_jumps = 2
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
validation_samples = 20
seed = 3
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# experiment run
# ---------------------------------------------------------------------------


def test_experiment_run_writes_csv_and_json(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.cfg", SMOOTH_EXPERIMENT)
    out = str(tmp_path / "run")
    assert main(["experiment", "run", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "success 6/6" in stdout
    summary = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert summary["success_rate"] == 1.0
    assert summary["seed"] == 17
    header = (tmp_path / "run.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("seed,class,eps")


def test_experiment_run_without_out_writes_nothing(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.cfg", SMOOTH_EXPERIMENT)
    assert main(["experiment", "run", cfg]) == 0
    assert "success 6/6" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_experiment_run_seed_override(tmp_path):
    cfg = _write(tmp_path, "exp.cfg", SMOOTH_EXPERIMENT)
    assert main(["experiment", "run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(
        ["experiment", "run", cfg, "--seed", "18", "--out", str(tmp_path / "b")]
    ) == 0
    a = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
    b = json.loads((tmp_path / "b.json").read_text(encoding="utf-8"))
    assert a["seed"] == 17 and b["seed"] == 18
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_experiment_run_jobs_flag_changes_nothing(tmp_path):
    cfg = _write(tmp_path, "exp.cfg", SMOOTH_EXPERIMENT)
    assert main(["experiment", "run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(
        ["experiment", "run", cfg, "--jobs", "3", "--out", str(tmp_path / "b")]
    ) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_factored_experiment_run_is_jobs_invariant(tmp_path, capsys):
    # A materialized fixed_x run switches its decoder's operator every trial.
    for name, config, net_mode in (
        ("fixed_w", FACTORED_EXPERIMENT.format(mode="fixed_w"), "factored"),
        ("fixed_x", FACTORED_EXPERIMENT.format(mode="fixed_x"), "factored"),
        ("materialized", MATERIALIZED_EXPERIMENT.format(mode="fixed_x"), "configurations"),
    ):
        cfg = _write(tmp_path, f"{name}.cfg", config)
        one, two = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        assert main(["experiment", "run", cfg, "--out", str(one)]) == 0
        assert main(["experiment", "run", cfg, "--jobs", "2", "--out", str(two)]) == 0
        summary = json.loads(one.with_suffix(".json").read_text(encoding="utf-8"))
        assert summary["net_mode"] == net_mode and not summary["clamped"]
        for suffix in (".csv", ".json"):
            first, second = one.with_suffix(suffix), two.with_suffix(suffix)
            assert first.read_bytes() == second.read_bytes()


def test_blas_thread_count_moves_no_summary_byte(tmp_path):
    # Byte-identity is promised at a fixed BLAS thread count.  At d ~ 1,900
    # a second thread may reorder the sums of the operator products, which
    # can move the last bits of projected_distance in the CSV, but must not
    # move the summary or the decoded members (their ambient errors).
    cfg = _write(tmp_path, "exp.cfg", BENCH_STEP_EXPERIMENT)
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "netsketch", "experiment", "run", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        with open(out.with_suffix(".csv"), newline="", encoding="utf-8") as stream:
            errors = [row["ambient_error"] for row in csv.DictReader(stream)]
        outputs[threads] = (out.with_suffix(".json").read_bytes(), errors)
    summary = json.loads(outputs["1"][0])
    assert summary["net_mode"] == "factored" and summary["d"] > 1_000
    assert len(outputs["1"][1]) == 4
    assert outputs["1"] == outputs["2"]


ANALYTIC_ONE_JUMP_EXPERIMENT = """
class = analytic
max_jumps = 1
strip_width = 1
amplitude = 1
eps = 2.4
p = 0.5
trials = 3
mode = fixed_x
seed = 921
ambient_dim = 512
m_max = inf
tail_dims = 64,128,256,512
"""


def test_a_one_jump_analytic_run_fits_in_a_gigabyte(tmp_path):
    # Each analytic configuration's Gram is nonsingular, so a decode bounds
    # it instead of sweeping it whole.  When the levels and the analytic c_0
    # both carried the constant, every decode swept all 9.7e7 centers and
    # this run asked for a 247 MiB leaf array.
    cfg = _write(tmp_path, "analytic.cfg", ANALYTIC_ONE_JUMP_EXPERIMENT)
    out = tmp_path / "analytic"

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "netsketch", "experiment", "run", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert summary["success_rate"] >= 0.5


DEGREE_ONE_EXPERIMENT = """
class = piecewise
degree = 1
max_jumps = 1
deriv_bound = 1
min_gap = 0.5
level_bound = 1
eps = 1.2
p = 0.5
trials = 3
mode = fixed_w
seed = 5
m_max = inf
"""


def test_the_degree_one_class_decodes_in_200_mb_of_address_space(tmp_path):
    # d 846, n 61, 3,750 configurations of 4 axes, M 2.26e9.  The decoder
    # keeps two n x P tables and the Grams; it needs about 150 MB of address
    # space in all.  One d x 4 map per configuration took 96.8 MiB, and the
    # run needed about 250 MB.
    cfg = _write(tmp_path, "degree1.cfg", DEGREE_ONE_EXPERIMENT)
    out = tmp_path / "degree1"

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (200 * 2**20, 200 * 2**20))

    proc = subprocess.run(
        [sys.executable, "-m", "netsketch", "experiment", "run", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert (summary["d"], summary["n"], summary["success_rate"]) == (846, 61, 1.0)


def test_decoder_set_up_expands_no_member(tmp_path, monkeypatch, capsys):
    # The decoder sketches its axes from shared per-breakpoint tables, so
    # building it expands no center: every expansion in a run is a trial's.
    dims: list[int] = []
    inside = []
    analyze = function_classes.analyze_piecewise
    build = nets.FactoredStepDecoder.__init__

    def recording_analyze(description, dim):
        if inside:
            dims.append(dim)
        return analyze(description, dim)

    def recording_build(self, plan, d, family):
        inside.append(True)
        try:
            return build(self, plan, d, family)
        finally:
            inside.pop()

    monkeypatch.setattr(function_classes, "analyze_piecewise", recording_analyze)
    monkeypatch.setattr(nets.FactoredStepDecoder, "__init__", recording_build)
    cfg = _write(tmp_path, "exp.cfg", MATERIALIZED_EXPERIMENT.format(mode="fixed_w"))
    out = tmp_path / "out"
    assert main(["experiment", "run", cfg, "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert summary["net_mode"] == "configurations"
    assert summary["d"] < summary["ambient_dim"]
    assert dims == []


def test_verbose_flag_logs_to_stderr_and_changes_no_output(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.cfg", FACTORED_EXPERIMENT.format(mode="fixed_w"))
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["experiment", "run", cfg, "--out", str(quiet)]) == 0
    quiet_streams = capsys.readouterr()
    assert quiet_streams.err == ""
    assert main(["experiment", "run", cfg, "-v", "--out", str(loud)]) == 0
    loud_streams = capsys.readouterr()
    assert "netsketch.reconstructor: prepared sampler:" in loud_streams.err
    summary = json.loads(loud.with_suffix(".json").read_text(encoding="utf-8"))
    assert f"failure_bound={summary['certified_failure_bound']:.3g}" in loud_streams.err
    assert "decoder terms" not in loud_streams.err
    assert loud_streams.out == quiet_streams.out.replace(str(quiet), str(loud))
    for suffix in (".csv", ".json"):
        first, second = quiet.with_suffix(suffix), loud.with_suffix(suffix)
        assert first.read_bytes() == second.read_bytes()
    assert main(["experiment", "run", cfg, "--log-level", "DEBUG"]) == 0
    debug_err = capsys.readouterr().err
    assert "netsketch.nets: decoder terms: P=" in debug_err
    assert main(["experiment", "run", cfg, "--log-level", "LOUD"]) == 1
    assert "invalid choice: 'LOUD'" in capsys.readouterr().err


def test_info_line_reports_the_accuracy_budget(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.cfg", FACTORED_EXPERIMENT.format(mode="fixed_w"))
    out = tmp_path / "out"
    assert main(["experiment", "run", cfg, "-v", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    tail = summary["eps"] / 6.0
    assert f"tail={tail:g} r={summary['resolution']:g} band=[0.5, 1.15]" in err


# ---------------------------------------------------------------------------
# jl check
# ---------------------------------------------------------------------------


def test_jl_check_reports_fraction(tmp_path, capsys):
    cfg = _write(tmp_path, "jl.cfg", JL_CHECK)
    out = str(tmp_path / "jl.json")
    assert main(["jl", "check", cfg, "--out", out]) == 0
    assert "fraction" in capsys.readouterr().out
    report = json.loads((tmp_path / "jl.json").read_text(encoding="utf-8"))
    assert report["draws"] == 20
    assert 0.0 <= report["success_fraction"] <= 1.0
    assert report["successes"] == round(report["success_fraction"] * 20)
    assert "jl_constant" not in report


def test_jl_check_certifies_its_n_and_meets_its_rate():
    # n is the first count whose exact union over both ends of all 8 * 7 / 2
    # pairs is within 1 - p, the report's bound is that union, and over 300
    # draws the success fraction stays above 1 - F less three standard errors.
    d, pairs, draws = 64, 28, 300
    report = run_jl_check(JlCheckConfig(seed=5, d=d, m=8, p=0.5, seeds=draws))
    n, bound = report["n"], report["certified_failure_bound"]
    assert bound == exact_failure_bound(n, d, pairs, pairs) <= 1.0 - report["p"]
    assert n > 1 and exact_failure_bound(n - 1, d, pairs, pairs) > 1.0 - report["p"]
    floor = 1.0 - bound - 3.0 * math.sqrt(bound * (1.0 - bound) / draws)
    assert report["success_fraction"] >= floor


def test_jl_check_seed_flag_substitutes_for_config_key(tmp_path, capsys):
    cfg = _write(tmp_path, "jl.cfg", "d = 32\nm = 4\nseeds = 5\n")
    assert main(["jl", "check", cfg]) == 1
    assert "seed" in capsys.readouterr().err
    assert main(["jl", "check", cfg, "--seed", "7"]) == 0


def test_run_jl_check_is_deterministic():
    config = JlCheckConfig(seed=7, d=32, m=4, p=0.5, seeds=5)
    first = run_jl_check(config)
    second = run_jl_check(config)
    assert first == second


def test_run_jl_check_takes_at_most_d_rows():
    # 2,016 pairs in R^8: no count below d is certified, so n is d itself and
    # the full orthogonal operator keeps every pair.
    report = run_jl_check(JlCheckConfig(seed=0, d=8, m=64, p=0.5, seeds=3))
    assert report["n"] == 8
    assert report["certified_failure_bound"] == 0.0
    assert report["successes"] == 3


def test_a_set_jl_constant_sets_no_jl_check_count(tmp_path, capsys):
    # The key still parses, but the report is that of a config without it,
    # and stderr carries one WARNING naming it.
    plain, named = tmp_path / "plain.json", tmp_path / "named.json"
    assert main(["jl", "check", _write(tmp_path, "plain.cfg", JL_CHECK), "--out", str(plain)]) == 0
    plain_streams = capsys.readouterr()
    cfg = _write(tmp_path, "named.cfg", JL_CHECK + "jl_constant = 4.0\n")
    assert main(["jl", "check", cfg, "--out", str(named)]) == 0
    named_streams = capsys.readouterr()
    assert plain_streams.err == ""
    assert named_streams.err == (
        "netsketch.cli: jl_constant = 4 is unused: the exact Beta tail sets jl check's n\n"
    )
    assert named_streams.out == plain_streams.out.replace(str(plain), str(named))
    assert plain.read_bytes() == named.read_bytes()
    bad = _write(tmp_path, "bad.cfg", JL_CHECK + "jl_constant = 0\n")
    assert main(["jl", "check", bad]) == 1
    assert "jl_constant must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# net build
# ---------------------------------------------------------------------------


def test_net_build_writes_net_file(tmp_path, capsys):
    cfg = _write(tmp_path, "net.cfg", NET_BUILD)
    out = str(tmp_path / "net.txt")
    assert main(["net", "build", cfg, "--out", out]) == 0
    assert "size=39" in capsys.readouterr().out
    family = SmoothClass(3, 2.0)
    header, blocks = split_net_text((tmp_path / "net.txt").read_text(encoding="utf-8"))
    assert header == f"eps1=0.5 M=39 spec={family.spec_string()}"
    assert len(blocks) == 39
    for lines, member in zip(blocks, enumerate_members(family, family.net_plan(0.5))):
        assert lines[0] == "basis=trig ambient_dim=4096"
        np.testing.assert_array_equal(
            [float(line) for line in lines[1:]],
            family.to_signal(member, 4096).coefficients,
        )


def test_net_build_mode_key_is_unknown(tmp_path, capsys):
    cfg = _write(tmp_path, "net.cfg", NET_BUILD + "mode = counted\n")
    assert main(["net", "build", cfg]) == 1
    assert "unknown config keys: mode" in capsys.readouterr().err


def test_net_build_counted_net_cannot_be_dumped(tmp_path, capsys):
    # A net over m_max is counted only, whichever decoder its plan calls for;
    # a step net within it is dumped, and is factored.
    step = STEP_CLASS + "eps1 = 1.5\nambient_dim = 8\n"
    out = tmp_path / "net.txt"
    assert main(["net", "build", _write(tmp_path, "step.cfg", step), "--out", str(out)]) == 0
    assert "mode=factored size=162 " in capsys.readouterr().out
    header, blocks = split_net_text(out.read_text(encoding="utf-8"))
    assert header.startswith("eps1=1.5 M=162 ") and len(blocks) == 162
    for text, mode in ((NET_BUILD, "configurations"), (step, "factored")):
        cfg = _write(tmp_path, "over.cfg", text + "m_max = 10\n")
        assert main(["net", "build", cfg]) == 0
        assert f"mode={mode} " in capsys.readouterr().out
        over = tmp_path / "over.txt"
        over.unlink(missing_ok=True)
        assert main(["net", "build", cfg, "--out", str(over)]) == 1
        assert "over m_max = 10: not written" in capsys.readouterr().err
        assert not over.exists()  # a refused net creates no file
        over.write_bytes(b"an earlier net\n")
        assert main(["net", "build", cfg, "--out", str(over)]) == 1
        assert "over m_max = 10: not written" in capsys.readouterr().err
        assert over.read_bytes() == b"an earlier net\n"  # nor truncates one


@pytest.mark.parametrize(
    "block",
    [
        "class = analytic\nmax_jumps = 1\nstrip_width = 1e-5\namplitude = 1\n",
        "class = analytic\nmax_jumps = 1\nstrip_width = 1e-6\namplitude = 1\n",
        "class = analytic\nmax_jumps = 1\nstrip_width = 1e-4\namplitude = 1\n",
        "class = smooth\nsmoothness = 1\namplitude = 1e6\n",
    ],
    ids=["analytic_strip_1e-5", "analytic_strip_1e-6", "analytic_strip_1e-4", "smooth_K_1e6"],
)
def test_net_build_refuses_more_coefficient_axes_than_the_ambient_dimension(tmp_path, capsys, block):
    # These layouts ask for 2e5 to 4e6 coefficient axes, more than the 4,096
    # ambient coefficients: refused before any axis is built.  They ran past
    # 60 s, ended in a MemoryError, or took 6 s to print a 70-digit M.
    eps1 = "0.5" if "smooth" in block else "1"
    cfg = _write(tmp_path, "net.cfg", block + f"eps1 = {eps1}\n")
    started = time.perf_counter()
    assert main(["net", "build", cfg]) == 1
    assert time.perf_counter() - started < 1.0
    assert "coefficient axes, over 4096" in capsys.readouterr().err


@pytest.mark.parametrize("ambient_dim", [0, -3])
def test_net_build_refuses_a_nonpositive_ambient_dim_before_writing(tmp_path, capsys, ambient_dim):
    for text in (NET_BUILD, STEP_CLASS + "eps1 = 1.5\n"):
        cfg = _write(tmp_path, "net.cfg", text + f"ambient_dim = {ambient_dim}\n")
        out = tmp_path / "net.txt"
        out.unlink(missing_ok=True)
        assert main(["net", "build", cfg, "--out", str(out)]) == 1
        assert f"ambient_dim must be positive, got {ambient_dim}" in capsys.readouterr().err
        assert not out.exists()  # a refused net creates no file
        out.write_bytes(b"an earlier net\n")
        assert main(["net", "build", cfg, "--out", str(out)]) == 1
        capsys.readouterr()
        assert out.read_bytes() == b"an earlier net\n"  # nor truncates one


def test_experiment_over_m_max_exits_before_building_maps(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(nets, "FactoredStepDecoder", lambda *args: built.append(args))
    text = TAILFIT.replace("validation_samples = 20\n", "") + (
        "eps = 4.5\np = 0.5\ntrials = 2\nmode = fixed_w\nm_max = 1000\n"
        "ambient_dim = 512\ntail_samples = 10\ntail_dims = 32,64,128\n"
    )
    cfg = _write(tmp_path, "exp.cfg", text)
    assert main(["experiment", "run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "over m_max = 1000: no decoder is built" in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# entropy scan
# ---------------------------------------------------------------------------


def test_entropy_scan_writes_table_and_fit(tmp_path, capsys):
    cfg = _write(tmp_path, "scan.cfg", ENTROPY_SCAN)
    out = str(tmp_path / "scan")
    assert main(["entropy", "scan", cfg, "--out", out]) == 0
    assert "exponent" in capsys.readouterr().out
    lines = (tmp_path / "scan.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "eps,M,H"
    assert len(lines) == 5
    assert lines[1].startswith("0.4,")
    report = json.loads((tmp_path / "scan.json").read_text(encoding="utf-8"))
    assert set(report["fit_params"]) == {"exponent", "amplitude"}
    assert report["r_squared"] > 0.9


def test_entropy_scan_counts_without_a_breakpoint_grid(tmp_path):
    # At eps 1e-4 the step class has P = 2.5e9 breakpoints: a 20 GB grid
    # if counting built it.  The scan counts from the plans alone.
    eps_values = (0.1, 0.01, 0.001, 0.0001)
    text = STEP_CLASS + "eps_values = 0.1,0.01,0.001,0.0001\nmodel = power\n"
    cfg = _write(tmp_path, "scan.cfg", text)
    out = str(tmp_path / "scan")
    tracemalloc.start()
    try:
        assert main(["entropy", "scan", cfg, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    report = json.loads((tmp_path / "scan.json").read_text(encoding="utf-8"))
    family = PiecewiseSmoothClass(0, 1, 1.0, 0.5, 1.0)
    expected = []
    for eps in eps_values:
        plan = family.net_plan(eps)
        configs = gap_separated_count(plan.breakpoint_count, plan.jumps, plan.index_gap)
        expected.append(str(configs * math.prod(axis.count for axis in plan.axes)))
        assert "positions" not in plan.__dict__
    assert report["net_sizes"] == expected
    assert int(expected[-1]) > 10**10


def test_entropy_scan_needs_enough_resolutions(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "scan.cfg",
        ENTROPY_SCAN.replace("0.4,0.2,0.1,0.05", "0.4,0.2"),
    )
    assert main(["entropy", "scan", cfg]) == 1
    assert "at least 4" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tailfit
# ---------------------------------------------------------------------------


def test_tailfit_reports_discrepancy(tmp_path, capsys):
    cfg = _write(tmp_path, "tail.cfg", TAILFIT)
    out = str(tmp_path / "tail.json")
    assert main(["tailfit", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "fitted_beta" in stdout and "violations" in stdout
    report = json.loads((tmp_path / "tail.json").read_text(encoding="utf-8"))
    assert report["reference_beta"] == 1.0
    assert report["beta_discrepancy"] == report["fitted_beta"] - 1.0
    assert report["checks"] == 20 * 5
    assert 0 <= report["violations"] <= report["checks"]


# ---------------------------------------------------------------------------
# Every subcommand
# ---------------------------------------------------------------------------

# Per row of the command table: a config and the suffixes of its --out files.
COMMAND_CASES = {
    ("net", "build"): (NET_BUILD, ("",)),
    ("jl", "check"): (JL_CHECK, ("",)),
    ("experiment", "run"): (SMOOTH_EXPERIMENT, (".csv", ".json")),
    ("entropy", "scan"): (ENTROPY_SCAN, (".csv", ".json")),
    ("tailfit",): (TAILFIT, ("",)),
}


@pytest.mark.parametrize("words", [row[0] for row in COMMANDS], ids=" ".join)
def test_every_command_takes_the_common_flags(tmp_path, capsys, words):
    text, suffixes = COMMAND_CASES[words]
    cfg = _write(tmp_path, "command.cfg", text)
    out = tmp_path / "out"
    assert main([*words, cfg, "--seed", "4", "-v", "--out", str(out)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "command.cfg")
    assert written == sorted(f"out{suffix}" for suffix in suffixes)
    stdout = capsys.readouterr().out
    assert stdout.endswith("".join(f"wrote {out}{suffix}\n" for suffix in suffixes))
    # An --out path in a missing directory is a usage error, not an internal one.
    missing = tmp_path / "missing" / "out"
    assert main([*words, cfg, "--out", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {f'{missing}{suffixes[0]}'!r}: ")


# ---------------------------------------------------------------------------
# Exit codes and error handling
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_one(tmp_path, capsys):
    missing = str(tmp_path / "absent.cfg")
    assert main(["experiment", "run", missing]) == 1
    assert "absent.cfg" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.cfg", SMOOTH_EXPERIMENT + "typo_key = 1\n")
    assert main(["experiment", "run", cfg]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_output_path_config_key_is_unknown(tmp_path, capsys):
    # --out PREFIX is the only way to name an experiment's output files.
    cfg = _write(tmp_path, "exp.cfg", SMOOTH_EXPERIMENT + "csv_out = trials.csv\n")
    assert main(["experiment", "run", cfg]) == 1
    assert "unknown config keys: csv_out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


STEP_NET = STEP_CLASS + "eps1 = 1.5\n"

NON_FINITE_CASES = [
    (["experiment", "run"], SMOOTH_EXPERIMENT, "delta", "nan"),
    (["experiment", "run"], SMOOTH_EXPERIMENT, "delta", "inf"),
    (["experiment", "run"], SMOOTH_EXPERIMENT, "jl_constant", "inf"),
    (["jl", "check"], JL_CHECK, "jl_constant", "inf"),
    (["net", "build"], STEP_NET, "min_gap", "inf"),
    (["net", "build"], STEP_NET, "level_bound", "inf"),
    (["net", "build"], STEP_NET, "eps1", "inf"),
    (["entropy", "scan"], ENTROPY_SCAN, "eps_values", "0.4,nan,0.1,0.05"),
    (["tailfit"], TAILFIT, "deriv_bound", "-inf"),
]


@pytest.mark.parametrize(
    "command, text, key, value",
    NON_FINITE_CASES,
    ids=[f"{command[0]}-{key}-{value}" for command, _, key, value in NON_FINITE_CASES],
)
def test_non_finite_config_numbers_exit_one(tmp_path, capsys, command, text, key, value):
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    cfg = _write(tmp_path, "command.cfg", "\n".join([*lines, f"{key} = {value}", ""]))
    assert main([*command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} needs ") and "finite" in err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["bogus"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_internal_error_exits_two(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "jl.cfg", JL_CHECK)

    def explode(*args, **kwargs):
        raise NetSketchError("invariant violated")

    monkeypatch.setattr("netsketch.cli.run_jl_check", explode)
    assert main(["jl", "check", cfg]) == 2
    assert "internal error" in capsys.readouterr().err


def test_a_net_that_does_not_cover_exits_two(tmp_path, capsys, monkeypatch):
    # A mutant rounding whose witness sits at the far end of every level axis:
    # the audit finds it more than eps1 from the member, a defect in the net.
    rounding = experiment.round_coordinates

    def far_coordinates(family, plan, member):
        breakpoints, values = rounding(family, plan, member)
        far = tuple(
            axis.snap(-math.copysign(axis.count * axis.step, value))
            for axis, value in zip(plan.axes, values)
        )
        return breakpoints, far

    monkeypatch.setattr(experiment, "round_coordinates", far_coordinates)
    cfg = _write(tmp_path, "step.cfg", FACTORED_EXPERIMENT.format(mode="fixed_w"))
    assert main(["experiment", "run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "does not cover its class" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_unexpected_exception_exits_two(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "jl.cfg", JL_CHECK)

    def explode(*args, **kwargs):
        raise ValueError("surprise")

    monkeypatch.setattr("netsketch.cli.run_jl_check", explode)
    assert main(["jl", "check", cfg]) == 2
    assert "surprise" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# python -m entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_runs(tmp_path):
    cfg = _write(tmp_path, "jl.cfg", JL_CHECK)
    out = str(tmp_path / "jl.json")
    proc = subprocess.run(
        [sys.executable, "-m", "netsketch", "jl", "check", cfg, "--out", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fraction" in proc.stdout
    assert json.loads((tmp_path / "jl.json").read_text(encoding="utf-8"))["draws"] == 20


def test_module_entry_point_usage_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "netsketch", "experiment", "run", "no-such-file"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "no-such-file" in proc.stderr


def test_experiment_run_needs_no_scipy(tmp_path):
    # numpy is the only run-time dependency: with scipy, scipy.special and
    # scipy.spatial unimportable, every subcommand still exits 0 (an import
    # would cost set-up time and resident memory on every run).
    probe = (
        "import sys\n"
        "sys.modules.update(dict.fromkeys(['scipy', 'scipy.special', 'scipy.spatial']))\n"
        "from netsketch.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    cases = {**COMMAND_CASES, ("experiment", "run"): (FACTORED_EXPERIMENT.format(mode="fixed_x"), None)}
    for words, (text, _) in cases.items():
        cfg = _write(tmp_path, "command.cfg", text)
        out = tmp_path / "-".join(words)
        proc = subprocess.run(
            [sys.executable, "-c", probe, *words, cfg, "--seed", "4", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (words, proc.stderr)
    summary = json.loads((tmp_path / "experiment-run.json").read_text(encoding="utf-8"))
    assert summary["certified_failure_bound"] <= 1.0 - summary["p"]


def test_a_set_jl_constant_is_warned_about_on_stderr_alone(tmp_path, capsys):
    # The key still parses, but sets no n: the run's outputs are those of a
    # config without it, and stderr carries one WARNING naming it.
    text = FACTORED_EXPERIMENT.format(mode="fixed_w")
    plain, named = tmp_path / "plain", tmp_path / "named"
    assert main(["experiment", "run", _write(tmp_path, "plain.cfg", text), "--out", str(plain)]) == 0
    plain_streams = capsys.readouterr()
    cfg = _write(tmp_path, "named.cfg", text + "jl_constant = 20.0\n")
    assert main(["experiment", "run", cfg, "--out", str(named)]) == 0
    named_streams = capsys.readouterr()
    assert plain_streams.err == ""
    assert named_streams.err == (
        "netsketch.experiment: jl_constant = 20 is unused for n, which the exact Beta tail"
        " sets; only theorem_bound_check reads it\n"
    )
    assert named_streams.out == plain_streams.out.replace(str(plain), str(named))
    for suffix in (".csv", ".json"):
        assert plain.with_suffix(suffix).read_bytes() == named.with_suffix(suffix).read_bytes()


def _scipy_modules_after(statement: str) -> set[str]:
    """The ``scipy`` modules a fresh interpreter holds after ``statement``."""
    probe = (
        f"{statement}; import sys; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_no_scipy_submodule(tmp_path):
    # Every command pays for what the import of netsketch.cli loads, and
    # neither an experiment nor a jl check loads any scipy module.
    loaded = _scipy_modules_after("import netsketch.cli")
    assert loaded <= _scipy_modules_after("import scipy")
    experiment_cfg = _write(tmp_path, "exp.cfg", FACTORED_EXPERIMENT.format(mode="fixed_w"))
    jl_cfg = _write(tmp_path, "jl.cfg", JL_CHECK)
    for argv in (["experiment", "run", experiment_cfg], ["jl", "check", jl_cfg]):
        run = (
            "import io, sys, netsketch.cli; shown, sys.stdout = sys.stdout, io.StringIO(); "
            f"code = netsketch.cli.main({argv!r}); "
            "sys.stdout = shown; assert code == 0, code"
        )
        assert _scipy_modules_after(run) == set()
