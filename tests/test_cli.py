"""Command-line interface: subcommands, exit codes, and file outputs."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import split_net_text

from netsketch.cli import COMMANDS, main, run_jl_check
from netsketch.config import JlCheckConfig
from netsketch.errors import NetSketchError
from netsketch.function_classes import SmoothClass
from netsketch.jl import required_measurements
from netsketch.nets import build_net

SMOOTH_EXPERIMENT = """
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

# A step class over m_max = 100 forces the factored decoder; jl_constant 0.5
# keeps n below d, and the auto noise level makes every trial noisy.
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
jl_constant = 0.5
m_max = 100
ambient_dim = 512
tail_samples = 10
tail_dims = 32,64,128
"""

# The same class at a coarse resolution materializes its 1,125 centers;
# jl_constant 0.1 keeps n below d.
MATERIALIZED_EXPERIMENT = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 9.0
p = 0.5
trials = 12
mode = {mode}
seed = 5
delta = auto
jl_constant = 0.1
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
jl_constant = 4.0
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
        ("materialized", MATERIALIZED_EXPERIMENT.format(mode="fixed_x"), "materialized"),
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


def test_verbose_flag_logs_to_stderr_and_changes_no_output(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.cfg", FACTORED_EXPERIMENT.format(mode="fixed_w"))
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["experiment", "run", cfg, "--out", str(quiet)]) == 0
    quiet_streams = capsys.readouterr()
    assert quiet_streams.err == ""
    assert main(["experiment", "run", cfg, "-v", "--out", str(loud)]) == 0
    loud_streams = capsys.readouterr()
    assert "netsketch.reconstructor: prepared sampler:" in loud_streams.err
    assert "factored decoder terms" not in loud_streams.err
    assert loud_streams.out == quiet_streams.out.replace(str(quiet), str(loud))
    for suffix in (".csv", ".json"):
        first, second = quiet.with_suffix(suffix), loud.with_suffix(suffix)
        assert first.read_bytes() == second.read_bytes()
    assert main(["experiment", "run", cfg, "--log-level", "DEBUG"]) == 0
    debug_err = capsys.readouterr().err
    assert "netsketch.nets: factored decoder terms: P=" in debug_err
    assert main(["experiment", "run", cfg, "--log-level", "LOUD"]) == 1
    assert "invalid choice: 'LOUD'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# jl check
# ---------------------------------------------------------------------------


def test_jl_check_reports_fraction(tmp_path, capsys):
    cfg = _write(tmp_path, "jl.cfg", JL_CHECK)
    out = str(tmp_path / "jl.json")
    assert main(["jl", "check", cfg, "--out", out]) == 0
    assert "fraction" in capsys.readouterr().out
    report = json.loads((tmp_path / "jl.json").read_text(encoding="utf-8"))
    assert report["n"] == required_measurements(0.5, 8, 4.0)
    assert report["draws"] == 20
    assert 0.0 <= report["success_fraction"] <= 1.0
    assert report["successes"] == round(report["success_fraction"] * 20)


def test_jl_check_seed_flag_substitutes_for_config_key(tmp_path, capsys):
    cfg = _write(tmp_path, "jl.cfg", "d = 32\nm = 4\nseeds = 5\njl_constant = 4.0\n")
    assert main(["jl", "check", cfg]) == 1
    assert "seed" in capsys.readouterr().err
    assert main(["jl", "check", cfg, "--seed", "7"]) == 0


def test_run_jl_check_is_deterministic():
    config = JlCheckConfig(seed=7, d=32, m=4, p=0.5, seeds=5, jl_constant=4.0)
    first = run_jl_check(config)
    second = run_jl_check(config)
    assert first == second


def test_run_jl_check_rejects_undersized_ambient():
    with pytest.raises(Exception, match="exceeds the ambient dimension"):
        run_jl_check(JlCheckConfig(seed=0, d=8, m=64, p=0.5, seeds=1))


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
    for lines, member in zip(blocks, build_net(family, 0.5).members):
        assert lines[0] == "basis=trig ambient_dim=4096"
        np.testing.assert_array_equal(
            [float(line) for line in lines[1:]],
            family.to_signal(member, 4096).coefficients,
        )


def test_net_build_counted_net_cannot_be_dumped(tmp_path, capsys):
    cfg = _write(tmp_path, "net.cfg", NET_BUILD + "mode = counted\n")
    assert main(["net", "build", cfg, "--out", str(tmp_path / "net.txt")]) == 1
    assert "materialized" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, keys",
    [
        (["net", "build"], "eps1 = 10\n"),
        (["entropy", "scan"], "eps_values = 40,20,10,5\nmodel = power\n"),
    ],
)
def test_analytic_grid_too_coarse_for_its_jumps_exits_one(tmp_path, capsys, command, keys):
    # At eps1 = 10 the periodic position grid has one point for three steps.
    block = "class = analytic\nmax_jumps = 3\nstrip_width = 1\namplitude = 0.01\n"
    cfg = _write(tmp_path, "analytic.cfg", block + keys)
    assert main([*command, cfg]) == 1
    assert "fewer than max_jumps = 3" in capsys.readouterr().err


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
    # scipy is imported only where jl check uses it; every command pays for
    # what the import of netsketch.cli loads.
    loaded = _scipy_modules_after("import netsketch.cli")
    assert loaded <= _scipy_modules_after("import scipy")
    cfg = _write(tmp_path, "exp.cfg", FACTORED_EXPERIMENT.format(mode="fixed_w"))
    run = (
        "import io, sys, netsketch.cli; shown, sys.stdout = sys.stdout, io.StringIO(); "
        f"code = netsketch.cli.main(['experiment', 'run', {cfg!r}]); "
        "sys.stdout = shown; assert code == 0, code"
    )
    assert _scipy_modules_after(run) == set()
