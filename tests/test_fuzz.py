"""Config fuzz: no ``experiment run`` or ``net build`` config ends in an internal error.

Hypothesis draws a class and its parameters, and for an experiment its
resolution, confidence, mode, noise, ambient dimension and trial count;
every other key keeps its default (``m_max`` included).  Each example runs
the command line in a child process, under an address-space limit that the
child sets on itself and a deadline.  The child must exit 0, with the CSV
and JSON written, or 1, with one ``error:`` line and neither file.  An exit
status of 2 (an internal error, a ``MemoryError`` among them), a signal or
a missed deadline fails the example.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SRC = str(Path(__file__).resolve().parents[1] / "src")
ADDRESS_SPACE = 2 * 2**30
DEADLINE_S = 30.0

# The child runs the command line; with ``plant`` set it first makes the
# closest-point search raise MemoryError, a defect the fuzz must report.
CHILD = """
import sys
from netsketch import cli, nets
if sys.argv[1] == "plant":
    def failing(*args, **kwargs):
        raise MemoryError("planted")
    nets._nearest_on_grid = failing
sys.exit(cli.main(sys.argv[2:]))
"""

CLASS_BLOCKS = {
    "smooth": st.fixed_dictionaries({"smoothness": st.integers(1, 3), "amplitude": st.sampled_from(["0.5", "1", "2"])}),
    "piecewise": st.fixed_dictionaries(
        {
            "degree": st.integers(0, 3),
            "max_jumps": st.integers(0, 3),
            "deriv_bound": st.sampled_from(["0.5", "1"]),
            "min_gap": st.sampled_from(["0.5", "1.5", "3"]),
            "level_bound": st.sampled_from(["0.5", "1"]),
        }
    ),
    "analytic": st.fixed_dictionaries(
        {
            "max_jumps": st.integers(0, 2),
            "strip_width": st.sampled_from(["0.5", "1", "2"]),
            "amplitude": st.sampled_from(["0.5", "1"]),
        }
    ),
}


@st.composite
def configs(draw):
    """A command and its config's keys."""
    name = draw(st.sampled_from(sorted(CLASS_BLOCKS)))
    keys = {"class": name, **draw(CLASS_BLOCKS[name])}
    if draw(st.booleans()):
        keys["eps1"] = draw(st.sampled_from(["0.5", "1", "3"]))
        return "net", keys
    keys.update(
        eps=draw(st.sampled_from(["1.2", "2.4", "6"])),
        p=draw(st.sampled_from(["0.5", "0.9"])),
        mode=draw(st.sampled_from(["fixed_w", "fixed_x"])),
        delta=draw(st.sampled_from(["0", "0.05", "auto"])),
        ambient_dim=draw(st.sampled_from(["256", "512", "1024"])),
        trials=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31 - 1)),
        tail_samples=10,
        tail_dims="32,64,128",
    )
    return "experiment", keys


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_config(directory: Path, command: str, keys: dict, plant: bool = False) -> str | None:
    """Run one config in a child; the broken promise, or ``None`` when it exits 0 or 1 as it should."""
    for path in directory.iterdir():
        path.unlink()
    cfg, out = directory / "run.cfg", directory / "out"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()), encoding="utf-8")
    argv = ["net", "build", str(cfg)] if command == "net" else ["experiment", "run", str(cfg), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, "plant" if plant else "run", *argv],
            capture_output=True, text=True, timeout=DEADLINE_S, env=env, preexec_fn=limit_address_space,
        )
    except subprocess.TimeoutExpired:
        return f"no exit within {DEADLINE_S} s"
    written = sorted(path.suffix for path in directory.iterdir() if path.suffix in (".csv", ".json"))
    if proc.returncode == 0:
        return None if command == "net" or written == [".csv", ".json"] else f"exit 0 wrote {written}"
    if proc.returncode == 1:
        lines = proc.stderr.splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        if len(errors) != 1 or lines[-1] != errors[0]:
            return f"exit 1 without one closing error line: {proc.stderr!r}"
        return f"exit 1 wrote {written}" if written else None
    return f"exit {proc.returncode}: {proc.stderr[-500:]!r}"


@settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=configs())
def test_no_config_ends_in_an_internal_error(tmp_path, config):
    command, keys = config
    assert run_config(tmp_path, command, keys) is None, keys


def test_the_fuzz_reports_a_planted_memory_error(tmp_path):
    # A run that decodes reaches the search, where the planted MemoryError
    # is an internal error: exit 2, which the fuzz reports.
    keys = {
        "class": "piecewise", "degree": 0, "max_jumps": 1, "deriv_bound": 1, "min_gap": 0.5, "level_bound": 1,
        "eps": 3, "p": 0.5, "mode": "fixed_w", "trials": 1, "seed": 5, "ambient_dim": 512,
        "tail_samples": 10, "tail_dims": "32,64,128",
    }
    assert run_config(tmp_path, "experiment", keys) is None
    broken = run_config(tmp_path, "experiment", keys, plant=True)
    assert broken is not None and broken.startswith("exit 2") and "planted" in broken
