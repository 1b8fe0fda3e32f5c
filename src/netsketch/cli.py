"""Command-line front end: nets, sketch checks, experiments, and scans.

Subcommands::

    netsketch net build CONFIG        build a covering net from a class config
    netsketch jl check CONFIG         empirical all-pairs distortion check
    netsketch experiment run CONFIG   seeded reconstruction experiment
    netsketch entropy scan CONFIG     entropy growth across resolutions
    netsketch tailfit CONFIG          fit and validate a tail-decay model

Every subcommand reads a flat ``key = value`` config file and accepts
``--seed`` (overrides the config's seed), ``--out`` (output path, or path
prefix where a subcommand writes both a CSV and a JSON file) and
``--log-level``/``-v`` (log lines on stderr; never in the output files).
Exit status is 0 on success, 1 on a usage error, and 2 on an internal
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Any, Sequence

import numpy as np

from .config import (
    EntropyScanConfig,
    ExperimentConfig,
    JlCheckConfig,
    NetBuildConfig,
    TailfitConfig,
    load_config,
    load_experiment_config,
)
from .errors import UsageError
from .experiment import run_experiment, write_summary_json, write_trials_csv
from .function_classes import count_tail_violations, fit_class_tail_model
from .jl import (
    DISTORTION_BAND,
    SEED_RANGE,
    distortion_ok,
    random_subspace,
    required_measurements,
)
from .nets import build_net, write_net
from .entropy import fit_growth

__all__ = ["COMMANDS", "main"]

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports bad invocations as usage errors."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _exact_int_str(value: int) -> str:
    """Decimal form of an exact count; covering numbers can exceed the
    interpreter's default digit cap for int-to-str conversion."""
    if hasattr(sys, "set_int_max_str_digits"):
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            return str(value)
        finally:
            sys.set_int_max_str_digits(previous)
    return str(value)


def _read_config(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return stream.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc


def _write(out: str | None, suffix: str, writer, *content: Any) -> None:
    """Write ``out + suffix`` by ``writer`` and name it; nothing without ``--out``."""
    if out is not None:
        writer(f"{out}{suffix}", *content)
        print(f"wrote {out}{suffix}")


# ---------------------------------------------------------------------------
# Subcommand handlers: each gets its loaded config and the parsed flags.  They
# call the library through this module's globals, which the benchmark wraps.
# ---------------------------------------------------------------------------

def _net_build(config: NetBuildConfig, args: argparse.Namespace) -> None:
    net = build_net(config.family, config.eps1, mode=config.mode, m_max=config.m_max)
    print(
        f"net: class={config.family.spec_string()} eps1={net.plan.eps1!r} mode={net.mode} "
        f"size={_exact_int_str(net.size)} entropy_bits={net.entropy_bits!r}"
    )
    _write(args.out, "", write_net, net, config.ambient_dim)


def run_jl_check(config: JlCheckConfig) -> dict[str, Any]:
    """Draw ``seeds`` random subspaces and count how often all pairwise
    ratios land in ``DISTORTION_BAND`` for ``m`` random unit vectors."""
    d, m, p, draws = config.d, config.m, config.p, config.seeds
    seed, jl_constant = config.seed, config.jl_constant
    if d < 1:
        raise UsageError(f"ambient dimension must be positive, got {d!r}")
    if m < 2:
        raise UsageError(f"need at least two points, got {m!r}")
    if draws < 1:
        raise UsageError(f"draw count must be positive, got {draws!r}")
    n = required_measurements(p, m, jl_constant)
    if n > d:
        raise UsageError(
            f"measurement count {n} exceeds the ambient dimension {d}; "
            "raise d or lower the point count"
        )
    successes = 0
    for draw in range(draws):
        point_rng = np.random.default_rng([seed, 1, draw])
        points = point_rng.normal(size=(m, d))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        op_seed = int(np.random.default_rng([seed, 2, draw]).integers(SEED_RANGE))
        operator = random_subspace(d, n, seed=op_seed)
        report = distortion_ok(operator, points)
        successes += bool(report.ok)
    return {
        "d": d,
        "m": m,
        "p": p,
        "n": n,
        "jl_constant": jl_constant,
        "draws": draws,
        "seed": seed,
        "successes": successes,
        "success_fraction": successes / draws,
        "lower": DISTORTION_BAND[0],
        "upper": DISTORTION_BAND[1],
    }


def _jl_check(config: JlCheckConfig, args: argparse.Namespace) -> None:
    report = run_jl_check(config)
    print(
        f"jl check: d={report['d']} m={report['m']} n={report['n']} "
        f"all-pairs distortion within [1/2, 2] in {report['successes']}/"
        f"{report['draws']} draws (fraction {report['success_fraction']!r})"
    )
    _write(args.out, "", write_summary_json, report)


def _experiment_run(config: ExperimentConfig, args: argparse.Namespace) -> None:
    result = run_experiment(config, jobs=args.jobs)
    summary = result.summary
    print(
        f"experiment: class={summary['class']} mode={summary['mode']} "
        f"eps={summary['eps']!r} d={summary['d']} n={summary['n']} "
        f"M={summary['net_size']} clamped={summary['clamped']}"
    )
    print(
        f"success {summary['success_count']}/{summary['trials']} "
        f"(rate {summary['success_rate']!r}, "
        f"95% CI [{summary['success_ci'][0]!r}, {summary['success_ci'][1]!r}])"
    )
    _write(args.out, ".csv", write_trials_csv, result.rows)
    _write(args.out, ".json", write_summary_json, summary)


def _entropy_scan(config: EntropyScanConfig, args: argparse.Namespace) -> None:
    family, eps_values = config.family, config.eps_values
    nets = [build_net(family, eps, mode="counted") for eps in eps_values]
    # Exact covering numbers as decimal strings: they routinely outgrow both
    # the int-to-str digit cap and what a JSON number can round-trip.
    sizes = [_exact_int_str(net.size) for net in nets]
    entropy_bits = [net.entropy_bits for net in nets]
    scan = fit_growth(eps_values, entropy_bits, config.model)
    params = " ".join(
        f"{name}={value!r}" for name, value in sorted(scan.fit_params.items())
    )
    print(
        f"entropy scan: class={family.spec_string()} model={scan.model} "
        f"{params} r_squared={scan.r_squared!r}"
    )
    columns = ("eps", "M", "H")
    rows = [dict(zip(columns, row)) for row in zip(eps_values, sizes, entropy_bits)]
    _write(args.out, ".csv", write_trials_csv, rows, columns)
    report = {
        "class": family.spec_string(),
        "model": scan.model,
        "eps_values": list(eps_values),
        "net_sizes": sizes,
        "entropy_bits": entropy_bits,
        "fit_params": scan.fit_params,
        "r_squared": scan.r_squared,
        "non_monotone": scan.non_monotone,
    }
    _write(args.out, ".json", write_summary_json, report)


def run_tailfit(config: TailfitConfig) -> dict[str, Any]:
    """Fit a tail-decay model, then validate the bound on fresh samples."""
    family, ambient_dim = config.family, config.ambient_dim
    if config.validation_samples < 1:
        raise UsageError(
            f"validation_samples must be >= 1, got {config.validation_samples!r}"
        )
    fit_rng = np.random.default_rng([config.seed, 1])
    model = fit_class_tail_model(
        family, config.tail_samples, config.tail_dims, fit_rng, ambient_dim
    )
    validation_rng = np.random.default_rng([config.seed, 2])
    validation = [
        family.to_signal(family.sample(validation_rng, ambient_dim), ambient_dim)
        for _ in range(config.validation_samples)
    ]
    violations = count_tail_violations(model, validation, config.tail_dims)
    return {
        "class": family.spec_string(),
        "seed": config.seed,
        "tail_samples": config.tail_samples,
        "tail_dims": list(config.tail_dims),
        "validation_samples": config.validation_samples,
        "ambient_dim": ambient_dim,
        "constant": model.constant,
        "norm_bound": model.norm_bound,
        "fitted_beta": model.decay_exponent,
        "reference_beta": config.reference_beta,
        "beta_discrepancy": model.decay_exponent - config.reference_beta,
        "violations": violations,
        "checks": config.validation_samples * len(config.tail_dims),
    }


def _tailfit(config: TailfitConfig, args: argparse.Namespace) -> None:
    report = run_tailfit(config)
    print(
        f"tailfit: class={report['class']} fitted_beta={report['fitted_beta']!r} "
        f"reference_beta={report['reference_beta']!r} "
        f"discrepancy={report['beta_discrepancy']!r}"
    )
    print(f"violations {report['violations']}/{report['checks']} checks")
    _write(args.out, "", write_summary_json, report)


# ---------------------------------------------------------------------------
# Command table, parser assembly and entry point
# ---------------------------------------------------------------------------

#: One row per subcommand: its words, help, config dataclass and handler.
COMMANDS = (
    (("net", "build"), "build a net from a class config", NetBuildConfig, _net_build),
    (("jl", "check"), "empirical pairwise distortion check", JlCheckConfig, _jl_check),
    (("experiment", "run"), "run a seeded experiment", ExperimentConfig, _experiment_run),
    (("entropy", "scan"), "entropy growth across resolutions", EntropyScanConfig, _entropy_scan),
    (("tailfit",), "fit and validate a tail-decay model", TailfitConfig, _tailfit),
)
_GROUP_HELP = {
    "net": "covering-net construction",
    "jl": "random-projection diagnostics",
    "experiment": "reconstruction experiments",
    "entropy": "covering-entropy diagnostics",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netsketch",
        description="Covering nets, random sketches, and reconstruction experiments.",
    )
    choices = {(): parser.add_subparsers(dest="command", required=True, metavar="command")}
    for words, help_text, config_type, handler in COMMANDS:
        group = words[:-1]
        if group not in choices:
            group_parser = choices[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            choices[group] = group_parser.add_subparsers(
                dest="subcommand", required=True, metavar="subcommand"
            )
        command = choices[group].add_parser(words[-1], help=help_text)
        command.add_argument("config", help="flat key=value config file")
        command.add_argument(
            "--seed", type=int, default=None, help="override the config's master seed"
        )
        command.add_argument(
            "--out", default=None, help="output path (or path prefix for CSV+JSON pairs)"
        )
        command.add_argument(
            "--log-level",
            choices=_LOG_LEVELS,
            default="WARNING",
            help="show netsketch log lines at this level and above on stderr",
        )
        command.add_argument(
            "-v",
            dest="log_level",
            action="store_const",
            const="INFO",
            help="same as --log-level INFO",
        )
        if config_type is ExperimentConfig:
            command.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="worker threads (results independent of it)",
            )
        command.set_defaults(config_type=config_type, handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status.

    Log lines of the ``netsketch`` loggers at the requested level go to
    stderr for the duration of the call; the handler is removed on return.
    """
    logger = logging.getLogger("netsketch")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    previous_level = logger.level
    logger.addHandler(handler)
    try:
        args = _build_parser().parse_args(argv)
        logger.setLevel(args.log_level)
        text = _read_config(args.config)
        if args.config_type is ExperimentConfig:
            config = load_experiment_config(text, seed_override=args.seed)
        else:
            config = load_config(text, args.config_type, seed_override=args.seed)
        args.handler(config, args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # fail closed: anything else is internal
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)


if __name__ == "__main__":
    raise SystemExit(main())
