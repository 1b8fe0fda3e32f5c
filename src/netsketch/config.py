"""Flat ``key = value`` configs: one parser and one loader for every command.

A config file holds ``key = value`` lines; ``#`` starts a comment.  Each
command's keys are the fields of one dataclass below: a field's type picks
the parser of its key, and its default makes the key optional.  A command
whose dataclass has a ``family`` field also reads a class block: ``class =
NAME`` plus one key per field of the class registered as ``NAME`` in
``CLASSES``.  ``seed`` is required unless the caller overrides it.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Any, Callable, Literal, Mapping

from .errors import UsageError
from .function_classes import PiecewiseAnalyticClass, PiecewiseSmoothClass, SmoothClass
from .hilbert import DEFAULT_AMBIENT_DIM
from .nets import DEFAULT_NET_BUDGET

__all__ = [
    "CLASSES",
    "EntropyScanConfig",
    "ExperimentConfig",
    "JlCheckConfig",
    "NetBuildConfig",
    "TailfitConfig",
    "build_family",
    "load_config",
    "load_experiment_config",
    "parse_flat_config",
]

#: The function classes a config can name, by their ``class`` value.
CLASSES: dict[str, type] = {
    "smooth": SmoothClass,
    "piecewise": PiecewiseSmoothClass,
    "analytic": PiecewiseAnalyticClass,
}


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks skipped."""
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not 'key = value': {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise UsageError(f"config line {lineno} has an empty key")
        if key in values:
            raise UsageError(f"config line {lineno} repeats key {key!r}")
        values[key] = value
    return values


# ---------------------------------------------------------------------------
# Value parsers
# ---------------------------------------------------------------------------


# The words each value shape's messages use: one value, several, a list item.
_NOUNS = {
    int: ("an integer", "integers", "dimension"),
    float: ("a finite number", "finite numbers", "value"),
}


def _finite(kind: type, text: str) -> Any:
    """``kind(text)``; ``nan`` and infinities raise ``ValueError`` too."""
    if not math.isfinite(value := kind(text)):
        raise ValueError(text)
    return value


def _as_number(key: str, kind: type) -> Callable[[str], Any]:
    def parse(value: str) -> Any:
        try:
            return _finite(kind, value)
        except ValueError:
            raise UsageError(f"config key {key!r} needs {_NOUNS[kind][0]}, got {value!r}")

    return parse


def _as_choice(key: str, choices: tuple[str, ...]) -> Callable[[str], str]:
    def parse(value: str) -> str:
        if value not in choices:
            raise UsageError(
                f"config key {key!r} must be one of {', '.join(choices)}, got {value!r}"
            )
        return value

    return parse


def _as_list(key: str, kind: type) -> Callable[[str], tuple[Any, ...]]:
    def parse(value: str) -> tuple[Any, ...]:
        try:
            parts = tuple(_finite(kind, part.strip()) for part in value.split(",") if part.strip())
        except ValueError:
            raise UsageError(f"config key {key!r} needs {_NOUNS[kind][1]}, got {value!r}")
        if not parts:
            raise UsageError(
                f"config key {key!r} must list at least one {_NOUNS[kind][2]}"
            )
        return parts

    return parse


def _as_delta(value: str) -> float | None:
    if value == "auto":
        return None
    try:
        delta = _finite(float, value)
    except ValueError:
        raise UsageError(f"config key 'delta' needs a finite number or 'auto', got {value!r}")
    if delta < 0.0:
        raise UsageError(f"config key 'delta' must be non-negative, got {value!r}")
    return delta


def _as_budget(value: str) -> float:
    if value == "inf":
        return math.inf
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"config key 'm_max' needs an integer or 'inf', got {value!r}")


# Keys whose syntax their type does not say: "auto" noise, "inf" budgets, and
# a constant that an experiment may leave unset.
_PARSERS_BY_KEY: dict[str, Callable[[str], Any]] = {
    "delta": _as_delta,
    "m_max": _as_budget,
    "jl_constant": _as_number("jl_constant", float),
}


def _schema(cls: type) -> dict[str, Callable[[str], Any]]:
    """Config key -> parser for each field of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    schema: dict[str, Callable[[str], Any]] = {}
    for f in dataclasses.fields(cls):
        if f.name == "family":  # the class block, read by build_family
            continue
        kind = hints[f.name]
        if f.name in _PARSERS_BY_KEY:
            schema[f.name] = _PARSERS_BY_KEY[f.name]
        elif typing.get_origin(kind) is Literal:
            schema[f.name] = _as_choice(f.name, typing.get_args(kind))
        elif typing.get_origin(kind) is tuple:
            schema[f.name] = _as_list(f.name, typing.get_args(kind)[0])
        else:
            schema[f.name] = _as_number(f.name, kind)
    return schema


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def build_family(raw: Mapping[str, str]) -> Any:
    """Construct the function class named by ``class`` from flat keys."""
    if "class" not in raw:
        raise UsageError("config is missing the 'class' key")
    name = raw["class"]
    if name not in CLASSES:
        raise UsageError(
            f"unknown class {name!r}; expected one of {', '.join(sorted(CLASSES))}"
        )
    schema = _schema(CLASSES[name])
    missing = sorted(key for key in schema if key not in raw)
    if missing:
        raise UsageError(f"class {name!r} needs config keys: {', '.join(missing)}")
    return CLASSES[name](**{key: parse(raw[key]) for key, parse in schema.items()})


def load_config(text: str, command: type, *, seed_override: int | None = None) -> Any:
    """Parse and validate a config into the dataclass ``command``.

    Unknown keys are errors.  ``seed_override``, when given, replaces the
    config's ``seed``; commands without a seed ignore it.
    """
    raw = parse_flat_config(text)
    schema = _schema(command)
    fields = {f.name: f for f in dataclasses.fields(command)}
    values: dict[str, Any] = {}
    allowed = set(schema)
    if "family" in fields:
        values["family"] = build_family(raw)
        allowed |= {"class", *_schema(CLASSES[raw["class"]])}
    unknown = sorted(key for key in raw if key not in allowed)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    required = [key for key in schema if fields[key].default is dataclasses.MISSING]
    missing = sorted(key for key in required if key != "seed" and key not in raw)
    if missing:
        raise UsageError(f"config is missing required keys: {', '.join(missing)}")
    if "seed" in schema and seed_override is None and "seed" not in raw:
        raise UsageError("config needs a 'seed' key (or pass --seed)")
    values.update({key: parse(raw[key]) for key, parse in schema.items() if key in raw})
    if "seed" in schema:
        if seed_override is not None:
            values["seed"] = seed_override
        if values["seed"] < 0:
            raise UsageError(f"seed must be non-negative, got {values['seed']!r}")
    return command(**values)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """``experiment run``: a fully validated experiment description."""

    family: Any
    eps: float
    p: float
    trials: int
    seed: int
    mode: Literal["fixed_x", "fixed_w"]
    delta: float | None = 0.0  # None means "auto": eps / (4 sqrt(d))
    # Sets no n (the exact Beta tail does); only theorem_bound_check reads it.
    jl_constant: float | None = None
    ambient_dim: int = DEFAULT_AMBIENT_DIM
    m_max: float = DEFAULT_NET_BUDGET
    tail_samples: int = 40
    tail_dims: tuple[int, ...] = (64, 128, 256, 512, 1024)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise UsageError(f"trials must be >= 1, got {self.trials!r}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise UsageError(f"eps must be positive, got {self.eps!r}")
        if not 0.0 < self.p < 1.0:
            raise UsageError(f"p must lie in (0, 1), got {self.p!r}")
        if self.jl_constant is not None and not self.jl_constant > 0.0:
            raise UsageError(f"jl_constant must be positive, got {self.jl_constant!r}")


def load_experiment_config(
    text: str, *, seed_override: int | None = None
) -> ExperimentConfig:
    """Parse and validate an experiment config; unknown keys are errors."""
    return load_config(text, ExperimentConfig, seed_override=seed_override)


@dataclass(frozen=True)
class NetBuildConfig:
    """``net build``: a class block, the resolution, and the budget."""

    family: Any
    eps1: float
    m_max: float = DEFAULT_NET_BUDGET
    ambient_dim: int = DEFAULT_AMBIENT_DIM  # used when dumping centers


@dataclass(frozen=True)
class JlCheckConfig:
    """``jl check``: ``seeds`` operator draws over ``m`` points in ``R^d``."""

    seed: int
    d: int = 512
    m: int = 64
    p: float = 0.5
    seeds: int = 200
    # Sets nothing (the exact Beta tail sets n); parsed so that configs
    # naming it still load.
    jl_constant: float | None = None

    def __post_init__(self) -> None:
        if self.jl_constant is not None and not self.jl_constant > 0.0:
            raise UsageError(f"jl_constant must be positive, got {self.jl_constant!r}")


@dataclass(frozen=True)
class EntropyScanConfig:
    """``entropy scan``: a class block, the resolutions, and the growth law."""

    family: Any
    eps_values: tuple[float, ...]
    model: Literal["power", "logsquare"]

    def __post_init__(self) -> None:
        if not all(eps > 0.0 for eps in self.eps_values):
            raise UsageError(f"eps_values must be positive, got {self.eps_values!r}")


@dataclass(frozen=True)
class TailfitConfig:
    """``tailfit``: a class block plus the fit and validation sizes."""

    family: Any
    seed: int
    tail_samples: int = ExperimentConfig.tail_samples
    tail_dims: tuple[int, ...] = ExperimentConfig.tail_dims
    validation_samples: int = 100
    ambient_dim: int = DEFAULT_AMBIENT_DIM
    reference_beta: float = 1.0
