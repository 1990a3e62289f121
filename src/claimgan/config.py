"""Run configuration: a JSON file validated field by field.

Unknown keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .data import is_distribution
from .fileio import parse_json, read_lines
from .trigan import TrainConfig
from .variants import STEP_FUNCTIONS

VARIANTS = (*STEP_FUNCTIONS, "baseline")

# data kind -> the DataSpec fields a config may set for it
DATA_KINDS = {
    "toy-mixture": {"kind", "n_per_class", "dim", "means", "cov_scale", "data_seed"},
    "corpus": {"kind", "path", "embed_dim", "embed_seed"},
    "dataset": {"kind", "path"},
}


def _is_integer(v) -> bool:
    # int64 range: every integer field ends up in numpy
    return isinstance(v, int) and not isinstance(v, bool) and -(2**63) <= v < 2**63


def _is_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


def _is_numbers(v, n: int | None = None) -> bool:
    return isinstance(v, list) and (n is None or len(v) == n) and all(map(_is_number, v))


# type name -> (test, what the error message asks for)
_TYPE_TESTS = {
    "integer": (_is_integer, "an integer"),
    "number": (_is_number, "a finite number"),
    "string": (lambda v: isinstance(v, str), "a string"),
}


def _shown(v) -> str:
    return json.dumps(v)[:40]


def _type_problems(obj: dict, types: dict, prefix: str = "") -> list[str]:
    return [
        f"{prefix}{k}: must be {_TYPE_TESTS[types[k]][1]}, got {_shown(v)}"
        for k, v in obj.items()
        if k in types and not _TYPE_TESTS[types[k]][0](v)
    ]


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending fields."""


def _kind_fields(kind) -> set:
    """The DataSpec fields a config may set for data kind `kind`."""
    allowed = DATA_KINDS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise ConfigError(f"data.kind: unknown kind {kind!r}")
    return allowed


@dataclass
class DataSpec:
    kind: str  # a key of DATA_KINDS
    n_per_class: int = 5000
    dim: int = 2
    means: list = field(default_factory=lambda: [[-2.0, -2.0], [2.0, 2.0]])
    cov_scale: float = 1.0
    data_seed: int = 0
    path: str = ""
    embed_dim: int = 64
    embed_seed: int = 0

    def __post_init__(self):
        _kind_fields(self.kind)
        problems = []
        if self.kind == "toy-mixture":
            if self.n_per_class < 0:
                problems.append("data.n_per_class: must be nonnegative")
            if self.dim < 1:
                problems.append("data.dim: must be positive")
            elif len(self.means) != 2 or any(len(row) != self.dim for row in self.means):
                problems.append("data.means: must be two rows of data.dim numbers")
            if self.cov_scale <= 0:
                problems.append("data.cov_scale: must be positive")
            if self.data_seed < 0:
                problems.append("data.data_seed: must be nonnegative")
        elif not self.path:
            problems.append("data.path: required")
        if self.kind == "corpus" and self.embed_dim < 8:
            problems.append("data.embed_dim: must be at least 8")
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass
class RunConfig(TrainConfig):
    """The training settings of TrainConfig plus the data, model and
    evaluation-protocol settings of a run."""

    data: DataSpec = field(kw_only=True)
    iterations: int = 2000
    eval_every: int = 10
    variant: str = "proposed"
    noise_dim: int = 8
    hidden: int = 64
    repeats: int = 5
    split: tuple = (0.8, 0.1, 0.1)
    split_seed: int = 0
    priors: tuple | None = None  # override for (pi_p, pi_n)

    def __post_init__(self):
        problems = self.problems()
        if problems:
            raise ConfigError("; ".join(problems))

    def problems(self) -> list[str]:
        problems = super().problems()
        if self.variant not in VARIANTS:
            problems.append(f"variant: must be one of {VARIANTS}")
        if self.noise_dim < 1:
            problems.append("noise_dim: must be positive")
        if self.hidden < 1:
            problems.append("hidden: must be positive")
        if self.repeats < 1:
            problems.append("repeats: must be at least 1")
        if not is_distribution(self.split):
            problems.append("split: three nonnegative fractions summing to 1")
        if self.split_seed < 0:
            problems.append("split_seed: must be nonnegative")
        if self.priors is not None and not is_distribution(self.priors):
            problems.append("priors: two nonnegative values summing to 1")
        return problems

    def train_config(self, seed: int | None = None) -> TrainConfig:
        """The training settings alone, under `seed` if one is given."""
        settings = {f.name: getattr(self, f.name) for f in fields(TrainConfig)}
        if seed is not None:
            settings["seed"] = seed
        return TrainConfig(**settings)


# JSON type of each scalar field, from its annotation (a string under
# postponed annotations); the other fields have their own checks below
_JSON_TYPES = {"int": "integer", "float": "number", "str": "string"}
_DATA_TYPES = {f.name: _JSON_TYPES[f.type] for f in fields(DataSpec) if f.type in _JSON_TYPES}
_TOP_TYPES = {f.name: _JSON_TYPES[f.type] for f in fields(RunConfig) if f.type in _JSON_TYPES}
_TOP_KEYS = {f.name for f in fields(RunConfig)}


def _parse_data(obj) -> DataSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("data: must be an object with a 'kind' field")
    kind = obj["kind"]
    unknown = set(obj) - _kind_fields(kind)
    if unknown:
        raise ConfigError(f"data: unknown keys {sorted(unknown)} for kind {kind!r}")
    problems = _type_problems(obj, _DATA_TYPES, "data.")
    means = obj.get("means", [])
    if not (isinstance(means, list) and all(_is_numbers(r) for r in means)):
        problems.append(f"data.means: must be an array of arrays of numbers, got {_shown(means)}")
    if problems:
        raise ConfigError("; ".join(problems))
    return DataSpec(**obj)


def parse_config(doc: dict) -> RunConfig:
    """Check every field's type, then its value; raise ConfigError naming
    each offending field."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "data" not in doc:
        raise ConfigError("data: required")
    data = _parse_data(doc["data"])
    problems = _type_problems(doc, _TOP_TYPES)
    if "split" in doc and not _is_numbers(doc["split"], 3):
        problems.append(f"split: must be an array of three numbers, got {_shown(doc['split'])}")
    if doc.get("priors") is not None and not _is_numbers(doc["priors"], 2):
        problems.append(
            f"priors: must be null or an array of two numbers, got {_shown(doc['priors'])}"
        )
    rates = doc.get("learning_rates", {})
    if not (isinstance(rates, dict) and all(map(_is_number, rates.values()))):
        problems.append("learning_rates: must be an object of numbers")
    if problems:
        raise ConfigError("; ".join(problems))
    settings = {
        k: tuple(v) if k in ("split", "priors") and v is not None else v
        for k, v in doc.items()
        if k != "data"
    }
    return RunConfig(data=data, **settings)


def load_config(path) -> RunConfig:
    return parse_config(parse_json("".join(read_lines(path)), path, error=ConfigError))
