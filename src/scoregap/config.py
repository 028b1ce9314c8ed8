"""Experiment configuration files.

A config is a single YAML document that either points at a CSV dataset
with grouping predicates, or lists prebuilt model entries (files or the
built-in disparity construction). Every knob the runner honours lives
here; command-line flags override individual fields.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np
import yaml

from .errors import ConfigError, IngestError, ScoregapError
from .ingest import GroupPredicate, GroupingSpec, normalize_manifest
from .linalg import as_matrix

CONFIG_SCHEMA_VERSION = 1

DEFAULT_RANK = 5

WSTAR_ONES = "ones"


@dataclass(frozen=True)
class ModelEntry:
    """One prebuilt population: a model file, or the disparity example."""

    name: str
    path: Optional[str] = None
    epsilon: Optional[float] = None

    def __post_init__(self):
        if (self.path is None) == (self.epsilon is None):
            raise ConfigError(
                f"model entry {self.name!r}: exactly one of path/epsilon is required"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one analyze run needs.

    Exactly one of `dataset` (CSV mode, with groupings) or `models`
    (prebuilt mode) is set. wstar is "ones", "fit:COLUMN" (least-squares
    fit against that outcome column), or "vector:FILE".
    """

    dataset: Optional[str] = None
    encoding: Dict[str, object] = field(default_factory=dict)
    drop_columns: Tuple[str, ...] = ()
    groupings: Tuple[GroupingSpec, ...] = ()
    models: Tuple[ModelEntry, ...] = ()
    rank: int = DEFAULT_RANK
    cost1: Union[None, float, np.ndarray] = None
    cost2: Union[None, float, np.ndarray] = None
    wstar: str = WSTAR_ONES
    standardize: bool = False
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        if (self.dataset is None) == (len(self.models) == 0):
            raise ConfigError("config must set exactly one of dataset/models")
        if self.dataset is not None and not self.groupings:
            raise ConfigError("dataset mode requires at least one grouping")
        if self.models:
            # these shape the features a dataset is projected from; a model file has its own
            dataset_only = {
                "encoding": bool(self.encoding),
                "drop_columns": bool(self.drop_columns),
                "costs.group1": self.cost1 is not None,
                "costs.group2": self.cost2 is not None,
                "wstar": self.wstar != WSTAR_ONES,
                "standardize": self.standardize,
                "rank": self.rank != DEFAULT_RANK,
            }
            named = [key for key, is_set in dataset_only.items() if is_set]
            if named:
                raise ConfigError(
                    f"{', '.join(named)}: applies only to a dataset config, not to models"
                )
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if not (
            self.wstar == WSTAR_ONES
            or self.wstar.startswith("fit:")
            or self.wstar.startswith("vector:")
        ):
            raise ConfigError(
                f"wstar must be 'ones', 'fit:COLUMN', or 'vector:FILE', got {self.wstar!r}"
            )
        names = [g.name for g in self.groupings] + [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ConfigError("grouping/model names must be unique")

    def override(self, **kwargs) -> "ExperimentConfig":
        """Copy with non-None overrides applied (CLI flags)."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **updates) if updates else self


def _parse_predicate(doc: object, where: str) -> GroupPredicate:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a mapping with column/op/value")
    missing = [k for k in ("column", "op", "value") if k not in doc]
    if missing:
        raise ConfigError(f"{where}: missing {', '.join(missing)}")
    value = doc["value"]
    if isinstance(value, list):
        value = tuple(value)
    column = _string(doc["column"], f"{where}.column")
    op = _string(doc["op"], f"{where}.op")
    try:
        return GroupPredicate(column=column, op=op, value=value)
    except IngestError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_grouping(doc: object, idx: int) -> GroupingSpec:
    where = f"groupings[{idx}]"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a mapping")
    if "name" not in doc or "group1" not in doc:
        raise ConfigError(f"{where}: name and group1 are required")
    extra = set(doc) - {"name", "group1", "group2"}
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    group2 = None
    if doc.get("group2") is not None:
        group2 = _parse_predicate(doc["group2"], f"{where}.group2")
    return GroupingSpec(
        name=_string(doc["name"], f"{where}.name"),
        group1=_parse_predicate(doc["group1"], f"{where}.group1"),
        group2=group2,
    )


def _parse_model_entry(doc: object, idx: int) -> ModelEntry:
    where = f"models[{idx}]"
    if not isinstance(doc, dict) or "name" not in doc:
        raise ConfigError(f"{where}: expected a mapping with a name")
    extra = set(doc) - {"name", "path", "epsilon"}
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    epsilon = doc.get("epsilon")
    if epsilon is not None and (isinstance(epsilon, bool) or not isinstance(epsilon, (int, float))):
        raise ConfigError(f"{where}.epsilon: expected a number, got {epsilon!r}")
    if epsilon is not None and not abs(epsilon) <= sys.float_info.max:  # exact for ints; false for nan
        raise ConfigError(f"{where}.epsilon: expected a finite number, got {epsilon}")
    return ModelEntry(
        name=_string(doc["name"], f"{where}.name"),
        path=_string(doc.get("path"), f"{where}.path", nullable=True),
        epsilon=None if epsilon is None else float(epsilon),
    )


def _parse_cost(doc: object, where: str) -> Union[None, float, np.ndarray]:
    """None for identity, a float for scale * identity, or a dense matrix."""
    if doc is None or doc == "identity":
        return None
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        if not 0 < doc <= sys.float_info.max:  # exact for ints; false for nan
            raise ConfigError(f"{where}: scale must be a positive finite number, got {doc}")
        return float(doc)
    if isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a matrix, 'identity', or a positive number")
    try:
        return as_matrix(doc, where, square=True)
    except ScoregapError as exc:
        raise ConfigError(str(exc)) from None


def _integer(doc: dict, key: str, default: int) -> int:
    """doc[key] when it is a YAML integer (not a bool); default when absent."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _string(value: object, field: str, nullable: bool = False) -> Optional[str]:
    """value when it is a YAML string (or null, when `nullable`); `field` is its path."""
    if not isinstance(value, str) and not (nullable and value is None):
        raise ConfigError(f"{field}: expected a string, got {value!r}")
    return value


_KNOWN_KEYS = {
    "dataset", "encoding", "drop_columns", "groupings", "models", "rank",
    "costs", "wstar", "standardize", "seed", "out", "format",
}


def config_from_dict(doc: object) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    encoding = doc.get("encoding") or {}
    try:
        normalize_manifest(encoding)
    except Exception as exc:
        raise ConfigError(f"encoding: {exc}") from None

    costs = doc.get("costs") or {}
    if not isinstance(costs, dict):
        raise ConfigError("costs: expected a mapping with group1/group2")
    bad = set(costs) - {"group1", "group2"}
    if bad:
        raise ConfigError(f"costs: unknown keys {sorted(bad)}")

    groupings = tuple(
        _parse_grouping(g, i) for i, g in enumerate(doc.get("groupings") or [])
    )
    models = tuple(
        _parse_model_entry(m, i) for i, m in enumerate(doc.get("models") or [])
    )

    drop = doc.get("drop_columns") or []
    if not isinstance(drop, list):
        raise ConfigError("drop_columns: expected a list of column names")
    standardize = doc.get("standardize", False)
    if not isinstance(standardize, bool):
        raise ConfigError(f"standardize: expected true or false, got {standardize!r}")
    # `seed` set the retired alignment sampler; it is still read and then
    # dropped because the benchmark's models workload writes `seed: 0`.
    # ROADMAP item 1 removes that line, and this key goes with it.
    seed = _integer(doc, "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    return ExperimentConfig(
        dataset=_string(doc.get("dataset"), "dataset", nullable=True),
        encoding=dict(encoding),
        drop_columns=tuple(_string(c, f"drop_columns[{i}]") for i, c in enumerate(drop)),
        groupings=groupings,
        models=models,
        rank=_integer(doc, "rank", DEFAULT_RANK),
        cost1=_parse_cost(costs.get("group1"), "costs.group1"),
        cost2=_parse_cost(costs.get("group2"), "costs.group2"),
        wstar=_string(doc.get("wstar", WSTAR_ONES), "wstar"),
        standardize=standardize,
        out=_string(doc.get("out"), "out", nullable=True),
        format=_string(doc.get("format", "json"), "format"),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot open config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from None
    return config_from_dict(doc)
