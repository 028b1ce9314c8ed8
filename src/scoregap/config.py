"""Experiment configuration files.

A config is a single YAML document that either points at a CSV dataset
with grouping predicates, or lists prebuilt model entries (files or the
built-in disparity construction). Every setting that shapes the result
document lives here; the command line picks only its path and format.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np
import yaml

from .errors import ConfigError, IngestError, naming, opening
from .ingest import GroupPredicate, GroupingSpec, normalize_manifest
from .linalg import as_matrix

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


def _reject_unknown(doc: dict, known, message: str) -> None:
    """Raises ConfigError(message + the keys of `doc` outside `known`), sorted as text so that mixed types sort."""
    unknown = sorted(set(doc) - set(known), key=str)
    if unknown:
        raise ConfigError(f"{message}{unknown}")


def _fields(doc: object, where: str, required: tuple, optional: tuple = ()) -> list:
    """The values of the mapping `doc` at `required` then `optional`, None for an absent optional key; a
    ConfigError at path `where` when `doc` is not a mapping, lacks a required key or has an unknown one."""
    keys = required + optional
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a mapping with {'/'.join(keys)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ConfigError(f"{where}: missing {', '.join(missing)}")
    _reject_unknown(doc, keys, f"{where}: unknown keys ")
    return [doc.get(k) for k in keys]


def _items(value: object, key: str, items: str, read) -> tuple:
    """read(item, path) for each item of the list `value`, at path `key[i]`; () when `value` is null."""
    if value is None:
        return ()
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list of {items}")
    return tuple(read(item, f"{key}[{i}]") for i, item in enumerate(value))


def _parse_predicate(doc: object, where: str) -> GroupPredicate:
    column, op, value = _fields(doc, where, ("column", "op", "value"))
    column = _typed(column, f"{where}.column")
    op = _typed(op, f"{where}.op")
    with naming(where, IngestError):
        return GroupPredicate(column=column, op=op, value=tuple(value) if isinstance(value, list) else value)


def _parse_grouping(doc: object, where: str) -> GroupingSpec:
    name, group1, group2 = _fields(doc, where, ("name", "group1"), ("group2",))
    return GroupingSpec(
        name=_typed(name, f"{where}.name"),
        group1=_parse_predicate(group1, f"{where}.group1"),
        group2=None if group2 is None else _parse_predicate(group2, f"{where}.group2"),
    )


def _parse_model_entry(doc: object, where: str) -> ModelEntry:
    name, path, epsilon = _fields(doc, where, ("name",), ("path", "epsilon"))
    epsilon = _typed(epsilon, f"{where}.epsilon", (int, float, type(None)), "a number")
    if epsilon is not None and not abs(epsilon) <= sys.float_info.max:  # exact for ints; false for nan
        raise ConfigError(f"{where}.epsilon: expected a finite number, got {epsilon}")
    return ModelEntry(
        name=_typed(name, f"{where}.name"),
        path=_typed(path, f"{where}.path", (str, type(None))),
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
    with naming():
        return as_matrix(doc, where, square=True)


def _typed(value: object, field: str, kind=str, expected: str = "a string"):
    """value when it is a YAML value of `kind`, a bool only where `kind` is bool; `field` is its path."""
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{field}: expected {expected}, got {value!r}")
    return value


_KNOWN_KEYS = {
    "dataset", "encoding", "drop_columns", "groupings", "models", "rank",
    "costs", "wstar", "standardize", "seed",
}


def config_from_dict(doc: object) -> ExperimentConfig:
    # a null value means an absent key, except at rank, wstar, standardize and seed, which need their kind
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _reject_unknown(doc, _KNOWN_KEYS, "unknown config keys: ")

    encoding = doc.get("encoding")
    with naming("encoding", IngestError):
        normalize_manifest(encoding)
    costs = doc.get("costs")
    cost1, cost2 = (None, None) if costs is None else _fields(costs, "costs", (), ("group1", "group2"))
    # `seed` set the retired alignment sampler; it is still read and then
    # dropped because the benchmark's models workload writes `seed: 0`.
    # ROADMAP item 1 removes that line, and this key goes with it.
    seed = _typed(doc.get("seed", 0), "seed", int, "an integer")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    return ExperimentConfig(
        dataset=_typed(doc.get("dataset"), "dataset", (str, type(None))),
        encoding={} if encoding is None else dict(encoding),
        drop_columns=_items(doc.get("drop_columns"), "drop_columns", "column names", _typed),
        groupings=_items(doc.get("groupings"), "groupings", "groupings", _parse_grouping),
        models=_items(doc.get("models"), "models", "model entries", _parse_model_entry),
        rank=_typed(doc.get("rank", DEFAULT_RANK), "rank", int, "an integer"),
        cost1=_parse_cost(cost1, "costs.group1"),
        cost2=_parse_cost(cost2, "costs.group2"),
        wstar=_typed(doc.get("wstar", WSTAR_ONES), "wstar"),
        standardize=_typed(doc.get("standardize", False), "standardize", bool, "true or false"),
    )


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that rejects a mapping key given twice, where SafeLoader keeps the last value."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]  # a merged key may be overridden
        mapping = super().construct_mapping(node, deep)  # which rejects an unhashable key
        keys = [self.construct_object(key) for key in own]  # each one built already
        if len(set(keys)) < len(keys):
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise yaml.constructor.ConstructorError(None, None, f"found duplicate key {repeated!r}", node.start_mark)
        return mapping


def load_config(path: str) -> ExperimentConfig:
    try:  # `opening` reports a UnicodeDecodeError, which is a ValueError, before it gets here
        with opening(path, "config "), open(path, encoding="utf-8") as handle:
            doc = yaml.load(handle, Loader=_UniqueKeyLoader)  # from the handle, so a YAML error names the file
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # an integer too long to convert, deep nesting
        raise ConfigError(f"{path} is not valid YAML: {exc}") from None
    return config_from_dict(doc)
