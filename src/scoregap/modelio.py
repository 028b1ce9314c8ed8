"""Reading population model files.

A model file is a JSON object carrying the true-quality direction, both
cost matrices, and both projections as dense arrays. Projections may
instead be derived from raw sample matrices. A dense projection becomes
an orthonormal basis once, on load. The reader is strict: a key outside
MODEL_KEYS or a `schema_version` other than MODEL_SCHEMA_VERSION is an
error, and every validation error names the offending field.
"""

from __future__ import annotations

import json
import os
import pickle  # numpy imports it already, so it costs no start-up time
from typing import List, Optional, Union

import numpy as np

from .errors import ConfigError, ScoregapError, captured, naming, opening
from .agents import CostMatrix, Subgroup
from .linalg import ProjectionMatrix, as_matrix, as_vector, subspace_projection
from .principal import PopulationModel

MODEL_SCHEMA_VERSION = 1
MODEL_KEYS = frozenset({
    "schema_version", "names", "w_star", "cost1", "cost2",
    "projection1", "projection2", "data1", "data2", "rank",
})
ARRAY_KEYS = ("w_star", "cost1", "cost2", "projection1", "projection2", "data1", "data2")


def _field_array(doc: dict, field: str, read=as_matrix) -> Optional[np.ndarray]:
    """doc[field] through `read` (as_vector or as_matrix); None when absent or null."""
    if doc.get(field) is None:
        return None
    with naming():
        return read(doc[field], field)


def _projection_from_doc(doc: dict, gid: int, rank: Optional[int]) -> ProjectionMatrix:
    proj_field = f"projection{gid}"
    data_field = f"data{gid}"
    matrix = _field_array(doc, proj_field)
    data = _field_array(doc, data_field)
    if matrix is not None:
        if data is not None:
            raise ConfigError(f"{data_field}: set alongside {proj_field}; give only one")
        with naming(proj_field, (ScoregapError, ValueError)):
            return ProjectionMatrix.from_matrix(matrix)
    if data is None:
        raise ConfigError(f"{proj_field}: missing (provide {proj_field} or {data_field})")
    k = rank if rank is not None else min(data.shape)
    with naming(data_field):
        return subspace_projection(data, k)


def model_from_dict(doc: Union[dict, ConfigError]) -> PopulationModel:
    """Build a PopulationModel from a parsed model document; raises the error read_model_files left in its place."""
    if isinstance(doc, ScoregapError):
        raise doc
    if not isinstance(doc, dict):
        raise ConfigError("model file must contain a JSON object")
    unknown = set(doc) - MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    version = doc.get("schema_version", MODEL_SCHEMA_VERSION)
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {MODEL_SCHEMA_VERSION}, got {version!r}")
    w_star = _field_array(doc, "w_star", as_vector)
    if w_star is None:
        raise ConfigError("w_star: missing")
    dim = w_star.shape[0]
    rank = doc.get("rank")
    if rank is not None and (isinstance(rank, bool) or not isinstance(rank, int) or rank < 1):
        raise ConfigError(f"rank: must be a positive integer, got {rank!r}")
    if rank is not None and doc.get("data1") is None and doc.get("data2") is None:
        raise ConfigError("rank: applies only to data1/data2, and neither is given")
    names = doc.get("names", ["group1", "group2"])
    if not (isinstance(names, (list, tuple)) and len(names) == 2
            and all(isinstance(name, str) for name in names)):
        raise ConfigError(f"names: expected two strings, got {names!r}")
    groups = []
    for gid in (1, 2):
        proj = _projection_from_doc(doc, gid, rank)
        if proj.dim != dim:
            raise ConfigError(
                f"projection{gid}: dimension {proj.dim} does not match w_star dimension {dim}"
            )
        field = f"cost{gid}"
        cost = CostMatrix.from_spec(_field_array(doc, field), dim, field, "w_star dimension")
        groups.append(Subgroup(name=names[gid - 1], cost=cost, projection=proj))
    return PopulationModel(group1=groups[0], group2=groups[1], w_star=w_star)


def _unique_keys(pairs: List[tuple]) -> dict:
    """The object `pairs` spell, or a ValueError for a key given twice, where json keeps the last value."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate key {next(key for key in keys if keys.count(key) > 1)!r}")
    return dict(pairs)


def read_model_file(path: str):
    """The JSON document at `path`, each list under ARRAY_KEYS a float array where np.asarray takes it."""
    try:  # `opening` reports a UnicodeDecodeError, which is a ValueError, before it gets here
        with opening(path, "model file "), open(path, encoding="utf-8-sig") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer too long to convert, deep nesting
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    for key in ARRAY_KEYS if isinstance(doc, dict) else ():
        if isinstance(doc.get(key), list):
            try:
                doc[key] = np.asarray(doc[key], dtype=float)
            except (TypeError, ValueError, OverflowError):
                pass  # as_vector/as_matrix make the same call first, so the list fails there as before
    return doc


def load_model(path: str) -> PopulationModel:
    return model_from_dict(read_model_file(path))


def read_model_files(paths: List[str]) -> List[Union[dict, ConfigError]]:
    """`read_model_file` of each path, or its ConfigError. With n = min(len(paths), usable CPUs) >= 2,
    forked child w parses paths[w::n], then pickles its list in one write; it runs no BLAS call."""
    n = min(len(paths), len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if n < 2 or not hasattr(os, "fork"):
        return [captured(read_model_file, path) for path in paths]
    pids, pipes = [], []
    try:
        for w in range(n):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as sink:  # the parent's copy closes at once
                pids.append(os.fork())
                if pids[-1] == 0:
                    try:
                        for pipe in pipes:  # then a write to a pipe the parent has closed fails at once
                            pipe.close()
                        sink.write(pickle.dumps([captured(read_model_file, p) for p in paths[w::n]], pickle.HIGHEST_PROTOCOL))
                        sink.flush()
                    finally:
                        os._exit(0)  # the parent learns of a failure from what the pipe lacks
        try:
            parts = [pickle.load(pipe) for pipe in pipes]
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError("a model-file reader exited before it sent its documents") from None
    finally:
        for pipe in pipes:
            pipe.close()  # first: no child holds a read end, so a child blocked on a full pipe gets EPIPE
        for pid in pids:
            os.waitpid(pid, 0)
    return [parts[i % n][i // n] for i in range(len(paths))]
