"""Reading and writing population model files.

A model file is a JSON document carrying the true-quality direction, both
cost matrices, and both projections as dense arrays. Projections may
instead be derived from raw sample matrices. A dense projection becomes
an orthonormal basis once, on load. Validation errors name the offending
field so malformed files are diagnosable.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .errors import ConfigError, ScoregapError
from .agents import CostMatrix, Subgroup
from .linalg import ProjectionMatrix, subspace_projection
from .principal import PopulationModel

MODEL_SCHEMA_VERSION = 1


def _field_array(doc: dict, field: str, ndim: int) -> Optional[np.ndarray]:
    if field not in doc or doc[field] is None:
        return None
    try:
        arr = np.asarray(doc[field], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: not a numeric array ({exc})") from None
    if arr.ndim != ndim:
        raise ConfigError(f"{field}: expected a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{field}: contains non-finite values")
    return arr


def _projection_from_doc(doc: dict, gid: int, rank: Optional[int]) -> ProjectionMatrix:
    proj_field = f"projection{gid}"
    data_field = f"data{gid}"
    matrix = _field_array(doc, proj_field, 2)
    if matrix is not None:
        try:
            return ProjectionMatrix.from_matrix(matrix)
        except (ScoregapError, ValueError) as exc:
            raise ConfigError(f"{proj_field}: {exc}") from None
    data = _field_array(doc, data_field, 2)
    if data is None:
        raise ConfigError(f"{proj_field}: missing (provide {proj_field} or {data_field})")
    k = rank if rank is not None else min(data.shape)
    try:
        return subspace_projection(data, k)
    except ScoregapError as exc:
        raise ConfigError(f"{data_field}: {exc}") from None


def _cost_from_doc(doc: dict, gid: int, dim: int) -> CostMatrix:
    field = f"cost{gid}"
    matrix = _field_array(doc, field, 2)
    if matrix is None:
        return CostMatrix.identity(dim)
    try:
        cost = CostMatrix(matrix)
    except ScoregapError as exc:
        raise ConfigError(f"{field}: {exc}") from None
    if cost.dim != dim:
        raise ConfigError(f"{field}: dimension {cost.dim} does not match w_star dimension {dim}")
    return cost


def model_from_dict(doc: dict) -> PopulationModel:
    """Build a PopulationModel from a parsed model document."""
    if not isinstance(doc, dict):
        raise ConfigError("model file must contain a JSON object")
    w_star = _field_array(doc, "w_star", 1)
    if w_star is None:
        raise ConfigError("w_star: missing")
    dim = w_star.shape[0]
    rank = doc.get("rank")
    if rank is not None and (isinstance(rank, bool) or not isinstance(rank, int) or rank < 1):
        raise ConfigError(f"rank: must be a positive integer, got {rank!r}")
    names = doc.get("names", ["group1", "group2"])
    if not (isinstance(names, (list, tuple)) and len(names) == 2):
        raise ConfigError(f"names: expected two entries, got {names!r}")
    groups = []
    for gid in (1, 2):
        proj = _projection_from_doc(doc, gid, rank)
        if proj.dim != dim:
            raise ConfigError(
                f"projection{gid}: dimension {proj.dim} does not match w_star dimension {dim}"
            )
        cost = _cost_from_doc(doc, gid, dim)
        groups.append(Subgroup(name=str(names[gid - 1]), cost=cost, projection=proj))
    try:
        return PopulationModel(group1=groups[0], group2=groups[1], w_star=w_star)
    except ScoregapError as exc:
        raise ConfigError(str(exc)) from None


def model_to_dict(model: PopulationModel) -> dict:
    """Serialize a PopulationModel to the model-file document shape."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "names": [model.group1.name, model.group2.name],
        "w_star": model.w_star.tolist(),
        "cost1": model.group1.cost.matrix.tolist(),
        "cost2": model.group2.cost.matrix.tolist(),
        "projection1": model.group1.projection.matrix.tolist(),
        "projection2": model.group2.projection.matrix.tolist(),
    }


def load_model(path: str) -> PopulationModel:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot open model file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return model_from_dict(doc)

