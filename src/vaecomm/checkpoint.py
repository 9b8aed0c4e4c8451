"""Single-file JSON checkpoints.

Floats are serialized through Python's shortest round-trip repr, so a
write / read / write cycle is byte-identical and parameters survive exactly.
Values load as float32, the system's dtype; the float32 values a system
writes convert back exactly, and files that hold float64 values (written
before the system switched to float32) load rounded to the nearest float32.

Every malformed entry raises ``CheckpointError`` naming its field; so do
weights and running statistics that are not all finite numbers. The writer
refuses such values under the same field names, before it opens the file.

Version 2 stores the block length the system was trained at. Version 1
files, which did not, still load, at the block length they always loaded
with (``V1_BLOCK_LENGTH``), and warn that it was assumed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings

import numpy as np

from .errors import CheckpointError, ConfigError
from .layers import BatchNorm1D
from .model import CommSystem, SystemConfig
from .tensor import SYSTEM_DTYPE

FORMAT_VERSION = 2
V1_BLOCK_LENGTH = 100

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(SystemConfig))
_NUMBER_TYPES = {int, float}  # what json.load returns for a number; bool is not one


def save_checkpoint(system: CommSystem, path: str) -> None:
    """Write system to path. A non-finite weight or running statistic, which
    the loader would refuse, raises CheckpointError naming its field before
    the file is opened, so a checkpoint already at path is kept."""
    arrays = [(f"layers[{name}].values", t.data) for name, t in system.named_parameters()]
    for name, layer in system.layers_of(BatchNorm1D):
        arrays += [(f"batchnorm_running_stats.{name}.mean", layer.running_mean),
                   (f"batchnorm_running_stats.{name}.var", layer.running_var)]
    for field, array in arrays:
        if not np.isfinite(array).all():
            raise CheckpointError(f"field '{field}': holds a non-finite value; not saved")
    cfg = system.config
    doc = {
        "format_version": FORMAT_VERSION,
        "config": {name: getattr(cfg, name) for name in _CONFIG_FIELDS},
        "layers": [
            {"name": name, "shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in system.named_parameters()
        ],
        "batchnorm_running_stats": {
            name: {"mean": layer.running_mean.tolist(), "var": layer.running_var.tolist()}
            for name, layer in system.layers_of(BatchNorm1D)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _finite_values(value, field: str) -> np.ndarray:
    """value as a float32 array; CheckpointError naming field unless it is a
    list of finite JSON numbers. Strings and booleans, which numpy would
    convert, are refused by their type."""
    if not isinstance(value, list) or not set(map(type, value)) <= _NUMBER_TYPES:
        raise CheckpointError(f"field '{field}': not a list of numbers")
    try:
        array = np.fromiter(value, dtype=SYSTEM_DTYPE, count=len(value))
    except OverflowError as exc:
        raise CheckpointError(f"field '{field}': not a list of numbers ({exc})") from None
    if not np.isfinite(array).all():
        raise CheckpointError(f"field '{field}': holds a non-finite value")
    return array


def load_checkpoint(path: str) -> CommSystem:
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint root must be an object")

    version = doc.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(
            f"field 'format_version': expected {FORMAT_VERSION} (or 1), got {version!r}")

    cfg_doc = doc.get("config")
    if not isinstance(cfg_doc, dict):
        raise CheckpointError("field 'config': missing or not an object")
    if version == 1:
        cfg_doc = {**cfg_doc, "block_length": V1_BLOCK_LENGTH}
        warnings.warn(f"checkpoint {path} is format version 1, which does not store the "
                      f"block length; assuming L={V1_BLOCK_LENGTH}", stacklevel=2)
    missing = [f for f in _CONFIG_FIELDS if f not in cfg_doc]
    if missing:
        raise CheckpointError(f"field 'config': missing keys {missing}")
    try:
        config = SystemConfig(**{name: cfg_doc[name] for name in _CONFIG_FIELDS})
    except (ConfigError, TypeError) as exc:
        raise CheckpointError(f"field 'config': {exc}") from exc

    system = CommSystem(config)
    params = dict(system.named_parameters())

    layer_docs = doc.get("layers")
    if not isinstance(layer_docs, list):
        raise CheckpointError("field 'layers': missing or not a list")
    seen = set()
    for entry in layer_docs:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name not in params:
            raise CheckpointError(f"field 'layers': unknown parameter {name!r}")
        if name in seen:
            raise CheckpointError(f"field 'layers': duplicate parameter {name!r}")
        seen.add(name)
        target = params[name]
        shape = entry.get("shape")
        if not isinstance(shape, list) or tuple(shape) != target.shape:
            raise CheckpointError(
                f"field 'layers[{name}].shape': expected {list(target.shape)}, got {shape!r}"
            )
        values = _finite_values(entry.get("values", []), f"layers[{name}].values")
        if values.size != target.size:
            raise CheckpointError(
                f"field 'layers[{name}].values': expected {target.size} values, got {values.size}"
            )
        target.data = values.reshape(target.shape)
    absent = sorted(set(params) - seen)
    if absent:
        raise CheckpointError(f"field 'layers': missing parameters {absent}")

    stats = doc.get("batchnorm_running_stats")
    if not isinstance(stats, dict):
        raise CheckpointError("field 'batchnorm_running_stats': missing or not an object")
    for name, layer in system.layers_of(BatchNorm1D):
        entry = stats.get(name)
        if not isinstance(entry, dict) or "mean" not in entry or "var" not in entry:
            raise CheckpointError(f"field 'batchnorm_running_stats.{name}': needs 'mean' and 'var'")
        mean = _finite_values(entry["mean"], f"batchnorm_running_stats.{name}.mean")
        var = _finite_values(entry["var"], f"batchnorm_running_stats.{name}.var")
        if mean.shape != layer.running_mean.shape or var.shape != layer.running_var.shape:
            raise CheckpointError(f"field 'batchnorm_running_stats.{name}': wrong length")
        layer.running_mean = mean
        layer.running_var = var

    return system
