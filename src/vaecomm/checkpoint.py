"""Single-file JSON checkpoints.

Floats are serialized through Python's shortest round-trip repr, so a
write / read / write cycle is byte-identical and parameters survive exactly.

Version 2 stores the block length the system was trained at. Version 1
files, which did not, still load, at the block length they always loaded
with (``V1_BLOCK_LENGTH``), and warn that it was assumed.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np

from .errors import CheckpointError, ConfigError
from .layers import BatchNorm1D
from .model import CommSystem, SystemConfig

FORMAT_VERSION = 2
V1_BLOCK_LENGTH = 100

_CONFIG_FIELDS = ("k", "n", "latent_multiplier", "hidden_filters", "beta", "channel_kind",
                  "block_length", "seed")


def save_checkpoint(system: CommSystem, path: str) -> None:
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
        if name not in params:
            raise CheckpointError(f"field 'layers': unknown parameter {name!r}")
        if name in seen:
            raise CheckpointError(f"field 'layers': duplicate parameter {name!r}")
        seen.add(name)
        target = params[name]
        shape = tuple(entry.get("shape", ()))
        if shape != target.shape:
            raise CheckpointError(
                f"field 'layers[{name}].shape': expected {target.shape}, got {shape}"
            )
        values = np.asarray(entry.get("values", []), dtype=np.float64)
        if values.size != target.size:
            raise CheckpointError(
                f"field 'layers[{name}].values': expected {target.size} values, got {values.size}"
            )
        target.data = values.reshape(shape)
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
        mean = np.asarray(entry["mean"], dtype=np.float64)
        var = np.asarray(entry["var"], dtype=np.float64)
        if mean.shape != layer.running_mean.shape or var.shape != layer.running_var.shape:
            raise CheckpointError(f"field 'batchnorm_running_stats.{name}': wrong length")
        layer.running_mean = mean
        layer.running_var = var

    return system
