"""Single-file JSON checkpoints.

A checkpoint is one indent-1 JSON document: the format version, the system
configuration (including the block length it was trained at), every weight
tensor by name and shape, and each batch norm's running statistics.

Version 3, the only version written, stores each tensor and each running
statistic as the base64 of its little-endian float32 bytes: a layer's
payload is its ``float32le`` string, a batch norm's ``mean`` and ``var`` are
such strings. The bytes are the system's float32 values, so a write / read /
write cycle is byte-identical and parameters survive exactly. Version 2 files
hold the same fields with every value a JSON number (a layer's ``values``
list); they still load, as float32, so values written as float64 load
rounded to the nearest float32. Loaded arrays are writable, C-contiguous
float32 either way.

Every malformed entry raises ``CheckpointError`` naming its field; so do
weights and running statistics that are not all finite numbers. The writer
refuses such values under the same field names, before it writes anything.
The writer fills a temporary file next to the target and renames it over the
target, so a write that fails leaves any checkpoint already there unchanged;
a file system error on either side is a ``CheckpointError`` naming the path.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import os

import numpy as np

from .errors import CheckpointError, ConfigError
from .layers import BatchNorm1D
from .model import CommSystem, SystemConfig
from .tensor import SYSTEM_DTYPE

FORMAT_VERSION = 3
# format version -> the key of a layer entry that holds its values
_VALUES_KEY = {2: "values", FORMAT_VERSION: "float32le"}

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(SystemConfig))
_NUMBER_TYPES = {int, float}  # what json.load returns for a number; bool is not one


def _float32le(array: np.ndarray) -> str:
    return base64.b64encode(array.astype("<f4").tobytes()).decode("ascii")


def save_checkpoint(system: CommSystem, path: str) -> None:
    """Write system to path. A non-finite weight or running statistic, which
    the loader would refuse, raises CheckpointError naming its field before
    anything is written; a file system error raises CheckpointError naming
    path. Either way a checkpoint already at path is kept."""
    arrays = [(f"layers[{name}].float32le", t.data) for name, t in system.named_parameters()]
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
            {"name": name, "shape": list(t.shape), "float32le": _float32le(t.data)}
            for name, t in system.named_parameters()
        ],
        "batchnorm_running_stats": {
            name: {"mean": _float32le(layer.running_mean), "var": _float32le(layer.running_var)}
            for name, layer in system.layers_of(BatchNorm1D)
        },
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
        raise


def _values(value, field: str, size: int, version: int) -> np.ndarray:
    """The `size` float32 values a field of a `version` checkpoint holds, as a
    new writable, C-contiguous array. CheckpointError naming field unless
    value is a list of finite JSON numbers (version 2) or the valid base64 of
    4 * size bytes of finite little-endian float32 values (version 3).
    Strings and booleans in a list, which numpy would convert, are refused by
    their type."""
    if version == 2:
        if not isinstance(value, list) or not set(map(type, value)) <= _NUMBER_TYPES:
            raise CheckpointError(f"field '{field}': not a list of numbers")
        try:
            with np.errstate(over="raise"):  # a float64 past the float32 range
                array = np.fromiter(value, dtype=SYSTEM_DTYPE, count=len(value))
        except (OverflowError, FloatingPointError) as exc:
            raise CheckpointError(f"field '{field}': not a list of numbers ({exc})") from None
        if array.size != size:
            raise CheckpointError(f"field '{field}': expected {size} values, got {array.size}")
    else:
        if not isinstance(value, str):
            raise CheckpointError(f"field '{field}': not a base64 string")
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise CheckpointError(f"field '{field}': not valid base64 ({exc})") from None
        if len(raw) != 4 * size:
            raise CheckpointError(f"field '{field}': expected {4 * size} bytes "
                                  f"({size} float32 values), got {len(raw)}")
        array = np.frombuffer(raw, dtype="<f4").astype(SYSTEM_DTYPE)
    if not np.isfinite(array).all():
        raise CheckpointError(f"field '{field}': holds a non-finite value")
    return array


def load_checkpoint(path: str) -> CommSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint root must be an object")

    version = doc.get("format_version")
    if type(version) is not int or version not in _VALUES_KEY:
        raise CheckpointError(
            f"field 'format_version': expected {FORMAT_VERSION} (or 2), got {version!r}")

    cfg_doc = doc.get("config")
    if not isinstance(cfg_doc, dict):
        raise CheckpointError("field 'config': missing or not an object")
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
    key = _VALUES_KEY[version]
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
        values = _values(entry.get(key), f"layers[{name}].{key}", target.size, version)
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
        layer.running_mean = _values(entry["mean"], f"batchnorm_running_stats.{name}.mean",
                                     layer.running_mean.size, version)
        layer.running_var = _values(entry["var"], f"batchnorm_running_stats.{name}.var",
                                    layer.running_var.size, version)

    return system
