"""Bitwise round-trippable JSON checkpoints for trained parameter sets."""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from ..errors import ConfigError, NumericsError


def _encode_params(params: dict) -> list:
    # a list, not a mapping: layer order is part of the parameters' contract
    # and JSON key sorting must not disturb it
    out = []
    for name, arr in params.items():
        little = np.ascontiguousarray(arr, dtype="<f8")
        out.append({
            "name": name,
            "shape": list(arr.shape),
            "data": base64.b64encode(little.tobytes()).decode("ascii"),
        })
    return out


def _decode_params(entries: list, path, key: str) -> dict:
    out = {}
    for entry in entries:
        name = entry["name"]
        raw = base64.b64decode(entry["data"], validate=True)
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        arr = arr.reshape(entry["shape"])
        if not np.isfinite(arr).all():
            raise NumericsError(f"{path}: model {key!r} layer {name!r} "
                                "contains non-finite values")
        out[name] = arr
    return out


def save_checkpoint(path, models: dict, config_hash: str, extra: dict | None = None):
    """Write {model key: parameters} plus the config hash as stable JSON."""
    doc = {
        "config_hash": config_hash,
        "models": {key: _encode_params(p) for key, p in sorted(models.items())},
    }
    if extra:
        doc["extra"] = extra
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path):
    """Read back (models, config_hash, extra).

    A file that is not a well-formed checkpoint raises ConfigError and a
    non-finite weight raises NumericsError, each naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        models = {key: _decode_params(entry, path, key)
                  for key, entry in doc["models"].items()}
        return models, doc["config_hash"], doc.get("extra", {})
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: malformed checkpoint "
                          f"({type(exc).__name__}: {exc})") from None
