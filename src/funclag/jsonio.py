"""Bit-exact JSON encoding of reals via hex-float strings.

Certificates must reload to identical floats, so every real is written
as ``float.hex()`` output.  Hex-float strings are unambiguous: no other
string field in the schemas starts with ``0x`` or ``-0x``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def is_real(value) -> bool:
    """A JSON number or numpy real scalar; a bool (an int subclass) or a string is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _all_reals(value) -> bool:
    """True for a real or nested lists of reals, checked entry by entry (``[0.5, true]``
    converts to a float array); a numpy array passes on an integer or float dtype."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(_all_reals(v) for v in value)
    return is_real(value)


def real_array(value, name: str) -> np.ndarray:
    """The one reader for numbers from outside the program: a number or rectangular nested
    lists of them as a float array.  Anything else is a ValueError naming ``name``."""
    if not _all_reals(value):
        raise ValueError(f"{name} must hold numbers, not booleans, strings or other values")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # a ragged list, or an int past float range
        raise ValueError(f"{name} must be a number or a rectangular list of numbers") from exc
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    return arr


def encode_reals(obj):
    """Recursively replace floats (and numpy arrays) by hex-float strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, np.floating):
        return float.hex(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return encode_reals(obj.tolist())
    if isinstance(obj, dict):
        return {key: encode_reals(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_reals(value) for value in obj]
    raise TypeError(f"cannot encode {type(obj).__name__}")


def decode_reals(obj):
    """Inverse of :func:`encode_reals`."""
    if isinstance(obj, str) and (obj.startswith("0x") or obj.startswith("-0x")):
        return float.fromhex(obj)
    if isinstance(obj, dict):
        return {key: decode_reals(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_reals(value) for value in obj]
    return obj


def sha256_of(obj) -> str:
    """SHA-256 of the canonical JSON text: sorted keys, hex-float reals."""
    text = json.dumps(encode_reals(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
