"""JSON file formats for subspace families and constructed complements.

Floats are serialized through Python's shortest-repr encoding, which
round-trips float64 exactly, so save/load cycles are bit-stable and equal
seeds yield byte-identical files.  Output is strict JSON (RFC 8259): an
undefined fit is written as null, and any other non-finite float is an
error rather than a bare NaN token.

Input is strict JSON too, decoded by orjson with correctly rounded float
parsing: NaN and Infinity tokens, numbers that overflow float64 and bytes
that are not UTF-8 are "not valid JSON".  A family file is decoded member by
member: its top-level "normals" array is split into member spans, and each
member is decoded into its own float64 array, so the file's numbers never
exist as one tree of Python floats; SubspaceFamily.from_normals stacks the
members.  A document the split does not fit is decoded whole, with the same
result and the same errors.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import orjson

from .geometry import OrthonormalFrame, ValidationError
from .separator import (
    ComplementResult,
    SubspaceFamily,
    _profile,
    decay_fit_prefixes,
)


def _size(doc: dict, key: str) -> int:
    """doc[key], rejecting a float, a bool or a string rather than converting it."""
    value = doc[key]
    if type(value) is not int:
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return value


def family_from_dict(doc: dict):
    """Parse and validate a family document, whose normals are a list of
    blocks or a (J, k, n) array; returns (SubspaceFamily, labels)."""
    try:
        n = _size(doc, "dim")
        k = _size(doc, "codim")
        blocks = doc["normals"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed family document: {exc}") from exc
    if not isinstance(blocks, (list, np.ndarray)) or len(blocks) == 0:
        raise ValidationError("family document lists no normals")
    family = SubspaceFamily.from_normals(blocks)
    if (family.codim, family.ambient_dim) != (k, n):
        raise ValidationError(
            f"family normal blocks are {family.codim} x {family.ambient_dim}, "
            f"expected {k} x {n}"
        )
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(family):
            raise ValidationError("labels must match the number of members")
        labels = [str(l) for l in labels]
    return family, labels


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


#: Provenance of each profile a complement file stores.
CERTIFIED = "certified-by-construction"
MEASURED = "measured-by-svd"


def certificate_to_dict(deltas: np.ndarray, provenance: str, constants: dict) -> dict:
    """Document of a profile.  ``decay_fit`` is the whole profile's fit,
    the last prefix of decay_fit_prefixes; it is written for readers of the
    file (null where undefined) and not read back on load."""
    exponents, scales = decay_fit_prefixes(deltas)
    return {
        "deltas": [float(d) for d in deltas],
        "provenance": provenance,
        "constants": {str(k): float(v) for k, v in constants.items()},
        "decay_fit": {"exponent": _finite(float(exponents[-1])),
                      "scale": _finite(float(scales[-1]))},
    }


def complement_to_dict(result: ComplementResult) -> dict:
    return {
        "ambient_dim": result.complement.ambient_dim,
        "dim": result.complement.size,
        "basis": result.complement.vectors.tolist(),
        "certified": certificate_to_dict(result.certified, CERTIFIED, result.constants),
        "measured": certificate_to_dict(result.measured, MEASURED, {}),
        "rng_seed": int(result.rng_seed),
        "rejection_stats": {
            "attempted": result.rejection_stats.attempted,
            "accepted": result.rejection_stats.accepted,
        },
    }


def complement_from_dict(doc: dict):
    """Parse the span and certified profile of a complement document;
    returns (OrthonormalFrame, read-only certified deltas or None).  The
    other fields are written for readers of the file and not read back."""
    try:
        n = _size(doc, "ambient_dim")
        dim = _size(doc, "dim")
        basis = np.asarray(doc["basis"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed complement document: {exc}") from exc
    if basis.ndim == 1:
        basis = basis[None, :]
    if basis.shape != (dim, n):
        raise ValidationError(
            f"complement basis has shape {basis.shape}, expected ({dim}, {n})"
        )
    span = OrthonormalFrame(basis)
    certified = doc.get("certified")
    if certified is None:
        return span, None
    try:
        deltas = _profile(certified["deltas"])
        if np.any(deltas <= 0):
            raise ValidationError("certified deltas must be strictly positive")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed certificate: {exc}") from exc
    return span, deltas


def dump_json(doc: dict) -> str:
    """Deterministic strict JSON rendering (sorted keys, exact float
    round-trip); a non-finite float raises ValueError."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _parse(data: bytes, path) -> dict:
    """The JSON object that the bytes of file ``path`` hold."""
    try:
        doc = orjson.loads(data)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object at top level")
    return doc


_NORMALS = b'"normals"'
_WHITESPACE = b" \t\n\r"


def _member_spans(data: bytes, start: int):
    """([(begin, end), ...] of the members, end of the array) of the array
    opened by the '[' at data[start], walking from bracket to bracket; None
    unless every item is an array and one comma separates each pair."""
    find = data.find
    spans = []
    separator = b""
    pos = start + 1
    opening, closing = find(b"[", pos), find(b"]", pos)
    while 0 <= closing:
        if not 0 <= opening < closing:
            if data[pos:closing].strip(_WHITESPACE):
                return None
            return spans, closing + 1
        if data[pos:opening].strip(_WHITESPACE) != separator:
            return None
        begin, depth = opening, 1
        opening = find(b"[", opening + 1)
        while depth and 0 <= closing:
            if 0 <= opening < closing:
                depth += 1
                opening = find(b"[", opening + 1)
            else:
                depth -= 1
                pos = closing + 1
                closing = find(b"]", pos)
        if depth:
            return None
        spans.append((begin, pos))
        separator = b","
    return None


def _split_family(data: bytes):
    """The family document in ``data`` with its normals as the list of its
    members, each decoded on its own into a float64 array; None where the
    walk does not fit the document.

    The one literal "normals" key (no backslash outside the array, so no
    key is spelled with an escape) must open an array of numeric arrays
    with no string inside it.  The rest of the document is decoded with
    that array emptied, and its top-level "normals" must read [], which
    proves that the walk found the top-level value.  Only the bytes after
    the array can hold a second "normals", since the array holds no quote.
    """
    key = data.find(_NORMALS)
    if key < 0:
        return None
    start = data.find(b"[", key)
    if start < 0 or data[key + len(_NORMALS):start].strip(_WHITESPACE) != b":":
        return None
    walk = _member_spans(data, start)
    if walk is None or not walk[0]:
        return None
    spans, end = walk
    if (data.find(b'"', start, end) >= 0 or data.find(_NORMALS, end) >= 0
            or data.find(b"\\", 0, start) >= 0 or data.find(b"\\", end) >= 0):
        return None
    view = memoryview(data)
    try:
        doc = orjson.loads(data[:start] + b"[]" + data[end:])
        normals = [np.array(orjson.loads(view[begin:stop]), dtype=float)
                   for begin, stop in spans]
    except (json.JSONDecodeError, TypeError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("normals") != []:
        return None
    doc["normals"] = normals
    return doc


def load_family(path):
    """(SubspaceFamily, labels or None) of a family file; see
    family_from_dict."""
    data = Path(path).read_bytes()
    doc = _split_family(data) or _parse(data, path)
    del data  # freed before family_from_dict stacks the normals
    return family_from_dict(doc)


def load_complement(path):
    """(OrthonormalFrame, read-only certified deltas or None) of a complement
    file; see complement_from_dict."""
    return complement_from_dict(_parse(Path(path).read_bytes(), path))


def save_complement(path, result: ComplementResult) -> None:
    Path(path).write_text(dump_json(complement_to_dict(result)))


__all__ = [
    "family_from_dict",
    "certificate_to_dict",
    "complement_to_dict",
    "complement_from_dict",
    "dump_json",
    "load_family",
    "load_complement",
    "save_complement",
]
