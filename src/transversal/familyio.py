"""JSON file formats for subspace families and constructed complements.

Floats are serialized through Python's shortest-repr encoding, which
round-trips float64 exactly, so save/load cycles are bit-stable and equal
seeds yield byte-identical files.  Output is strict JSON (RFC 8259): an
undefined fit is written as null, and any other non-finite float is an
error rather than a bare NaN token.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .geometry import OrthonormalFrame, ValidationError
from .separator import (
    ComplementResult,
    SubspaceFamily,
    _profile,
    decay_fit_prefixes,
)


def family_to_dict(family: SubspaceFamily) -> dict:
    return {
        "dim": family.ambient_dim,
        "codim": family.codim,
        "normals": family.normals.tolist(),
    }


def family_from_dict(doc: dict):
    """Parse and validate a family document; returns (SubspaceFamily, labels)."""
    try:
        n = int(doc["dim"])
        k = int(doc["codim"])
        blocks = doc["normals"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed family document: {exc}") from exc
    if not isinstance(blocks, list) or not blocks:
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
        n = int(doc["ambient_dim"])
        dim = int(doc["dim"])
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


def _read_json(path) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object at top level")
    return doc


def load_family(path):
    return family_from_dict(_read_json(path))


def load_complement(path):
    """(OrthonormalFrame, read-only certified deltas or None) of a complement
    file; see complement_from_dict."""
    return complement_from_dict(_read_json(path))


def save_complement(path, result: ComplementResult) -> None:
    Path(path).write_text(dump_json(complement_to_dict(result)))


__all__ = [
    "family_to_dict",
    "family_from_dict",
    "certificate_to_dict",
    "complement_to_dict",
    "complement_from_dict",
    "dump_json",
    "load_family",
    "load_complement",
    "save_complement",
]
