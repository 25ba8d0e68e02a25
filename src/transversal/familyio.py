"""JSON file formats for subspace families and constructed complements.

Floats are serialized through Python's shortest-repr encoding, which
round-trips float64 exactly, so save/load cycles are bit-stable and equal
seeds yield byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import OrthonormalFrame, SpanSubspace, ValidationError
from .separator import (
    ComplementResult,
    DecayFit,
    RejectionStats,
    SeparationCertificate,
    SubspaceFamily,
)


def _rows(arr: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.atleast_2d(arr)]


def family_to_dict(family: SubspaceFamily, labels=None) -> dict:
    doc = {
        "dim": family.ambient_dim,
        "codim": family.codim,
        "normals": family.normals.tolist(),
    }
    if labels is not None:
        labels = [str(l) for l in labels]
        if len(labels) != len(family):
            raise ValidationError("labels must match the number of members")
        doc["labels"] = labels
    return doc


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


def certificate_to_dict(cert: SeparationCertificate) -> dict:
    return {
        "deltas": [float(d) for d in cert.deltas],
        "provenance": cert.provenance,
        "constants": {str(k): float(v) for k, v in cert.constants.items()},
        "decay_fit": {
            "exponent": float(cert.decay_fit.exponent),
            "scale": float(cert.decay_fit.scale),
        },
    }


def certificate_from_dict(doc: dict) -> SeparationCertificate:
    try:
        fit = doc.get("decay_fit") or {}
        return SeparationCertificate(
            np.asarray(doc["deltas"], dtype=float),
            str(doc["provenance"]),
            {str(k): float(v) for k, v in (doc.get("constants") or {}).items()},
            DecayFit(float(fit.get("exponent", "nan")),
                     float(fit.get("scale", "nan"))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed certificate: {exc}") from exc


def complement_to_dict(result: ComplementResult) -> dict:
    return {
        "ambient_dim": result.complement.ambient_dim,
        "dim": result.complement.dim,
        "basis": _rows(result.complement.basis),
        "certified": certificate_to_dict(result.certificate),
        "measured": certificate_to_dict(result.measured),
        "rng_seed": int(result.rng_seed),
        "rejection_stats": {
            "attempted": result.rejection_stats.attempted,
            "accepted": result.rejection_stats.accepted,
        },
    }


@dataclass(frozen=True)
class ComplementDoc:
    """Loaded complement file: the span plus optional provenance payload."""

    span: SpanSubspace
    certified: SeparationCertificate | None
    measured: SeparationCertificate | None
    rng_seed: int | None
    rejection_stats: RejectionStats | None


def complement_from_dict(doc: dict) -> ComplementDoc:
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
    span = SpanSubspace.from_frame(OrthonormalFrame(basis, n))
    certified = doc.get("certified")
    measured = doc.get("measured")
    stats = doc.get("rejection_stats")
    try:
        rng_seed = None if doc.get("rng_seed") is None else int(doc["rng_seed"])
        counts = None if stats is None else (int(stats["attempted"]),
                                             int(stats["accepted"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed complement document: {exc!r}") from exc
    return ComplementDoc(
        span=span,
        certified=None if certified is None else certificate_from_dict(certified),
        measured=None if measured is None else certificate_from_dict(measured),
        rng_seed=rng_seed,
        rejection_stats=None if counts is None else RejectionStats(*counts),
    )


def dump_json(doc: dict) -> str:
    """Deterministic JSON rendering (sorted keys, exact float round-trip)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def load_complement(path) -> ComplementDoc:
    return complement_from_dict(_read_json(path))


def save_complement(path, result: ComplementResult) -> None:
    Path(path).write_text(dump_json(complement_to_dict(result)))


__all__ = [
    "family_to_dict",
    "family_from_dict",
    "certificate_to_dict",
    "certificate_from_dict",
    "complement_to_dict",
    "complement_from_dict",
    "ComplementDoc",
    "dump_json",
    "load_family",
    "load_complement",
    "save_complement",
]
