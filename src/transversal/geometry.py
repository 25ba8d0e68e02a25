"""Subspace geometry over R^n: orthonormal frames and degrees of transversality.

Vectors are plain 1-D numpy arrays of float64.  A subspace of codimension k
is stored through an orthonormal basis of its orthogonal complement (its
"normal frame"), so the degree of transversality of a candidate complement
reduces to the action of a small k x n matrix.

All operations are pure: inputs are validated and frozen on construction
(copied unless already read-only), and nothing is mutated afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default relative tolerance for rank decisions and orthonormality checks.
DEFAULT_TOL = 1e-10


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ConstructionError(RuntimeError):
    """A randomized construction could not be completed."""


def as_vector(x) -> np.ndarray:
    """Coerce to a finite, nonempty 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector has non-finite entries")
    return v


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only float64 array: read-only float64 input is shared, as a
    family's normals and their slices are; anything else is copied."""
    if isinstance(arr, np.ndarray) and arr.dtype == np.float64 and not arr.flags.writeable:
        return arr
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OrthonormalFrame:
    """Ordered orthonormal vectors, stored as rows of a (size, ambient_dim) array.

    Pairwise inner products must match the identity within DEFAULT_TOL.
    """

    vectors: np.ndarray
    ambient_dim: int

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if arr.ndim != 2:
            raise ValidationError(f"frame must be a 2-D array, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("frame has non-finite entries")
        if arr.shape[1] != self.ambient_dim:
            raise ValidationError(
                f"frame vectors have dimension {arr.shape[1]}, expected {self.ambient_dim}"
            )
        if arr.shape[0] > self.ambient_dim:
            raise ValidationError(
                f"frame of {arr.shape[0]} vectors cannot fit in R^{self.ambient_dim}"
            )
        if arr.shape[0] > 0:
            gram = arr @ arr.T
            err = np.max(np.abs(gram - np.eye(arr.shape[0])))
            if err > DEFAULT_TOL:
                raise ValidationError(
                    f"vectors are not orthonormal: max Gram deviation {err:.3e}"
                )
        object.__setattr__(self, "vectors", _freeze(arr))

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class SpanSubspace:
    """Subspace C of R^n given by an orthonormal basis (rows of a dim x n array)."""

    ambient_dim: int
    dim: int
    basis_frame: OrthonormalFrame

    def __post_init__(self):
        if not 1 <= self.dim <= self.ambient_dim:
            raise ValidationError(
                f"dim must satisfy 1 <= dim <= n, got dim={self.dim}, n={self.ambient_dim}"
            )
        if self.basis_frame.ambient_dim != self.ambient_dim:
            raise ValidationError("basis frame lives in the wrong ambient dimension")
        if self.basis_frame.size != self.dim:
            raise ValidationError(
                f"basis frame has {self.basis_frame.size} vectors, expected {self.dim}"
            )

    @classmethod
    def from_frame(cls, frame: OrthonormalFrame) -> "SpanSubspace":
        return cls(frame.ambient_dim, frame.size, frame)

    @property
    def basis(self) -> np.ndarray:
        return self.basis_frame.vectors


def orthonormalize(vectors) -> OrthonormalFrame:
    """Modified Gram-Schmidt with re-orthogonalization.

    Rank-deficient inputs are dropped: the output frame size equals the
    numerical rank at tolerance DEFAULT_TOL relative to the largest input norm.
    Inputs that already form an orthonormal frame are returned unchanged,
    which keeps repeated normalization bit-stable.
    """
    try:
        arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    except ValueError as exc:
        raise ValidationError("inputs must share a common dimension") from exc
    if arr.size == 0 or arr.shape[0] == 0:
        raise ValidationError("cannot orthonormalize an empty set of vectors")
    if arr.ndim != 2:
        raise ValidationError("inputs must share a common dimension")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("input vectors have non-finite entries")
    m, n = arr.shape

    if m <= n:
        gram = arr @ arr.T
        if np.max(np.abs(gram - np.eye(m))) <= DEFAULT_TOL:
            return OrthonormalFrame(arr, n)

    scale = float(np.max(np.linalg.norm(arr, axis=1)))
    if scale == 0.0:
        raise ValidationError("all input vectors are zero")
    rows: list[np.ndarray] = []
    for v in arr:
        r = v.astype(float)
        for _ in range(2):  # second pass restores orthogonality lost to cancellation
            for q in rows:
                r = r - np.dot(q, r) * q
        norm = float(np.linalg.norm(r))
        if norm > DEFAULT_TOL * scale:
            rows.append(r / norm)
    if not rows:
        raise ValidationError("input vectors are all dependent at the given tolerance")
    return OrthonormalFrame(np.array(rows), n)


def degrees_of_transversality(normals: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Degree of transversality of rowspace(basis) to every member of a stack.

    ``normals`` is a (J, k, n) stack of orthonormal normal frames N_j of
    members V_j and ``basis`` a (k, n) orthonormal basis B of a candidate C.
    Entry j is min over unit x in C of d(x, V_j), the smallest singular
    value of N_j B^T, clipped to [0, 1]: it vanishes iff C fails to
    complement V_j and equals 1 iff C is the orthogonal complement of V_j.
    All J values come from one stacked product and one stacked SVD.
    """
    s = np.linalg.svd(normals @ basis.T, compute_uv=False)[:, -1]
    return np.clip(s, 0.0, 1.0)


__all__ = [
    "DEFAULT_TOL",
    "ValidationError",
    "ConstructionError",
    "as_vector",
    "OrthonormalFrame",
    "SpanSubspace",
    "orthonormalize",
    "degrees_of_transversality",
]
