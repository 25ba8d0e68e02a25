"""Subspace geometry over R^n: orthonormal frames, distances, transversality.

Vectors are plain 1-D numpy arrays of float64.  A subspace of codimension k
is stored through an orthonormal basis of its orthogonal complement (its
"normal frame"), so point-to-subspace distances and degrees of
transversality reduce to the action of a small k x n matrix.

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
    """Read-only float64 array: read-only float64 input is shared, as views
    into a frozen family are; anything else is copied."""
    if isinstance(arr, np.ndarray) and arr.dtype == np.float64 and not arr.flags.writeable:
        return arr
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OrthonormalFrame:
    """Ordered orthonormal vectors, stored as rows of a (size, ambient_dim) array.

    Pairwise inner products must match the identity within ``ortho_tol``.
    """

    vectors: np.ndarray
    ambient_dim: int
    ortho_tol: float = DEFAULT_TOL

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
        if not (0 < self.ortho_tol < 1):
            raise ValidationError("ortho_tol must lie in (0, 1)")
        if arr.shape[0] > 0:
            gram = arr @ arr.T
            err = np.max(np.abs(gram - np.eye(arr.shape[0])))
            if err > self.ortho_tol:
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
class CodimSubspace:
    """Subspace V of R^n with 1 <= codim < n, given by a normal frame of V-perp."""

    ambient_dim: int
    codim: int
    normal_frame: OrthonormalFrame

    def __post_init__(self):
        if not 1 <= self.codim < self.ambient_dim:
            raise ValidationError(
                f"codim must satisfy 1 <= k < n, got k={self.codim}, n={self.ambient_dim}"
            )
        if self.normal_frame.ambient_dim != self.ambient_dim:
            raise ValidationError("normal frame lives in the wrong ambient dimension")
        if self.normal_frame.size != self.codim:
            raise ValidationError(
                f"normal frame has {self.normal_frame.size} vectors, expected {self.codim}"
            )

    @classmethod
    def from_normals(cls, normals, tol: float = DEFAULT_TOL) -> "CodimSubspace":
        """Build from spanning normal vectors; they must be linearly independent."""
        arr = np.atleast_2d(np.asarray(normals, dtype=float))
        frame = orthonormalize(arr, tol=tol)
        if frame.size < arr.shape[0]:
            raise ValidationError("normal vectors are linearly dependent")
        return cls(arr.shape[1], arr.shape[0], frame)

    @property
    def normals(self) -> np.ndarray:
        """The k x n array whose rows span V-perp."""
        return self.normal_frame.vectors

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.codim


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

    @classmethod
    def from_vectors(cls, vectors, tol: float = DEFAULT_TOL) -> "SpanSubspace":
        arr = np.atleast_2d(np.asarray(vectors, dtype=float))
        frame = orthonormalize(arr, tol=tol)
        if frame.size < arr.shape[0]:
            raise ValidationError("spanning vectors are linearly dependent")
        return cls.from_frame(frame)

    @property
    def basis(self) -> np.ndarray:
        return self.basis_frame.vectors


def orthonormalize(vectors, tol: float = DEFAULT_TOL) -> OrthonormalFrame:
    """Modified Gram-Schmidt with re-orthogonalization.

    Rank-deficient inputs are dropped: the output frame size equals the
    numerical rank at tolerance ``tol`` relative to the largest input norm.
    Inputs that already form an orthonormal frame are returned unchanged,
    which keeps repeated normalization bit-stable.
    """
    if not (0 < tol < 1):
        raise ValidationError("tol must lie in (0, 1)")
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
        if np.max(np.abs(gram - np.eye(m))) <= tol:
            return OrthonormalFrame(arr, n, ortho_tol=tol)

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
        if norm > tol * scale:
            rows.append(r / norm)
    if not rows:
        raise ValidationError("input vectors are all dependent at the given tolerance")
    return OrthonormalFrame(np.array(rows), n, ortho_tol=tol)


def distance_to_subspace(x, V: CodimSubspace) -> float:
    """Euclidean distance from x to V: the norm of x's normal-frame coefficients."""
    x = as_vector(x)
    if x.size != V.ambient_dim:
        raise ValidationError(
            f"vector of dimension {x.size} vs subspace in R^{V.ambient_dim}"
        )
    return float(np.linalg.norm(V.normals @ x))


def project_onto_subspace(x, V: CodimSubspace) -> np.ndarray:
    """Orthogonal projection of x onto V."""
    x = as_vector(x)
    if x.size != V.ambient_dim:
        raise ValidationError(
            f"vector of dimension {x.size} vs subspace in R^{V.ambient_dim}"
        )
    N = V.normals
    return x - N.T @ (N @ x)


def degree_of_transversality(C: SpanSubspace, V: CodimSubspace) -> float:
    """min over unit x in C of d(x, V); equals the smallest singular value of N B^T.

    Here N is V's normal frame (k x n) and B is C's basis frame (k x n).
    The value lies in [0, 1]; it vanishes iff C fails to complement V and
    equals 1 iff C is the orthogonal complement of V.
    """
    if C.ambient_dim != V.ambient_dim:
        raise ValidationError("subspaces live in different ambient dimensions")
    if C.dim != V.codim:
        raise ValidationError(
            f"complement candidate has dim {C.dim}, expected codim {V.codim}"
        )
    return float(degrees_of_transversality(V.normals[None], C.basis)[0])


def degrees_of_transversality(normals: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Degree of transversality of rowspace(basis) to every member of a stack.

    ``normals`` is a (J, k, n) stack of orthonormal normal frames N_j and
    ``basis`` a (k, n) orthonormal basis B.  Entry j is the smallest
    singular value of N_j B^T (see degree_of_transversality), clipped to
    [0, 1]; all J values come from one stacked product and one stacked SVD.
    """
    s = np.linalg.svd(normals @ basis.T, compute_uv=False)[:, -1]
    return np.clip(s, 0.0, 1.0)


def subspace_basis(V: CodimSubspace) -> OrthonormalFrame:
    """Orthonormal basis of V itself (the null space of the normal frame)."""
    _, _, vt = np.linalg.svd(V.normals, full_matrices=True)
    return OrthonormalFrame(vt[V.codim:], V.ambient_dim)


def is_member(V: CodimSubspace, x, tol: float | None = None) -> bool:
    """Whether x lies in V, up to tol * max(||x||, 1)."""
    x = as_vector(x)
    if tol is None:
        tol = V.normal_frame.ortho_tol
    return distance_to_subspace(x, V) <= tol * max(float(np.linalg.norm(x)), 1.0)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform draw from the unit sphere of R^dim."""
    while True:
        g = rng.standard_normal(dim)
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            return g / norm


def pythagoras_residual(x, V: CodimSubspace) -> float:
    """Relative defect of ||x||^2 = d(x, V)^2 + ||P_V x||^2; ~0 for exact arithmetic."""
    x = as_vector(x)
    nx2 = float(np.dot(x, x))
    if nx2 == 0.0:
        return 0.0
    d2 = distance_to_subspace(x, V) ** 2
    p2 = float(np.dot(project_onto_subspace(x, V), project_onto_subspace(x, V)))
    return abs(nx2 - d2 - p2) / nx2


__all__ = [
    "DEFAULT_TOL",
    "ValidationError",
    "ConstructionError",
    "as_vector",
    "OrthonormalFrame",
    "CodimSubspace",
    "SpanSubspace",
    "orthonormalize",
    "distance_to_subspace",
    "project_onto_subspace",
    "degree_of_transversality",
    "degrees_of_transversality",
    "subspace_basis",
    "is_member",
    "random_unit_vector",
    "pythagoras_residual",
]
