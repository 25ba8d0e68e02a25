"""Subspace geometry over R^n: orthonormal frames and degrees of transversality.

Vectors are plain 1-D numpy arrays of float64.  A subspace is held through
an orthonormal basis: a candidate complement C as an ``OrthonormalFrame``,
the one subspace type, and a member V of codimension k through an
orthonormal basis of its orthogonal complement (its "normal frame"), so
the degree of transversality of C to V reduces to the action of a small
k x k matrix.  One stacked Gram-Schmidt kernel, with one rank rule,
orthonormalizes every (m, k, n) stack of blocks: for ``orthonormalize``
(independent vectors to a frame of as many rows, or an error naming their
rank), for family loading and for the translation suite's spans.
``separator.adapt_basis`` keeps LAPACK's raw Householder factors instead,
which its lift applies without forming the frame.  The smallest-singular-
value step of the degrees of transversality and the Gram and unit-norm
checks, which every module shares, live here.

All operations are pure: inputs are validated and frozen on construction
(copied unless already read-only), and nothing is mutated afterwards.

Every random draw comes from ``_keyed_rng(seed, *key)``, a counter-based
stream addressed by the master seed and an integer key (Salmon et al.,
SC 2011).  No two streams of one command share a key:

    ()         bulk samples, shadow oracle
    (1,)       det floors
    (c,)       translation chunk c
    (7,)       shifts
    (l, t)     construction: recursion level l, trial t
    (n, k, J)  random family
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default relative tolerance for rank decisions and orthonormality checks.
DEFAULT_TOL = 1e-10

#: float64 cells per block array of every streamed kernel, which bound memory.
_BLOCK_CELLS = 1 << 17


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ConstructionError(RuntimeError):
    """A randomized construction could not be completed."""


def _keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The stream of (seed, key...); _keyed_rng(seed) is default_rng(seed)."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


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


def _gram_defects(frames: np.ndarray) -> np.ndarray:
    """max |F F^T - I| of a (k, n) frame, or of every frame of a (..., k, n)
    stack; inf or NaN where it overflows or is non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = frames @ np.swapaxes(frames, -1, -2)
        return np.abs(gram - np.eye(frames.shape[-2])).max(axis=(-2, -1), initial=0.0)


def _check_unit(arr: np.ndarray, what: str) -> None:
    """Reject a 2-D array with a row whose norm is off 1 by more than
    DEFAULT_TOL, naming the worst row."""
    norms = np.linalg.norm(arr, axis=1)
    if np.any(np.abs(norms - 1.0) > DEFAULT_TOL):
        bad = int(np.argmax(np.abs(norms - 1.0))) + 1
        raise ValidationError(f"{what} {bad} is not unit (norm {float(norms[bad - 1])!r})")


@dataclass(frozen=True)
class OrthonormalFrame:
    """Orthonormal basis of a subspace of R^n: the rows of a (size, n) array.

    The package's one subspace type.  Needs at least one and at most n rows,
    finite entries, and pairwise inner products within DEFAULT_TOL of the
    identity.
    """

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError(f"frame must be nonempty and 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("frame has non-finite entries")
        m, n = arr.shape
        if m > n:
            raise ValidationError(f"frame of {m} vectors cannot fit in R^{n}")
        err = _gram_defects(arr)
        if err > DEFAULT_TOL:
            raise ValidationError(f"vectors are not orthonormal: max Gram deviation {err:.3e}")
        object.__setattr__(self, "vectors", _freeze(arr))

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def _gram_schmidt_frames(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt frames of a (m, k, n) stack of blocks.

    Classical Gram-Schmidt with one re-orthogonalization pass (CGS2), run on
    the whole stack at once: twice, row j of every block loses its
    components along the frame rows before it, all taken from the same row
    by one einsum pair; then it is normalized.  On numerically full-rank
    blocks the frames are orthonormal to working accuracy, as Householder
    QR's are (Giraud, Langou & Rozloznik, Numer. Math. 101, 2005).  Each
    block is first scaled by a power of two, which is exact and keeps its
    entries below 1 in magnitude, so 2^s V and V get the same frame.
    Returns (frames, independent): row j of a block is independent where
    its residual norm exceeds DEFAULT_TOL times the block's largest row
    norm.  A dependent row is zeroed, so later rows are never projected
    onto noise, and a block is orthonormal exactly where all its rows are
    independent.
    """
    m, k, n = stack.shape
    exponents = np.frexp(np.abs(stack).reshape(m, k * n).max(axis=1))[1]
    frames = np.ldexp(stack, -exponents[:, None, None])
    floor = DEFAULT_TOL * np.sqrt(np.einsum("mkn,mkn->mk", frames, frames).max(axis=1))
    independent = np.empty((m, k), dtype=bool)
    for j in range(k):
        row, done = frames[:, j], frames[:, :j]
        for _ in range(2 if j else 0):  # row 0 has no rows before it
            row -= np.einsum("mj,mjn->mn", np.einsum("mjn,mn->mj", done, row), done)
        residual = np.sqrt(np.einsum("mn,mn->m", row, row))
        independent[:, j] = residual > floor
        np.divide(row, residual[:, None], out=row, where=independent[:, j, None])
        row[~independent[:, j]] = 0.0
    return frames, independent


def orthonormalize(vectors) -> OrthonormalFrame:
    """Orthonormal frame with the span of m independent rows, one row per input row.

    The Gram-Schmidt frame of ``_gram_schmidt_frames``.  When r < m rows
    are independent by its rule, ValidationError names the rank r < m; a
    shorter frame is never returned.  Inputs that already form an
    orthonormal frame are returned unchanged, which keeps repeated
    normalization bit-stable.
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
        raise ValidationError("non-finite entries")
    m, n = arr.shape
    if m <= n and _gram_defects(arr) <= DEFAULT_TOL:
        return OrthonormalFrame(arr)
    frames, independent = _gram_schmidt_frames(arr[None])
    r = int(np.count_nonzero(independent))
    if r < m:
        raise ValidationError(f"rank {r} < {m}: vectors are linearly dependent")
    return OrthonormalFrame(frames[0])


def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of a (..., k, k) stack.

    For k <= 3 the cofactor expansion along the first row runs on the k^2
    component arrays, each made contiguous once; every monomial passes
    through at most 2k - 1 roundings, so the error is at most
    gamma_{2k-1} per(|M|) <= gamma_{2k-1} ||M||_F^k, and k = 1 is exact.
    For k >= 4 it is LAPACK's LU (np.linalg.det).
    """
    k = M.shape[-1]
    if k > 3:
        return np.linalg.det(M)
    m = [[np.ascontiguousarray(M[..., i, j]) for j in range(k)] for i in range(k)]
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


#: Largest singular values outside [2^-450, 2^450] send a 2 x 2 block to
#: LAPACK: inside, no product of two entries over- or underflows.
_CLOSED_FORM_RANGE = (2.0 ** -450, 2.0 ** 450)


def _sigma_min_2x2(M: np.ndarray) -> np.ndarray:
    """Smallest singular values of a (..., 2, 2) stack, in closed form.

    With M = [[a, b], [c, d]], sigma_max = (hypot(a + d, c - b) + hypot(a - d,
    b + c)) / 2, a sum of two nonnegative terms, and sigma_min = |ad - bc| /
    sigma_max.  With u = 2^-53, sigma_max carries a relative error of about
    5u and |ad - bc| an absolute one of at most u (|ad| + |bc|) + u |det| <=
    2u sigma_max^2, so sigma_min is within 8u sigma_max of the exact value,
    the accuracy of LAPACK's SVD.  The naive sqrt((F - sqrt(F^2 - 4 det^2)) /
    2) with F = ||M||_F^2 cancels where sigma_min is near sigma_max.  A zero
    block gives 0 exactly; blocks whose sigma_max leaves _CLOSED_FORM_RANGE
    take LAPACK's value.
    """
    a, b = np.ascontiguousarray(M[..., 0, 0]), np.ascontiguousarray(M[..., 0, 1])
    c, d = np.ascontiguousarray(M[..., 1, 0]), np.ascontiguousarray(M[..., 1, 1])
    with np.errstate(over="ignore", invalid="ignore"):  # such blocks go to LAPACK
        smax = np.hypot(a + d, c - b)
        smax += np.hypot(a - d, b + c)
        smax *= 0.5
        det = np.abs(a * d - b * c)  # _det's expression, on the copies in hand
        s = np.divide(det, smax, out=np.zeros_like(smax), where=smax > 0.0)
    lo, hi = _CLOSED_FORM_RANGE
    far = (smax > 0.0) & ((smax < lo) | (smax > hi))
    if np.any(far):
        s[far] = np.linalg.svd(M[far], compute_uv=False)[:, -1]
    return s


def degrees_of_transversality(normals: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Degree of transversality of rowspace(basis) to every member of a stack.

    ``normals`` is a (J, k, n) stack of orthonormal normal frames N_j of
    members V_j and ``basis`` a (..., k, n) stack of orthonormal bases B of
    candidates C.  Entry j is min over unit x in C of d(x, V_j), the smallest
    singular value of N_j B^T, clipped to [0, 1]: it vanishes iff C fails to
    complement V_j and equals 1 iff C is the orthogonal complement of V_j.
    All (..., J) values come from one stacked product.  At k = 1 they are
    |N_j b^T| (LAPACK's 1 x 1 SVD agrees, but rescales products below
    sqrt(tiny) / eps, about 6.7e-139, and can then be 1 ulp off); at k = 2
    they come from _sigma_min_2x2's closed form, within 8u sigma_max of the
    exact value (u = 2^-53); at k >= 3 one stacked SVD gives them.  That
    step is _degrees, which the translation suite applies to products it
    forms as one GEMM per sample, so its deltas agree with these to a few
    units in the last place, not bit for bit.
    """
    return _degrees(normals @ np.swapaxes(basis, -1, -2)[..., None, :, :])


def _degrees(prods: np.ndarray) -> np.ndarray:
    """Smallest singular values of a (..., k, k) stack of products N_j B^T,
    clipped to [0, 1]: |.| at k = 1, _sigma_min_2x2 at k = 2 and one stacked
    SVD at k >= 3."""
    k = prods.shape[-1]
    if k == 1:
        s = np.abs(prods[..., 0, 0])
    elif k == 2:
        s = _sigma_min_2x2(prods)
    else:
        s = np.linalg.svd(prods, compute_uv=False)[..., -1]
    return np.clip(s, 0.0, 1.0)


__all__ = [
    "DEFAULT_TOL",
    "ConstructionError",
    "OrthonormalFrame",
    "ValidationError",
    "degrees_of_transversality",
    "orthonormalize",
]
