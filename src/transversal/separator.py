"""Constructive common complements with certified transversality decay.

Given a finite family V_1, ..., V_J of codimension-k subspaces of R^n, this
module builds a single k-dimensional subspace C transversal to every member,
together with a per-index certificate delta_j > 0 such that every unit
x in C keeps distance at least delta_j from V_j.

The engine is one rejection sampler with provable per-draw acceptance
probability >= 1/2, run on two boxes:

* the shrinking box prod_j [-j^-2, j^-2] in coordinates adapted to the
  ordered normals, yielding bounds BOX_CONSTANT * j^-5;
* the cube [-1,1]^n, away from J > n hyperplanes at once, yielding the
  bound 1/(2 J n) after normalization.

Codimension k >= 2 is handled recursively: a complement for the relaxed
family (last normal dropped) is extended by one more certified direction,
and the two certificates compose through a planar two-point separation
inequality losing a factor 1/sqrt(5) per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    ConstructionError,
    OrthonormalFrame,
    ValidationError,
    _check_unit,
    _freeze,
    _gram_defects,
    _gram_schmidt_frames,
    _keyed_rng,
    as_vector,
    degrees_of_transversality,
    orthonormalize,
)

#: Per-index acceptance threshold scale for the shrinking-box sampler;
#: the rejected slabs then cover at most half the box volume.
RAW_MARGIN = 3.0 / math.pi ** 2

#: Supremum of ||y||_2 over the box with halfwidths j^-2 (sqrt of zeta(4)).
NORM_CAP = math.pi ** 2 / math.sqrt(90.0)

#: Certified profile scale c = 3 * sqrt(90) / pi^4 ~= 0.29218.
BOX_CONSTANT = RAW_MARGIN / NORM_CAP

#: Loss factor per composition level: min-norm over a line through two
#: separated points in the Euclidean plane.
LINE_CONSTANT = 1.0 / math.sqrt(5.0)

DEFAULT_MAX_TRIES = 64

#: Slack allowed when checking that measured profiles dominate certified ones.
DOMINANCE_TOL = 1e-9


def _stack_blocks(normal_blocks) -> np.ndarray:
    """Writeable (J, k, n) float64 copy of a sequence of normal blocks.

    A 1-D block is a single normal.  Blocks that do not stack as one array
    are parsed one at a time, so an error names the first bad member.
    """
    try:
        arr = np.array(normal_blocks, dtype=float)
    except (TypeError, ValueError):
        arr = None  # ragged or not numeric
    if arr is not None and arr.ndim in (2, 3):
        return arr[:, None, :] if arr.ndim == 2 else arr
    blocks = []
    for idx, block in enumerate(normal_blocks, start=1):
        try:
            b = np.atleast_2d(np.asarray(block, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"family member {idx}: normals are not numeric: {exc}") from exc
        if b.ndim != 2:
            raise ValidationError(f"family member {idx}: normal block is not 1-D or 2-D")
        if blocks and b.shape != blocks[0].shape:
            raise ValidationError(
                f"family member {idx} has a normal block of shape {b.shape}, "
                f"expected {blocks[0].shape}")
        blocks.append(b)
    return np.array(blocks)


def _check_family_shape(arr: np.ndarray) -> None:
    """Raise unless arr is a (J, k, n) stack with J >= 1 and 1 <= k < n."""
    if arr.shape[:1] == (0,):
        raise ValidationError("family must contain at least one subspace")
    if arr.ndim != 3:
        raise ValidationError(
            f"family normals must form a (J, k, n) array, got shape {arr.shape}")
    _, k, n = arr.shape
    if not 1 <= k < n:
        raise ValidationError(f"codim must satisfy 1 <= k < n, got k={k}, n={n}")


@dataclass(frozen=True, eq=False)
class SubspaceFamily:
    """Finite ordered family of J codimension-k subspaces of R^n.

    The members' orthonormal normal frames are held as one read-only
    float64 array ``normals`` of shape (J, k, n); every frame must be
    orthonormal within DEFAULT_TOL.
    """

    normals: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.normals, dtype=float)
        _check_family_shape(arr)
        defects = _gram_defects(arr)
        bad = np.flatnonzero(~(defects <= DEFAULT_TOL))
        if bad.size:
            raise ValidationError(
                f"family member {bad[0] + 1}: normals are not orthonormal "
                f"(max Gram deviation {defects[bad[0]]:.3e})")
        object.__setattr__(self, "normals", _freeze(arr))

    @classmethod
    def from_normals(cls, normal_blocks) -> "SubspaceFamily":
        """Family from a sequence of J blocks of k linearly independent normals.

        The (J, k, n) shape is checked first.  One stacked Gram check then
        finds the blocks that are not orthonormal within DEFAULT_TOL; the
        others keep their bytes.  The failing blocks are orthonormalized by
        one stacked Gram-Schmidt call, orthonormalize's kernel, so each gets
        the frame orthonormalize gives it.  The first that is non-finite or
        has fewer than k independent rows by orthonormalize's rule raises
        ValidationError with its member index.
        """
        normals = _stack_blocks(normal_blocks)
        _check_family_shape(normals)
        failing = np.flatnonzero(~(_gram_defects(normals) <= DEFAULT_TOL))
        if failing.size:
            finite = np.isfinite(normals[failing]).all(axis=(1, 2))
            frames, independent = _gram_schmidt_frames(normals[failing[finite]])
            ranks = np.zeros(failing.size, dtype=int)
            ranks[finite] = np.count_nonzero(independent, axis=1)
            k = normals.shape[1]
            if np.any(ranks < k):
                i = int(np.argmax(ranks < k))
                reason = (f"rank {ranks[i]} < {k}: vectors are linearly dependent"
                          if finite[i] else "non-finite entries")
                raise ValidationError(
                    f"family member {failing[i] + 1}: normals have {reason}")
            normals[failing] = frames
        normals.setflags(write=False)
        return cls(normals)

    @property
    def ambient_dim(self) -> int:
        return self.normals.shape[2]

    @property
    def codim(self) -> int:
        return self.normals.shape[1]

    @property
    def size(self) -> int:
        return self.normals.shape[0]

    def __len__(self) -> int:
        return self.size


def decay_fit_prefixes(deltas) -> tuple[np.ndarray, np.ndarray]:
    """Decay fits of every prefix of each (..., J) profile along the last
    axis: entry j-1 fits deltas[..., :j].

    A fit's exponent is the OLS slope of log(delta_i) on log(i) over the
    positive entries (negative for decaying profiles) and its scale is
    exp(intercept).  All prefixes are fitted at once, in closed form, from
    prefix sums.  The centred sums are prefix sums of Welford increments
    (x_i - mx)(y_i - my)(c - 1)/c, where the i-th positive entry is the
    c-th and mx, my are the means of the c - 1 before it; this avoids the
    cancellation in sum(x y) - sum(x) sum(y) / c.  Every row of a stack gets
    the bits of its own 1-D call.  Returns (exponents, scales) shaped like deltas, NaN
    where a prefix has fewer than two positive deltas.
    """
    d = np.asarray(deltas, dtype=float)
    pos = d > 0
    x = np.log(np.arange(1.0, d.shape[-1] + 1.0))
    y = np.log(np.where(pos, d, 1.0))  # 0 at the entries left out
    count = np.cumsum(pos, axis=-1)
    safe = np.maximum(count, 1)
    mean_x = np.cumsum(x * pos, axis=-1) / safe
    mean_y = np.cumsum(y, axis=-1) / safe
    dx = np.broadcast_to(x, d.shape).copy()
    dy = y.copy()
    dx[..., 1:] -= mean_x[..., :-1]
    dy[..., 1:] -= mean_y[..., :-1]
    weighted = pos * (count - 1) / safe * dx
    sxx = np.cumsum(weighted * dx, axis=-1)
    sxy = np.cumsum(weighted * dy, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = sxy / sxx
        scale = np.exp(mean_y - slope * mean_x)
    slope[count < 2] = np.nan
    scale[count < 2] = np.nan
    return slope, scale


def _whole_profile_slopes(rows: np.ndarray) -> np.ndarray:
    """decay_fit_prefixes(rows)[0][:, -1] of an (m, J) stack of positive
    profiles, bit for bit.  Every entry counts, so the x side (the means of
    log i, their increments and sxx) is one (J,) computation shared by all
    rows, and only the y side needs (m, J) prefix sums."""
    J = rows.shape[-1]
    if J < 2:
        return np.full(len(rows), np.nan)
    count = np.arange(1, J + 1)
    x = np.log(np.arange(1.0, J + 1.0))
    dx = x.copy()
    dx[1:] -= (np.cumsum(x) / count)[:-1]
    weighted = (count - 1) / count * dx
    sxx = np.cumsum(weighted * dx)[-1]
    dy = np.log(rows)
    dy[:, 1:] -= (np.cumsum(dy, axis=-1) / count)[:, :-1]
    sxy = np.cumsum(weighted * dy, axis=-1)[:, -1]
    return sxy / sxx


def _profile(deltas) -> np.ndarray:
    """Read-only float64 copy of a finite nonempty profile in [0, 1]."""
    d = _freeze(as_vector(deltas))
    if np.any(d < 0) or np.any(d > 1.0 + 1e-12):
        raise ValidationError("deltas must lie in [0, 1]")
    return d


@dataclass(frozen=True)
class RejectionStats:
    attempted: int
    accepted: int


@dataclass(frozen=True)
class ComplementResult:
    """A constructed complement with its certified profile, the formula's
    values in (0, 1] with its ``constants``, and its measured degrees in
    [0, 1]; each profile is a read-only (J,) float64 array."""

    complement: OrthonormalFrame
    certified: np.ndarray
    constants: dict
    measured: np.ndarray
    rng_seed: int
    rejection_stats: RejectionStats

    def __post_init__(self):
        certified = _profile(self.certified)
        if np.any(certified <= 0):
            raise ValidationError("certified deltas must be strictly positive")
        measured = _profile(self.measured)
        if certified.size != measured.size:
            raise ValidationError("certificate and measured profiles differ in length")
        gap = measured - certified
        if np.any(gap < -DOMINANCE_TOL):
            worst = int(np.argmin(gap)) + 1
            raise ConstructionError(
                f"measured delta at index {worst} undercuts the certificate by "
                f"{-float(gap[worst - 1]):.3e}"
            )
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "measured", measured)


def adapt_basis(v_list):
    """Coordinates of ordered unit v_j in an orthonormal c_1..c_m with v_j in
    span(c_1..c_j), and the lift back to R^n.  Returns (lift, coords).

    The c_l are the sign-fixed Householder QR frame of V, left in LAPACK's
    factored form (Golub & Van Loan, Matrix Computations, 5.1.6): with
    V^T = Q R and s = sign(diag R), coords = R^T diag(s) is exactly lower
    triangular, and lift(x_c) = sum_l x_c[l] c_l = Q [s x_c; 0] applies the
    m reflectors in O(mn).  A dependent v_j gets R_jj = 0 and a reflector
    column c_j still orthonormal to the rest, so indices stay aligned.
    """
    V = np.atleast_2d(np.asarray(v_list, dtype=float))
    if V.size == 0:
        raise ValidationError("need at least one vector to adapt")
    m, n = V.shape
    _check_unit(V, "vector")
    if m > n:
        raise ValidationError(
            f"cannot adapt {m} vectors in R^{n}: more vectors than ambient dimension"
        )
    h, tau = np.linalg.qr(V.T, mode="raw")  # R^T on and below h's diagonal
    sign = np.where(np.diagonal(h) < 0.0, -1.0, 1.0)
    coords = np.tril(h[:, :m]) * sign
    np.fill_diagonal(h, 1.0)  # reflector l is h[l, l:] on coordinates l..n-1

    def lift(x_c):
        x = np.concatenate((sign * x_c, np.zeros(n - m)))
        for l in range(m - 1, -1, -1):
            x[l:] -= (tau[l] * (h[l, l:] @ x[l:])) * h[l, l:]
        return x

    return lift, coords


def sample_box_separator(v_list, halfwidths, thresholds, deltas, key: tuple):
    """Unit vector x with every |<x, v_j>| >= deltas_j, for m unit v_j in R^n.

    Draws y uniformly from the box prod_i [-h_i, h_i] until every |<y, v_j>|
    clears t_j = thresholds_j; trial t draws from _keyed_rng(*key, t), so its
    first i coordinates depend only on h_1..h_i.  The slab of v_j covers at
    most t_j * sum_i |v_ji| / h_i of the box (polytope.slab_measure_bound);
    these shares must sum to at most 1/2, so each draw accepts with
    probability >= 1/2.  The caller picks deltas_j <= t_j / sup ||y||_2, so
    normalization keeps them.

    Gives up with ConstructionError after DEFAULT_MAX_TRIES draws.  Returns
    (x, deltas, RejectionStats), re-checking the profile on x (hard assertion).
    """
    V = np.atleast_2d(np.asarray(v_list, dtype=float))
    if V.ndim != 2 or V.size == 0:
        raise ValidationError("need at least one vector to separate from")
    m, n = V.shape
    _check_unit(V, "vector")
    halfw, thresholds, deltas = map(as_vector, (halfwidths, thresholds, deltas))
    if (halfw.size, thresholds.size, deltas.size) != (n, m, m):
        raise ValidationError(
            f"{m} vectors in R^{n} need {n} halfwidths and {m} thresholds and deltas")
    if np.any(halfw <= 0) or np.any(thresholds < 0):
        raise ValidationError("halfwidths must be positive and thresholds nonnegative")
    budget = float(thresholds @ (np.abs(V) @ (1.0 / halfw)))
    # the cube attains 1/2 exactly when every |v_ji| is equal: allow round-off
    if budget > 0.5 * (1.0 + 1e-12):
        raise ValidationError(f"vectors are not adapted to the box: their slabs may "
                              f"cover {budget:.3g} of it, more than 1/2")
    for trial in range(DEFAULT_MAX_TRIES):
        y = _keyed_rng(*key, trial).uniform(-halfw, halfw)
        if np.all(np.abs(V @ y) >= thresholds):
            x = y / np.linalg.norm(y)
            if np.any(np.abs(V @ x) < deltas):
                raise ConstructionError("accepted draw violates the certified profile")
            return x, deltas, RejectionStats(trial + 1, 1)
    raise ConstructionError(
        f"no acceptable box draw in {DEFAULT_MAX_TRIES} tries "
        f"(failure probability <= 2**-{DEFAULT_MAX_TRIES} per construction)"
    )


def certify(C: OrthonormalFrame, family: SubspaceFamily) -> np.ndarray:
    """Read-only measured profile: delta_j is C's degree of transversality to V_j.

    All J degrees come from one stacked product with the family's normals
    (see degrees_of_transversality).  A zero entry means C is not a common
    complement.
    """
    if C.ambient_dim != family.ambient_dim:
        raise ValidationError("candidate and family ambient dimensions differ")
    if C.size != family.codim:
        raise ValidationError(
            f"candidate dim {C.size} does not match family codim {family.codim}"
        )
    deltas = degrees_of_transversality(family.normals, C.vectors)
    deltas.setflags(write=False)
    return deltas


def is_well_separating(deltas, max_exponent: float):
    """Whether a profile admits a polynomial floor delta_j >= eps * j^-p.

    ``deltas`` is one nonempty profile or a (..., J) stack of them, and a
    NaN max_exponent is rejected.  p is minus the log-log OLS slope of the
    whole profile (the last prefix of decay_fit_prefixes, NaN with fewer
    than two positive deltas).  The verdict is "positive, and slope within
    the ceiling": a positive profile passes iff J < 3, where no fit is
    meaningful, or p <= max_exponent; its floor min_j delta_j * j^p is
    then positive.  Returns (verdict, p): a bool and a float, or a (...)
    boolean array and a (...) float array.
    """
    if math.isnan(max_exponent):
        raise ValidationError("max_exponent must be a number")
    d = np.asarray(deltas, dtype=float)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValidationError("a profile needs at least one delta")
    rows = d.reshape(-1, d.shape[-1])
    positive = np.all(rows > 0, axis=-1)
    if positive.all():
        slope = _whole_profile_slopes(rows)
    else:
        slope = np.empty(len(rows))
        slope[positive] = _whole_profile_slopes(rows[positive])
        slope[~positive] = decay_fit_prefixes(rows[~positive])[0][:, -1]
    verdict = positive.reshape(d.shape[:-1])
    p = -slope.reshape(d.shape[:-1])
    if d.shape[-1] >= 3:
        verdict &= p <= max_exponent
    if verdict.ndim:
        return verdict, p
    return bool(verdict), float(p)


def _certificate_constants(levels: int) -> dict:
    return {
        "profile_scale": BOX_CONSTANT,
        "profile_exponent": 5.0 * levels,
        "accept_margin_scale": RAW_MARGIN,
        "norm_cap": NORM_CAP,
        "line_constant": LINE_CONSTANT,
        "levels": levels,
    }


def _line_complement(family: SubspaceFamily, seed: int, level: int) -> ComplementResult:
    """Certified line complementing J hyperplanes in R^n, from
    sample_box_separator keyed by (seed, level).

    For J <= n it draws from the shrinking box (halfwidths j^-2) in a basis
    adapted to the ordered normals and certifies BOX_CONSTANT * j^-5.  For
    J > n it draws from the cube [-1, 1]^n against all normals at once and
    certifies the constant 1/(2 J n), as ||y|| <= sqrt(n).
    """
    n = family.ambient_dim
    J = len(family)
    normals = family.normals[:, 0]
    if J <= n:
        lift, coords = adapt_basis(normals)
        # rows of coords are unit up to round-off; renormalize
        coords = coords / np.linalg.norm(coords, axis=1, keepdims=True)
        j = np.arange(1, J + 1, dtype=float)
        x_c, deltas, stats = sample_box_separator(
            coords, j ** -2.0, RAW_MARGIN * j ** -5.0, BOX_CONSTANT * j ** -5.0,
            (seed, level))
        x = lift(x_c)
        constants = _certificate_constants(1)
    else:
        bound = 0.5 / (J * n)
        x, deltas, stats = sample_box_separator(
            normals, np.ones(n), np.full(J, 0.5 / (J * math.sqrt(n))),
            np.full(J, bound), (seed, level))
        constants = {"profile_scale": bound, "profile_exponent": 0.0, "members": J}
    comp = OrthonormalFrame(x[None, :])
    return ComplementResult(comp, deltas, constants, certify(comp, family), seed, stats)


def _composed_profile(J: int, k: int) -> np.ndarray:
    """The certified profile of a codim-k complement of J <= n - k members,
    k >= 2: the box profile BOX_CONSTANT * j^-5 of each level, composed as
    the recursion composes it.  Raises ConstructionError at the first level
    whose profile underflows to 0, before any level draws.
    """
    line = BOX_CONSTANT * np.arange(1, J + 1, dtype=float) ** -5.0
    certified = line
    for level in range(2, k + 1):
        certified = certified * line * LINE_CONSTANT
        if not np.all(certified > 0):
            raise ConstructionError(f"certified profile of codim {level} underflows to 0 "
                                    f"from index {int(np.argmin(certified > 0)) + 1}")
    return certified


def common_complement(family: SubspaceFamily, seed: int) -> ComplementResult:
    """Certified common complement of J subspaces of codimension k in R^n.

    Size bound: any J for k = 1, and J <= n - k for k >= 2.  For k = 1 the
    complement is a line drawn from the shrinking box, with the profile
    BOX_CONSTANT * j^-5, when J <= n, and drawn from the cube, with the
    constant profile 1/(2 J n), when J > n (see _line_complement).
    For k >= 2 the family is relaxed by dropping each member's last normal,
    a complement C1 of the relaxed family is built recursively, each V_j is
    enlarged to the hyperplane V_j + C1, a second certified direction x2 is
    produced against those hyperplanes, and C = C1 + span(x2).  Certificates
    compose as delta_j = delta1_j * delta2_j * LINE_CONSTANT, giving the
    overall profile LINE_CONSTANT**(k-1) * (BOX_CONSTANT * j^-5)**k, which
    _composed_profile checks for underflow before any level draws.  The
    relaxed family gets the same seed and x2 draws at level k, so C1 is the
    complement the relaxed family gets on its own.
    """
    n = family.ambient_dim
    k = family.codim
    J = len(family)
    if k == 1:
        return _line_complement(family, seed, 1)
    if J > n - k:
        raise ValidationError(
            f"family of {J} members with codim {k} in R^{n}: need J <= n - k"
        )

    certified = _composed_profile(J, k)
    relaxed = SubspaceFamily(family.normals[:, : k - 1])
    first = common_complement(relaxed, seed)
    B1 = first.complement.vectors  # (k-1) x n

    N = family.normals
    G = N @ B1.T  # (J, k, k-1): coordinates of projected C1 inside each V_j-perp
    U, _, _ = np.linalg.svd(G)
    u = U[:, None, :, -1]  # (J, 1, k): unit null vectors of G_j^T
    enlarged = SubspaceFamily.from_normals(u @ N)
    second = _line_complement(enlarged, seed, k)
    # J <= n - k keeps the second stage on the adapted box, whose dominance check
    # puts x2 at distance >= BOX_CONSTANT from V_1 + C1, which contains C1:
    # the direct sum has full rank k
    comp = orthonormalize(np.vstack([B1, second.complement.vectors]))
    stats = RejectionStats(
        first.rejection_stats.attempted + second.rejection_stats.attempted,
        first.rejection_stats.accepted + second.rejection_stats.accepted,
    )
    return ComplementResult(comp, certified, _certificate_constants(k),
                            certify(comp, family), seed, stats)


def random_subspace_family(seed: int, ambient_dim: int, codim: int,
                           size: int) -> SubspaceFamily:
    """Family of ``size`` independent uniformly random codim-k subspaces.

    One (size, codim, ambient_dim) Gaussian draw, orthonormalized by one
    stacked Gram-Schmidt call; a rank-deficient block (probability zero)
    raises ValidationError.
    """
    rng = _keyed_rng(seed, ambient_dim, codim, size)
    return SubspaceFamily.from_normals(rng.standard_normal((size, codim, ambient_dim)))


__all__ = [
    "BOX_CONSTANT",
    "LINE_CONSTANT",
    "NORM_CAP",
    "RAW_MARGIN",
    "ComplementResult",
    "RejectionStats",
    "SubspaceFamily",
    "adapt_basis",
    "certify",
    "common_complement",
    "decay_fit_prefixes",
    "is_well_separating",
    "random_subspace_family",
    "sample_box_separator",
]
