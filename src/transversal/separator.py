"""Constructive common complements with certified transversality decay.

Given a finite family V_1, ..., V_J of codimension-k subspaces of R^n, this
module builds a single k-dimensional subspace C transversal to every member,
together with a per-index certificate delta_j > 0 such that every unit
x in C keeps distance at least delta_j from V_j.

The engine is a pair of rejection samplers with provable per-draw acceptance
probability >= 1/2:

* over the cube [-1,1]^n, away from k hyperplanes, yielding the bound
  1/(2 k n) after normalization;
* over the shrinking box prod_j [-j^-2, j^-2] in coordinates adapted to the
  ordered normals, yielding bounds BOX_CONSTANT * j^-5.

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
    SpanSubspace,
    ValidationError,
    _freeze,
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

CERTIFIED = "certified-by-construction"
MEASURED = "measured-by-svd"


def _gram_defects(normals: np.ndarray) -> np.ndarray:
    """max |N_j N_j^T - I| for every block of a (J, k, n) stack; NaN if non-finite."""
    gram = normals @ normals.transpose(0, 2, 1)
    return np.max(np.abs(gram - np.eye(normals.shape[1])), axis=(1, 2), initial=0.0)


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
    if not blocks:
        raise ValidationError("family must contain at least one subspace")
    return np.array(blocks)


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
        if arr.ndim != 3:
            raise ValidationError(
                f"family normals must form a (J, k, n) array, got shape {arr.shape}")
        J, k, n = arr.shape
        if J == 0:
            raise ValidationError("family must contain at least one subspace")
        if not 1 <= k < n:
            raise ValidationError(
                f"codim must satisfy 1 <= k < n, got k={k}, n={n}")
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

        One stacked Gram check finds the blocks that are not orthonormal
        within DEFAULT_TOL; the others keep their bytes.  Only the failing blocks
        are orthonormalized, one at a time, and a rank-deficient one is
        rejected by its member index.
        """
        normals = _stack_blocks(normal_blocks)
        k = normals.shape[1]
        for i in np.flatnonzero(~(_gram_defects(normals) <= DEFAULT_TOL)):
            frame = orthonormalize(normals[i])
            if frame.size < k:
                raise ValidationError(
                    f"family member {i + 1}: normals have rank {frame.size} < {k}")
            normals[i] = frame.vectors
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


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(delta_j) against log(j).

    ``exponent`` is the OLS slope (negative for decaying profiles) and
    ``scale`` is exp(intercept).  NaN when fewer than two positive deltas.
    """

    exponent: float
    scale: float


def decay_fit_prefixes(deltas) -> tuple[np.ndarray, np.ndarray]:
    """Decay fits of every prefix: entry j-1 fits deltas[:j] (see DecayFit).

    Closed-form OLS of log(delta_i) on log(i) over the positive entries,
    computed for all prefixes at once from prefix sums.  The centred sums
    are prefix sums of Welford increments (x_i - mx)(y_i - my)(c - 1)/c,
    where the i-th positive entry is the c-th and mx, my are the means of
    the c - 1 before it; this avoids the cancellation in
    sum(x y) - sum(x) sum(y) / c.  Returns (exponents, scales), NaN where a
    prefix has fewer than two positive deltas.
    """
    d = np.asarray(deltas, dtype=float)
    pos = d > 0
    x = np.log(np.arange(1.0, d.size + 1.0))
    y = np.log(np.where(pos, d, 1.0))  # 0 at the entries left out
    count = np.cumsum(pos)
    safe = np.maximum(count, 1)
    mean_x = np.cumsum(x * pos) / safe
    mean_y = np.cumsum(y) / safe
    dx, dy = x.copy(), y.copy()
    dx[1:] -= mean_x[:-1]
    dy[1:] -= mean_y[:-1]
    weighted = pos * (count - 1) / safe * dx
    sxx = np.cumsum(weighted * dx)
    sxy = np.cumsum(weighted * dy)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = sxy / sxx
        scale = np.exp(mean_y - slope * mean_x)
    slope[count < 2] = np.nan
    scale[count < 2] = np.nan
    return slope, scale


def fit_decay(deltas) -> DecayFit:
    exponents, scales = decay_fit_prefixes(deltas)
    if exponents.size == 0:
        return DecayFit(float("nan"), float("nan"))
    return DecayFit(float(exponents[-1]), float(scales[-1]))


@dataclass(frozen=True)
class SeparationCertificate:
    """Per-index transversality profile delta_1..delta_J with provenance.

    ``certified-by-construction`` profiles carry analytic formula values in
    (0, 1]; ``measured-by-svd`` profiles are observed degrees in [0, 1] and
    may contain zeros when the candidate fails to complement some member.
    """

    deltas: np.ndarray
    provenance: str
    constants: dict
    decay_fit: DecayFit

    def __post_init__(self):
        d = as_vector(self.deltas)
        if self.provenance not in (CERTIFIED, MEASURED):
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        if np.any(d < 0) or np.any(d > 1.0 + 1e-12):
            raise ValidationError("deltas must lie in [0, 1]")
        if self.provenance == CERTIFIED and np.any(d <= 0):
            raise ValidationError("certified deltas must be strictly positive")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "deltas", d)

    @classmethod
    def from_profile(cls, deltas, provenance: str,
                     constants: dict | None = None) -> "SeparationCertificate":
        return cls(np.asarray(deltas, dtype=float), provenance,
                   dict(constants or {}), fit_decay(deltas))

    @property
    def size(self) -> int:
        return self.deltas.size

    @property
    def positive(self) -> bool:
        return bool(np.all(self.deltas > 0))


@dataclass(frozen=True)
class RejectionStats:
    attempted: int
    accepted: int

    def __post_init__(self):
        if self.accepted > self.attempted or self.accepted < 0:
            raise ValidationError("inconsistent rejection statistics")


@dataclass(frozen=True)
class ComplementResult:
    """A constructed complement with its certified and measured profiles."""

    complement: SpanSubspace
    certificate: SeparationCertificate
    measured: SeparationCertificate
    rng_seed: int
    rejection_stats: RejectionStats

    def __post_init__(self):
        if self.certificate.size != self.measured.size:
            raise ValidationError("certificate and measured profiles differ in length")
        gap = self.measured.deltas - self.certificate.deltas
        if np.any(gap < -DOMINANCE_TOL):
            worst = int(np.argmin(gap)) + 1
            raise ConstructionError(
                f"measured delta at index {worst} undercuts the certificate by "
                f"{-float(gap[worst - 1]):.3e}"
            )


def _check_unit_rows(arr: np.ndarray, what: str) -> None:
    norms = np.linalg.norm(arr, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-10):
        bad = int(np.argmax(np.abs(norms - 1.0))) + 1
        raise ValidationError(f"{what} {bad} is not unit (norm {norms[bad - 1]!r})")


def sample_cube_separator(normals, seed: int,
                          max_tries: int = DEFAULT_MAX_TRIES):
    """Unit vector keeping |<x, v_j>| >= 1/(2 k n) from k unit normals in R^n.

    Draws y uniformly from [-1,1]^n and accepts once every |<y, v_j>| clears
    1/(2 k sqrt(n)); the rejected slabs cover at most half the cube, so each
    draw accepts with probability >= 1/2.  Normalizing y preserves the
    margin up to the factor ||y||_2 <= sqrt(n).

    Returns (x, certified_bound, RejectionStats).  The certified bound is
    re-checked on the returned vector (hard assertion).
    """
    vs = np.atleast_2d(np.asarray(normals, dtype=float))
    if vs.ndim != 2 or vs.size == 0:
        raise ValidationError("normals must be a nonempty set of vectors")
    k, n = vs.shape
    _check_unit_rows(vs, "normal")
    if max_tries < 1:
        raise ValidationError("max_tries must be at least 1")
    margin = 0.5 / (k * math.sqrt(n))
    bound = 0.5 / (k * n)
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_tries + 1):
        y = rng.uniform(-1.0, 1.0, size=n)
        if np.min(np.abs(vs @ y)) >= margin:
            x = y / np.linalg.norm(y)
            if np.min(np.abs(vs @ x)) < bound:
                raise ConstructionError("accepted draw violates the certified bound")
            return x, bound, RejectionStats(attempt, 1)
    raise ConstructionError(
        f"no acceptable cube draw in {max_tries} tries "
        f"(failure probability <= 2**-{max_tries} per construction)"
    )


def adapt_basis(v_list, ambient_dim: int):
    """Orthonormal c_1..c_m with v_j in span(c_1..c_j) for ordered unit v_j.

    The frame is Q^T from one reduced Householder QR factorization
    V^T = Q R (Golub & Van Loan, Matrix Computations, section 5.2), with
    the signs of Q's columns chosen so that diag(R) >= 0; on independent
    input this is the frame Gram-Schmidt would build.  Since R is upper
    triangular, v_j = sum_{l <= j} R_lj c_l holds whatever the pivots are:
    when v_j depends on its predecessors, R_jj vanishes and c_j is still a
    Householder column orthonormal to the rest, so index alignment is
    preserved.  Returns (OrthonormalFrame, coords) where
    coords[i, l] = <v_i, c_l> is lower triangular up to DEFAULT_TOL.
    """
    V = np.atleast_2d(np.asarray(v_list, dtype=float))
    if V.size == 0:
        raise ValidationError("need at least one vector to adapt")
    m, n = V.shape
    if n != ambient_dim:
        raise ValidationError(f"vectors of dimension {n}, expected {ambient_dim}")
    _check_unit_rows(V, "vector")
    if m > n:
        raise ValidationError(
            f"cannot adapt {m} vectors in R^{n}: more vectors than ambient dimension"
        )
    q, r = np.linalg.qr(V.T)
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    frame = OrthonormalFrame((q * signs).T, n)
    coords = V @ frame.vectors.T
    return frame, coords


def sample_box_separator(v_list, seed: int,
                         max_tries: int = DEFAULT_MAX_TRIES):
    """Unit vector with |<x, v_j>| >= BOX_CONSTANT * j^-5 for adapted unit v_j.

    The v_j must be given in adapted coordinates: v_j lives in R^j x {0}
    (entries past index j vanish within DEFAULT_TOL).  Draws y uniformly from
    the box with halfwidths j^-2 and accepts once every |<y, v_j>| clears
    RAW_MARGIN * j^-5; the rejected slabs cover at most half the box volume,
    so each draw accepts with probability >= 1/2.  Since ||y||_2 < NORM_CAP,
    normalization yields the certified profile.

    Returns (x, certified_deltas, RejectionStats), hard-checking both the
    chain RAW_MARGIN * j^-5 / max(||y||, guard) and the stated profile.
    """
    V = np.atleast_2d(np.asarray(v_list, dtype=float))
    if V.size == 0:
        raise ValidationError("need at least one adapted vector")
    m, d = V.shape
    if d != m:
        raise ValidationError(
            f"adapted vectors must be square ({m} vectors of dimension {m}), got dim {d}"
        )
    _check_unit_rows(V, "adapted vector")
    upper = np.triu(V, k=1)
    if np.max(np.abs(upper), initial=0.0) > DEFAULT_TOL:
        bad = int(np.argmax(np.max(np.abs(upper), axis=1))) + 1
        raise ValidationError(
            f"vector {bad} has mass above its index: input is not adapted"
        )
    if max_tries < 1:
        raise ValidationError("max_tries must be at least 1")
    j = np.arange(1, m + 1, dtype=float)
    halfw = j ** -2.0
    thresholds = RAW_MARGIN * j ** -5.0
    deltas = BOX_CONSTANT * j ** -5.0
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_tries + 1):
        y = rng.uniform(-halfw, halfw)
        if np.all(np.abs(V @ y) >= thresholds):
            norm_y = float(np.linalg.norm(y))
            if norm_y > NORM_CAP:
                raise ConstructionError("box draw exceeds the norm cap")
            x = y / norm_y
            prods = np.abs(V @ x)
            chain = thresholds / max(norm_y, 1e-300)
            if np.any(prods < chain * (1.0 - 1e-12)):
                raise ConstructionError("accepted draw violates the margin chain")
            if np.any(prods < deltas):
                # ||y|| < NORM_CAP strictly, so the stated profile must hold
                raise ConstructionError("accepted draw violates the certified profile")
            return x, deltas, RejectionStats(attempt, 1)
    raise ConstructionError(
        f"no acceptable box draw in {max_tries} tries "
        f"(failure probability <= 2**-{max_tries} per construction)"
    )


def certify(C: SpanSubspace, family: SubspaceFamily) -> SeparationCertificate:
    """Measured transversality profile: delta_j is C's degree of transversality to V_j.

    All J degrees come from one stacked SVD over the family's normals.  A
    zero entry means C is not a common complement.  The decay fit runs over
    the strictly positive entries.
    """
    if C.ambient_dim != family.ambient_dim:
        raise ValidationError("candidate and family ambient dimensions differ")
    if C.dim != family.codim:
        raise ValidationError(
            f"candidate dim {C.dim} does not match family codim {family.codim}"
        )
    deltas = degrees_of_transversality(family.normals, C.basis)
    return SeparationCertificate.from_profile(deltas, MEASURED)


def is_well_separating(cert: SeparationCertificate, max_exponent: float) -> bool:
    """Whether the profile admits a polynomial floor delta_j >= eps * j^-p.

    Fits p as minus the log-log OLS slope and sets eps = min_j delta_j * j^p;
    true iff p <= max_exponent (and eps > 0, automatic for positive deltas).
    At least three indices are required for the fit to mean anything.
    """
    if cert.size < 3:
        raise ValidationError("need at least 3 indices to assess separation decay")
    d = cert.deltas
    if np.any(d <= 0):
        raise ValidationError("profile has nonpositive deltas")
    fit = cert.decay_fit
    if math.isnan(fit.exponent):
        fit = fit_decay(d)
    p = -fit.exponent
    j = np.arange(1, d.size + 1, dtype=float)
    eps = float(np.min(d * j ** p))
    return bool(p <= max_exponent and eps > 0)


def _certificate_constants(levels: int) -> dict:
    return {
        "profile_scale": BOX_CONSTANT,
        "profile_exponent": 5.0 * levels,
        "accept_margin_scale": RAW_MARGIN,
        "norm_cap": NORM_CAP,
        "line_constant": LINE_CONSTANT,
        "levels": levels,
    }


def derive_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def _line_complement(family: SubspaceFamily, seed: int,
                     max_tries: int) -> ComplementResult:
    """Certified line complementing J hyperplanes in R^n.

    For J <= n the shrinking-box sampler runs in a basis adapted to the
    ordered normals and certifies BOX_CONSTANT * j^-5; for J > n the cube
    sampler treats all normals at once and certifies the constant 1/(2 J n).
    """
    n = family.ambient_dim
    J = len(family)
    normals = family.normals[:, 0]
    if J <= n:
        frame, coords = adapt_basis(normals, n)
        # rows of coords are unit up to round-off; renormalize
        coords = coords / np.linalg.norm(coords, axis=1, keepdims=True)
        x_c, deltas, stats = sample_box_separator(coords, seed, max_tries=max_tries)
        x = frame.vectors.T @ x_c
        constants = _certificate_constants(1)
    else:
        x, bound, stats = sample_cube_separator(normals, seed, max_tries=max_tries)
        deltas = np.full(J, bound)
        constants = {"profile_scale": bound, "profile_exponent": 0.0, "members": J}
    comp = SpanSubspace.from_frame(OrthonormalFrame(x[None, :], n))
    certificate = SeparationCertificate.from_profile(deltas, CERTIFIED, constants=constants)
    measured = certify(comp, family)
    return ComplementResult(comp, certificate, measured, seed, stats)


def common_complement(family: SubspaceFamily, seed: int,
                      max_tries: int = DEFAULT_MAX_TRIES) -> ComplementResult:
    """Certified common complement of J subspaces of codimension k in R^n.

    Size bound: any J for k = 1, and J <= n - k for k >= 2.  For k = 1 the
    complement is a line with the profile BOX_CONSTANT * j^-5 when J <= n,
    and the constant profile 1/(2 J n) when J > n (see _line_complement).
    For k >= 2 the family is relaxed by dropping each member's last normal,
    a complement C1 of the relaxed family is built recursively, each V_j is
    enlarged to the hyperplane V_j + C1, a second certified direction x2 is
    produced against those hyperplanes, and C = C1 + span(x2).  Certificates
    compose as delta_j = delta1_j * delta2_j * LINE_CONSTANT, giving the
    overall profile LINE_CONSTANT**(k-1) * (BOX_CONSTANT * j^-5)**k.
    """
    n = family.ambient_dim
    k = family.codim
    J = len(family)
    if k == 1:
        return _line_complement(family, seed, max_tries)
    if J > n - k:
        raise ValidationError(
            f"family of {J} members with codim {k} in R^{n}: need J <= n - k"
        )

    seed1, seed2 = derive_seeds(seed, 2)
    relaxed = SubspaceFamily(family.normals[:, : k - 1])
    first = common_complement(relaxed, seed1, max_tries=max_tries)
    B1 = first.complement.basis  # (k-1) x n

    N = family.normals
    G = N @ B1.T  # (J, k, k-1): coordinates of projected C1 inside each V_j-perp
    U, _, _ = np.linalg.svd(G)
    u = U[:, None, :, -1]  # (J, 1, k): unit null vectors of G_j^T
    residuals = np.linalg.norm((u @ G)[:, 0], axis=1)
    degenerate = np.flatnonzero(residuals > 1e-8)
    if degenerate.size:
        raise ConstructionError(
            f"enlarged member {degenerate[0] + 1} is degenerate: first-stage "
            "complement nearly touches the family"
        )
    enlarged = SubspaceFamily.from_normals(u @ N)
    second = _line_complement(enlarged, seed2, max_tries)
    x2 = second.complement.basis[0]

    frame = orthonormalize(np.vstack([B1, x2]))
    if frame.size < k:
        raise ConstructionError("direct sum of the two stages lost rank")
    comp = SpanSubspace.from_frame(frame)
    cert_deltas = first.certificate.deltas * second.certificate.deltas * LINE_CONSTANT
    certificate = SeparationCertificate.from_profile(
        cert_deltas, CERTIFIED, constants=_certificate_constants(k))
    measured = certify(comp, family)
    stats = RejectionStats(
        first.rejection_stats.attempted + second.rejection_stats.attempted,
        first.rejection_stats.accepted + second.rejection_stats.accepted,
    )
    return ComplementResult(comp, certificate, measured, seed, stats)


def random_subspace_family(seed: int, ambient_dim: int, codim: int,
                           size: int) -> SubspaceFamily:
    """Family of ``size`` independent uniformly random codim-k subspaces."""
    rng = np.random.default_rng(seed)
    blocks = []
    while len(blocks) < size:
        g = rng.standard_normal((codim, ambient_dim))
        frame = orthonormalize(g)
        if frame.size < codim:  # measure-zero rank drop: redraw
            continue
        blocks.append(frame.vectors)
    return SubspaceFamily(np.array(blocks))


__all__ = [
    "RAW_MARGIN",
    "NORM_CAP",
    "BOX_CONSTANT",
    "LINE_CONSTANT",
    "DEFAULT_MAX_TRIES",
    "DOMINANCE_TOL",
    "CERTIFIED",
    "MEASURED",
    "SubspaceFamily",
    "DecayFit",
    "decay_fit_prefixes",
    "fit_decay",
    "SeparationCertificate",
    "RejectionStats",
    "ComplementResult",
    "sample_cube_separator",
    "adapt_basis",
    "sample_box_separator",
    "certify",
    "is_well_separating",
    "common_complement",
    "random_subspace_family",
    "derive_seeds",
]
