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
    CodimSubspace,
    ConstructionError,
    OrthonormalFrame,
    SpanSubspace,
    ValidationError,
    as_vector,
    degree_of_transversality,
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


@dataclass(frozen=True)
class SubspaceFamily:
    """Finite ordered family of subspaces sharing ambient dimension and codim."""

    members: tuple[CodimSubspace, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValidationError("family must contain at least one subspace")
        n = members[0].ambient_dim
        k = members[0].codim
        for i, m in enumerate(members):
            if m.ambient_dim != n or m.codim != k:
                raise ValidationError(
                    f"family member {i + 1} has (n, k) = ({m.ambient_dim}, {m.codim}),"
                    f" expected ({n}, {k})"
                )
        object.__setattr__(self, "members", members)

    @classmethod
    def from_normals(cls, normal_blocks, tol: float = DEFAULT_TOL) -> "SubspaceFamily":
        return cls(tuple(CodimSubspace.from_normals(b, tol=tol) for b in normal_blocks))

    @property
    def ambient_dim(self) -> int:
        return self.members[0].ambient_dim

    @property
    def codim(self) -> int:
        return self.members[0].codim

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]


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


def adapt_basis(v_list, ambient_dim: int, tol: float = DEFAULT_TOL):
    """Orthonormal c_1..c_m with v_j in span(c_1..c_j) for ordered unit v_j.

    The frame is Q^T from one reduced Householder QR factorization
    V^T = Q R (Golub & Van Loan, Matrix Computations, section 5.2), with
    the signs of Q's columns chosen so that diag(R) >= 0; on independent
    input this is the frame Gram-Schmidt would build.  Since R is upper
    triangular, v_j = sum_{l <= j} R_lj c_l holds whatever the pivots are:
    when v_j depends on its predecessors, R_jj vanishes and c_j is still a
    Householder column orthonormal to the rest, so index alignment is
    preserved.  Returns (OrthonormalFrame, coords) where
    coords[i, l] = <v_i, c_l> is lower triangular up to ``tol``.
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
    frame = OrthonormalFrame((q * signs).T, n, ortho_tol=tol)
    coords = V @ frame.vectors.T
    return frame, coords


def sample_box_separator(v_list, seed: int,
                         max_tries: int = DEFAULT_MAX_TRIES,
                         tol: float = DEFAULT_TOL):
    """Unit vector with |<x, v_j>| >= BOX_CONSTANT * j^-5 for adapted unit v_j.

    The v_j must be given in adapted coordinates: v_j lives in R^j x {0}
    (entries past index j vanish within ``tol``).  Draws y uniformly from
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
    if np.max(np.abs(upper), initial=0.0) > tol:
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
    """Measured transversality profile delta_j = degree_of_transversality(C, V_j).

    A zero entry means C is not a common complement.  The decay fit runs
    over the strictly positive entries.
    """
    if C.ambient_dim != family.ambient_dim:
        raise ValidationError("candidate and family ambient dimensions differ")
    if C.dim != family.codim:
        raise ValidationError(
            f"candidate dim {C.dim} does not match family codim {family.codim}"
        )
    deltas = np.array([degree_of_transversality(C, V) for V in family])
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


def line_min_norm(x1, x2) -> float:
    """min over t of ||t x1 + (1 - t) x2||: distance from 0 to the line through x1, x2.

    For ||x1||, ||x2|| <= 1 with ||x1|| >= mu1 and d(x2, span(x1)) >= mu2
    the value is at least mu1 * mu2 / sqrt(5).
    """
    x1 = as_vector(x1)
    x2 = as_vector(x2)
    if x1.size != x2.size:
        raise ValidationError("points live in different dimensions")
    d = x1 - x2
    dd = float(np.dot(d, d))
    if dd == 0.0:
        return float(np.linalg.norm(x1))
    t = -float(np.dot(x2, d)) / dd
    return float(np.linalg.norm(x2 + t * d))


def extend_superspace(V: CodimSubspace) -> CodimSubspace:
    """Codimension k-1 superspace obtained by dropping the last normal."""
    if V.codim < 2:
        raise ValidationError("cannot relax a subspace of codimension 1")
    frame = OrthonormalFrame(V.normals[: V.codim - 1], V.ambient_dim,
                             V.normal_frame.ortho_tol)
    return CodimSubspace(V.ambient_dim, V.codim - 1, frame)


def _hyperplane_normals(family: SubspaceFamily) -> np.ndarray:
    return np.vstack([m.normals[0] for m in family])


def hyperplane_complement(family: SubspaceFamily, seed: int,
                          max_tries: int = DEFAULT_MAX_TRIES) -> ComplementResult:
    """Certified line complementing J <= n hyperplanes, profile BOX_CONSTANT * j^-5.

    Adapts an orthonormal basis to the ordered normals, runs the shrinking-
    box sampler in those coordinates and maps the accepted direction back.
    """
    if family.codim != 1:
        raise ValidationError("hyperplane_complement requires a codimension-1 family")
    n = family.ambient_dim
    J = len(family)
    if J > n:
        raise ValidationError(
            f"family of {J} hyperplanes in R^{n}: truncation too small (J > n)"
        )
    normals = _hyperplane_normals(family)
    frame, coords = adapt_basis(normals, n)
    # rows of coords are unit up to round-off; renormalize
    coords = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    x_c, deltas, stats = sample_box_separator(coords, seed, max_tries=max_tries)
    x = frame.vectors.T @ x_c
    comp = SpanSubspace.from_frame(OrthonormalFrame(x[None, :], n))
    certificate = SeparationCertificate.from_profile(
        deltas, CERTIFIED, constants=_certificate_constants(1))
    measured = certify(comp, family)
    return ComplementResult(comp, certificate, measured, seed, stats)


def cube_complement(family: SubspaceFamily, seed: int,
                    max_tries: int = DEFAULT_MAX_TRIES) -> ComplementResult:
    """Certified line complement for J hyperplanes with a constant profile.

    Unlike hyperplane_complement this places no restriction on J relative
    to n: the cube sampler treats all normals at once and certifies the
    non-decaying bound 1/(2 J n) at every index.
    """
    if family.codim != 1:
        raise ValidationError("cube_complement requires a codimension-1 family")
    n = family.ambient_dim
    J = len(family)
    normals = _hyperplane_normals(family)
    x, bound, stats = sample_cube_separator(normals, seed, max_tries=max_tries)
    comp = SpanSubspace.from_frame(OrthonormalFrame(x[None, :], n))
    certificate = SeparationCertificate.from_profile(
        np.full(J, bound), CERTIFIED,
        constants={"profile_scale": bound, "profile_exponent": 0.0, "members": J})
    measured = certify(comp, family)
    return ComplementResult(comp, certificate, measured, seed, stats)


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


def common_complement(family: SubspaceFamily, seed: int,
                      max_tries: int = DEFAULT_MAX_TRIES) -> ComplementResult:
    """Certified common complement for J <= n - k subspaces of codimension k.

    Base case k = 1 delegates to hyperplane_complement.  For k >= 2 the
    family is relaxed by dropping each member's last normal, a complement
    C1 of the relaxed family is built recursively, each V_j is enlarged to
    the hyperplane V_j + C1, a second certified direction x2 is produced
    against those hyperplanes, and C = C1 + span(x2).  Certificates compose
    as delta_j = delta1_j * delta2_j * LINE_CONSTANT, giving the overall
    profile LINE_CONSTANT**(k-1) * (BOX_CONSTANT * j^-5)**k.
    """
    n = family.ambient_dim
    k = family.codim
    J = len(family)
    if J > n - k:
        raise ValidationError(
            f"family of {J} members with codim {k} in R^{n}: need J <= n - k"
        )
    if k == 1:
        return hyperplane_complement(family, seed, max_tries=max_tries)

    seed1, seed2 = derive_seeds(seed, 2)
    relaxed = SubspaceFamily(tuple(extend_superspace(V) for V in family))
    first = common_complement(relaxed, seed1, max_tries=max_tries)
    B1 = first.complement.basis  # (k-1) x n

    hyper_normals = []
    for idx, V in enumerate(family, start=1):
        N = V.normals
        G = N @ B1.T  # k x (k-1): coordinates of projected C1 inside V-perp
        U, _, _ = np.linalg.svd(G)
        u = U[:, -1]
        if float(np.linalg.norm(G.T @ u)) > 1e-8:
            raise ConstructionError(
                f"enlarged member {idx} is degenerate: first-stage complement "
                "nearly touches the family"
            )
        hyper_normals.append(u @ N)
    enlarged = SubspaceFamily.from_normals([h[None, :] for h in hyper_normals])
    second = hyperplane_complement(enlarged, seed2, max_tries=max_tries)
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


def truncate_l2_normals(seqs, tail_tol: float = 1e-8):
    """Truncate rows of near-unit l2 sequences to a common prefix, renormalized.

    Picks the smallest N such that every row's tail norm beyond N is at most
    ``tail_tol`` and returns (J x N array of renormalized rows, N).
    """
    arr = np.atleast_2d(np.asarray(seqs, dtype=float))
    if arr.size == 0:
        raise ValidationError("need at least one sequence")
    if not tail_tol > 0:
        raise ValidationError("tail_tol must be positive")
    tails = np.sqrt(np.cumsum((arr ** 2)[:, ::-1], axis=1))[:, ::-1]
    N = 0
    for row_tail in tails:
        ok = np.nonzero(row_tail <= tail_tol)[0]
        if ok.size == 0:
            raise ValidationError("tail norm never drops below tail_tol")
        N = max(N, int(ok[0]))
    N = max(N, 1)
    head = arr[:, :N]
    norms = np.linalg.norm(head, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValidationError("a truncated row vanished entirely")
    return head / norms, N


def random_subspace_family(seed: int, ambient_dim: int, codim: int,
                           size: int) -> SubspaceFamily:
    """Family of ``size`` independent uniformly random codim-k subspaces."""
    rng = np.random.default_rng(seed)
    members = []
    while len(members) < size:
        g = rng.standard_normal((codim, ambient_dim))
        frame = orthonormalize(g)
        if frame.size < codim:  # measure-zero rank drop: redraw
            continue
        members.append(CodimSubspace(ambient_dim, codim, frame))
    return SubspaceFamily(tuple(members))


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
    "line_min_norm",
    "extend_superspace",
    "hyperplane_complement",
    "cube_complement",
    "common_complement",
    "truncate_l2_normals",
    "random_subspace_family",
    "derive_seeds",
]
