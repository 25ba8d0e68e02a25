"""Shared helpers for the test suite."""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from transversal.geometry import as_vector
from transversal.polytope import Box, McEstimate
from transversal.separator import BOX_CONSTANT, RAW_MARGIN


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def triangular_unit_rows(rng, m):
    """Random m x m matrix whose row j is a unit vector in the first j coords.

    This is the coordinate form produced by basis adaptation, suitable as
    direct input to the shrinking-box sampler.
    """
    rows = np.zeros((m, m))
    for j in range(m):
        r = rng.standard_normal(j + 1)
        rows[j, : j + 1] = r / np.linalg.norm(r)
    return rows


def box_parameters(m):
    """Halfwidths, thresholds and deltas of the shrinking box against m
    adapted vectors, as the line construction sets them for J <= n."""
    j = np.arange(1, m + 1, dtype=float)
    return j ** -2.0, RAW_MARGIN * j ** -5.0, BOX_CONSTANT * j ** -5.0


def cube_parameters(J, n):
    """Halfwidths, thresholds and deltas of the cube [-1, 1]^n against J unit
    normals, as the line construction sets them for J > n."""
    return np.ones(n), np.full(J, 0.5 / (J * np.sqrt(n))), np.full(J, 0.5 / (J * n))


def mgs_adapt_basis(V, tol=1e-10):
    """Reference oracle for ``adapt_basis``: the frame rows c_1..c_m built by
    modified Gram-Schmidt with re-orthogonalization, one row per input row.

    A row that depends on its predecessors (residual norm <= tol) gets a
    filler direction: the coordinate axis with the largest residual,
    orthogonalized against the frame so far.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n = V.shape[1]
    rows = []
    for v in V:
        r = v.copy()
        for _ in range(2):
            for q in rows:
                r = r - np.dot(q, r) * q
        norm = float(np.linalg.norm(r))
        if norm > tol:
            rows.append(r / norm)
            continue
        residual_sq = 1.0 - np.sum(np.array(rows) ** 2, axis=0)
        f = np.zeros(n)
        f[int(np.argmax(residual_sq))] = 1.0
        for _ in range(2):
            for q in rows:
                f = f - np.dot(q, f) * q
        rows.append(f / np.linalg.norm(f))
    return np.array(rows)


def loop_certify(C, family):
    """Reference oracle for ``certify``: the measured profile built member by
    member, one k x k product N_j B^T and one SVD per member, clipped to
    [0, 1]."""
    deltas = []
    for N in family.normals:
        s = np.linalg.svd(N @ C.vectors.T, compute_uv=False)
        deltas.append(float(np.clip(s[-1], 0.0, 1.0)))
    return np.array(deltas)


def null_basis(N):
    """Orthonormal rows spanning the null space of a k x n normal frame N:
    a basis of the member V itself."""
    _, _, vt = np.linalg.svd(N, full_matrices=True)
    return vt[N.shape[0]:]


def line_min_norm(x1, x2) -> float:
    """min over t of ||t x1 + (1 - t) x2||: distance from 0 to the line through x1, x2.

    The lemma behind LINE_CONSTANT: for ||x1||, ||x2|| <= 1 with
    ||x1|| >= mu1 and d(x2, span(x1)) >= mu2 the value is at least
    mu1 * mu2 / sqrt(5).
    """
    x1 = as_vector(x1)
    x2 = as_vector(x2)
    d = x1 - x2
    dd = float(np.dot(d, d))
    if dd == 0.0:
        return float(np.linalg.norm(x1))
    t = -float(np.dot(x2, d)) / dd
    return float(np.linalg.norm(x2 + t * d))


def mc_slab_measure(box: Box, v, delta: float, samples: int = 10_000,
                    seed: int = 0) -> McEstimate:
    """Reference oracle for ``slab_measure_bound``: Monte Carlo estimate of
    vol({y in box: |<y,v>| <= delta}) from uniform samples in the box, with
    the binomial standard error scaled by the box volume.  Deterministic for
    a fixed seed."""
    rng = np.random.default_rng(seed)
    h = box.halfwidths
    y = rng.uniform(-h, h, size=(samples, box.dim))
    hits = int(np.count_nonzero(np.abs(y @ np.asarray(v, dtype=float)) <= delta))
    p = hits / samples
    vol = box.volume
    return McEstimate(vol * p, vol * float(np.sqrt(p * (1.0 - p) / samples)))


def fraction_det(M) -> Fraction:
    """Reference oracle for ``geometry._det``: the exact determinant of a
    float k x k matrix, summed over all permutations in rational arithmetic."""
    k = len(M)
    total = Fraction(0)
    for perm in permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Fraction(float(M[i][j]))
        total += term
    return total


#: Stated error bound of the closed-form 2 x 2 sigma_min, in units of
#: sigma_max: 8u with u = 2^-53 (see ``geometry._sigma_min_2x2``).
SIGMA_MIN_2X2_TOL = 8 * 2.0 ** -53


def exact_singular_values_2x2(M) -> tuple[Decimal, Decimal]:
    """Reference oracle for ``geometry._sigma_min_2x2``: (sigma_min,
    sigma_max) of a float 2 x 2 matrix to 60 digits.

    F = ||M||_F^2 and |det M| are exact rationals, sigma_max + sigma_min =
    sqrt(F + 2|det|) and sigma_max - sigma_min = sqrt(F - 2|det|), and
    sigma_min = |det| / sigma_max involves no cancellation.
    """
    (a, b), (c, d) = [[Fraction(float(x)) for x in row] for row in M]
    F = a * a + b * b + c * c + d * d
    det = abs(a * d - b * c)
    with localcontext() as ctx:
        ctx.prec = 60

        def dec(q):
            return Decimal(q.numerator) / Decimal(q.denominator)

        if F == 0:
            return Decimal(0), Decimal(0)
        smax = (dec(F + 2 * det).sqrt() + dec(F - 2 * det).sqrt()) / 2
        return dec(det) / smax, smax
