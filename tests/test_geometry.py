"""Frames, orthonormalization, and the transversality functional."""

import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from transversal.geometry import (
    DEFAULT_TOL,
    OrthonormalFrame,
    ValidationError,
    _sigma_min_2x2,
    degrees_of_transversality,
    orthonormalize,
)
from transversal.separator import SubspaceFamily, certify

from conftest import SIGMA_MIN_2X2_TOL, exact_singular_values_2x2, random_unit


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


#: dgesdd scales a block whose norm is below sqrt(tiny) / eps (about
#: 6.7e-139) up before it factors it; a 1 x 1 singular value can then come
#: back 1 ulp off.
LAPACK_SMLNUM = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps


def degree(C, N):
    """Degree of transversality of C to the one member with normal frame N."""
    return float(degrees_of_transversality(np.atleast_2d(N)[None], C.vectors)[0])


# ---------------------------------------------------------------------------
# orthonormalize


def test_orthonormalize_keeps_orthonormal_input():
    frame = orthonormalize([e(0, 3), e(1, 3)])
    np.testing.assert_array_equal(frame.vectors, np.eye(3)[:2])


def test_orthonormalize_rejects_dependent_vector():
    with pytest.raises(ValidationError, match=r"rank 1 < 2: vectors are linearly dependent"):
        orthonormalize([e(0, 3), 2.0 * e(0, 3)])


def test_orthonormalize_gram_is_identity():
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([1.0, 0.0])
    frame = orthonormalize([v1, v2])
    gram = frame.vectors @ frame.vectors.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10


def test_orthonormalize_already_orthonormal_is_bit_stable():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    frame = orthonormalize(q[:3])
    # exact array identity, not just closeness: repeated normalization of an
    # orthonormal frame must not churn the floats
    np.testing.assert_array_equal(frame.vectors, q[:3])


def test_orthonormalize_rejects_empty_and_mismatched():
    with pytest.raises(ValidationError):
        orthonormalize(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        orthonormalize([np.zeros(3)])
    with pytest.raises(ValidationError):
        orthonormalize([[1.0, 0.0], [1.0, 0.0, 0.0]])


def test_orthonormalize_preserves_span(rng):
    vecs = rng.standard_normal((4, 7))
    frame = orthonormalize(vecs)
    assert frame.size == 4
    # every input vector must be reproduced by its frame coefficients
    coeff = vecs @ frame.vectors.T
    np.testing.assert_allclose(coeff @ frame.vectors, vecs, atol=1e-9)


@st.composite
def rows_to_orthonormalize(draw):
    """(V, dropped): m <= n rows in R^n that are random, square (m = n), with
    exact duplicates, with zero rows, or with rows that are combinations of
    earlier ones perturbed by 1e-13...1e-6.  ``dropped`` counts the exactly
    dependent rows; None for the perturbed kind, whose rank is not known."""
    kind = draw(st.sampled_from(["random", "square", "duplicate", "zero", "near"]))
    n = draw(st.integers(1, 12))
    m = n if kind == "square" else draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.standard_normal((m, n))
    hit = [j for j in range(m) if (j > 0 or kind == "zero") and rng.random() < 0.5]
    for j in hit:
        if kind == "zero":
            V[j] = 0.0
        elif kind == "duplicate":
            V[j] = V[rng.integers(0, j)]
        elif kind == "near":
            noise = 10.0 ** rng.uniform(-13, -6) * rng.standard_normal(n)
            V[j] = rng.standard_normal(j) @ V[:j] + noise
    if kind == "near":
        return V, None
    return V, len(hit) if kind in ("zero", "duplicate") else 0


@given(case=rows_to_orthonormalize())
@settings(max_examples=200, deadline=None)
def test_orthonormalize_returns_full_rank_frame_or_names_rank(case):
    """Either one orthonormal row per input row, spanning the input, or a
    ValidationError naming the rank r < m; never a shorter frame."""
    V, dropped = case
    m = V.shape[0]
    try:
        frame = orthonormalize(V)
    except ValidationError as exc:
        found = re.fullmatch(r"rank (\d+) < (\d+): vectors are linearly dependent", str(exc))
        assert found is not None, str(exc)
        rank = int(found[1])
        assert int(found[2]) == m and rank < m
        assert dropped is None or rank == m - dropped
        return
    assert dropped in (0, None)
    assert frame.size == m
    F = frame.vectors
    assert np.max(np.abs(F @ F.T - np.eye(m))) <= DEFAULT_TOL
    np.testing.assert_allclose((V @ F.T) @ F, V, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# frame and family validation


def test_frame_rejects_non_orthonormal_rows():
    with pytest.raises(ValidationError, match="not orthonormal"):
        OrthonormalFrame(np.array([[1.0, 0.0], [1.0, 1e-3]]))


def test_frame_rejects_too_many_vectors():
    with pytest.raises(ValidationError):
        OrthonormalFrame(np.eye(3)[:, :2])


def test_frame_vectors_are_frozen():
    frame = OrthonormalFrame(np.eye(2))
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 5.0


def test_codim_subspace_bounds():
    with pytest.raises(ValidationError):
        SubspaceFamily.from_normals([np.eye(3)])  # k = n
    with pytest.raises(ValidationError, match="rank"):
        SubspaceFamily.from_normals([[e(0, 3), 2.0 * e(0, 3)]])


# ---------------------------------------------------------------------------
# degree of transversality


def test_degree_orthogonal_complement_is_one():
    N = np.array([e(0, 4), e(1, 4)])
    C = orthonormalize([e(0, 4), e(1, 4)])
    assert degree(C, N) == pytest.approx(1.0)


def test_degree_contained_subspace_is_zero():
    N = e(0, 3)  # V = span(e2, e3)
    C = orthonormalize([e(1, 3)])  # inside V
    assert degree(C, N) == pytest.approx(0.0, abs=1e-15)


def test_degree_rotating_line():
    N = e(1, 2)  # V = span(e1)
    for theta in (0.2, 0.9, 1.5):
        C = orthonormalize([[np.cos(theta), np.sin(theta)]])
        assert degree(C, N) == pytest.approx(abs(np.sin(theta)))


def test_degree_matches_dense_sweep_over_unit_circle():
    """For a 2-plane C the unit sphere of C is a circle; sweeping it brutally
    recovers the smallest singular value."""
    rng = np.random.default_rng(17)
    N = orthonormalize(rng.standard_normal((2, 5))).vectors
    C = orthonormalize(rng.standard_normal((2, 5)))
    deg = degree(C, N)
    ts = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
    xs = np.outer(np.cos(ts), C.vectors[0]) + np.outer(np.sin(ts), C.vectors[1])
    sweep = np.min(np.linalg.norm(N @ xs.T, axis=0))
    assert sweep >= deg - 1e-9
    assert sweep == pytest.approx(deg, abs=1e-5)


def test_degree_requires_matching_dims():
    fam = SubspaceFamily.from_normals([[e(0, 4), e(1, 4)]])
    with pytest.raises(ValidationError):
        certify(orthonormalize([e(2, 4)]), fam)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       log_scale=st.floats(-323.0, 0.0))
@example(seed=2, n=2, log_scale=-200.0)  # the candidate's own product is 1 + eps
@settings(max_examples=200, deadline=None)
def test_k1_degrees_are_abs_of_product(seed, n, log_scale):
    """At k = 1 the degrees are |N_j b^T|, clipped to [0, 1]: bit-equal to the
    stacked 1 x 1 SVD at or above LAPACK's rescaling threshold, within 1 ulp
    below it, and 1 where rounding pushes |N_j b^T| above 1."""
    rng = np.random.default_rng(seed)
    b = random_unit(rng, n)
    p = int(rng.integers(n))
    axis = np.eye(n)[p] * rng.choice([-1.0, 1.0])
    # members at exact tiny products t with the axis candidate: the unit
    # vector t e_p + sqrt(1 - t^2) w with w a unit vector orthogonal to e_p
    t = rng.uniform(0.1, 1.0, 4) * rng.choice([-1.0, 1.0], 4) * 10.0 ** log_scale
    w = rng.standard_normal((4, n))
    w[:, p] = 0.0
    w *= (np.sqrt(1.0 - t * t) / np.linalg.norm(w, axis=1))[:, None]
    w[:, p] = t
    normals = np.vstack([b, axis, w, [random_unit(rng, n) for _ in range(4)]])[:, None, :]
    basis = np.stack([b, axis])[:, None, :]

    got = degrees_of_transversality(normals, basis)
    prods = (normals @ np.swapaxes(basis, -1, -2)[..., None, :, :])[..., 0, 0]
    svd = np.clip(np.linalg.svd(prods[..., None, None], compute_uv=False)[..., -1],
                  0.0, 1.0)
    size = np.abs(prods)
    big = size >= LAPACK_SMLNUM
    np.testing.assert_array_equal(got[big], svd[big])
    assert np.all(np.abs(got - svd) <= np.spacing(svd))
    np.testing.assert_array_equal(got, np.minimum(size, 1.0))
    np.testing.assert_array_equal(degrees_of_transversality(normals, b[None]), got[0])


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "rank1", "near", "zero", "rotation"]),
       log_scale=st.sampled_from([-300, -150, -130, 0, 130, 150, 300]))
@settings(max_examples=80, deadline=None)
def test_closed_form_2x2_sigma_min_within_stated_bound(seed, kind, log_scale):
    """The closed-form sigma_min is within 8u sigma_max of the exact value on
    random, rank-1, nearly rank-1, zero and nearly orthogonal blocks scaled by
    10^-300 .. 10^300 (beyond 2^+-450 LAPACK's value is taken); a zero block
    gives exactly 0, and the k = 2 degrees are these values clipped to [0, 1]."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((40, 2, 2))
    if kind == "rank1":
        M[:, 1] = M[:, 0] * rng.standard_normal((40, 1))
    elif kind == "near":
        M[:, 1] = M[:, 0] + 1e-9 * rng.standard_normal((40, 2))
    elif kind == "zero":
        M[::2] = 0.0
    elif kind == "rotation":
        t = rng.uniform(0.0, 2.0 * np.pi, 40)
        M = np.stack([np.stack([np.cos(t), -np.sin(t)], -1),
                      np.stack([np.sin(t) * (1.0 + 1e-10 * rng.standard_normal(40)),
                                np.cos(t)], -1)], 1)
    M *= 10.0 ** log_scale
    got = _sigma_min_2x2(M)
    for m, s in zip(M, got):
        smin, smax = exact_singular_values_2x2(m)
        assert abs(Decimal(float(s)) - smin) <= Decimal(SIGMA_MIN_2X2_TOL) * smax
        if smax == 0:
            assert s == 0.0
    # N_j = [M_j, 0] against B = (e_1, e_2) in R^3 has the product N_j B^T = M_j
    unscaled = M / 10.0 ** log_scale
    normals = np.concatenate([unscaled, np.zeros((40, 2, 1))], axis=2)
    np.testing.assert_array_equal(degrees_of_transversality(normals, np.eye(2, 3)),
                                  np.clip(_sigma_min_2x2(unscaled), 0.0, 1.0))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_degree_bounds_and_unit_vector_domination(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    k = int(rng.integers(1, n - 1))
    N = orthonormalize(rng.standard_normal((k, n))).vectors
    C = orthonormalize(rng.standard_normal((k, n)))
    deg = degree(C, N)
    assert 0.0 <= deg <= 1.0
    for _ in range(20):
        u = random_unit(rng, k)
        x = u @ C.vectors
        assert np.linalg.norm(N @ x) >= deg - 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_degree_invariant_under_basis_change(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    k = int(rng.integers(1, n - 1))
    N = orthonormalize(rng.standard_normal((k, n))).vectors
    B = orthonormalize(rng.standard_normal((k, n))).vectors
    C1 = orthonormalize(B)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    C2 = orthonormalize(q @ B)
    d1 = degree(C1, N)
    d2 = degree(C2, N)
    assert abs(d1 - d2) <= 1e-9
