"""Frames, orthonormalization, and the transversality functional."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transversal.geometry import (
    OrthonormalFrame,
    ValidationError,
    degrees_of_transversality,
    orthonormalize,
)
from transversal.separator import SubspaceFamily, certify

from conftest import random_unit, span


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def degree(C, N):
    """Degree of transversality of C to the one member with normal frame N."""
    return float(degrees_of_transversality(np.atleast_2d(N)[None], C.basis)[0])


# ---------------------------------------------------------------------------
# orthonormalize


def test_orthonormalize_keeps_orthonormal_input():
    frame = orthonormalize([e(0, 3), e(1, 3)])
    np.testing.assert_array_equal(frame.vectors, np.eye(3)[:2])


def test_orthonormalize_drops_dependent_vector():
    frame = orthonormalize([e(0, 3), 2.0 * e(0, 3)])
    assert frame.size == 1
    np.testing.assert_allclose(np.abs(frame.vectors[0]), e(0, 3))


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


# ---------------------------------------------------------------------------
# frame and family validation


def test_frame_rejects_non_orthonormal_rows():
    with pytest.raises(ValidationError, match="not orthonormal"):
        OrthonormalFrame(np.array([[1.0, 0.0], [1.0, 1e-3]]), 2)


def test_frame_rejects_too_many_vectors():
    with pytest.raises(ValidationError):
        OrthonormalFrame(np.eye(3), 2)


def test_frame_vectors_are_frozen():
    frame = OrthonormalFrame(np.eye(2), 2)
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
    C = span([e(0, 4), e(1, 4)])
    assert degree(C, N) == pytest.approx(1.0)


def test_degree_contained_subspace_is_zero():
    N = e(0, 3)  # V = span(e2, e3)
    C = span([e(1, 3)])  # inside V
    assert degree(C, N) == pytest.approx(0.0, abs=1e-15)


def test_degree_rotating_line():
    N = e(1, 2)  # V = span(e1)
    for theta in (0.2, 0.9, 1.5):
        C = span([[np.cos(theta), np.sin(theta)]])
        assert degree(C, N) == pytest.approx(abs(np.sin(theta)))


def test_degree_matches_dense_sweep_over_unit_circle():
    """For a 2-plane C the unit sphere of C is a circle; sweeping it brutally
    recovers the smallest singular value."""
    rng = np.random.default_rng(17)
    N = orthonormalize(rng.standard_normal((2, 5))).vectors
    C = span(rng.standard_normal((2, 5)))
    deg = degree(C, N)
    ts = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
    xs = np.outer(np.cos(ts), C.basis[0]) + np.outer(np.sin(ts), C.basis[1])
    sweep = np.min(np.linalg.norm(N @ xs.T, axis=0))
    assert sweep >= deg - 1e-9
    assert sweep == pytest.approx(deg, abs=1e-5)


def test_degree_requires_matching_dims():
    fam = SubspaceFamily.from_normals([[e(0, 4), e(1, 4)]])
    with pytest.raises(ValidationError):
        certify(span([e(2, 4)]), fam)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_degree_bounds_and_unit_vector_domination(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    k = int(rng.integers(1, n - 1))
    N = orthonormalize(rng.standard_normal((k, n))).vectors
    C = span(orthonormalize(rng.standard_normal((k, n))).vectors)
    deg = degree(C, N)
    assert 0.0 <= deg <= 1.0
    for _ in range(20):
        u = random_unit(rng, k)
        x = u @ C.basis
        assert np.linalg.norm(N @ x) >= deg - 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_degree_invariant_under_basis_change(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    k = int(rng.integers(1, n - 1))
    N = orthonormalize(rng.standard_normal((k, n))).vectors
    B = orthonormalize(rng.standard_normal((k, n))).vectors
    C1 = span(B)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    C2 = span(orthonormalize(q @ B).vectors)
    d1 = degree(C1, N)
    d2 = degree(C2, N)
    assert abs(d1 - d2) <= 1e-9
