"""Shared helpers for the test suite."""

import numpy as np
import pytest


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
    for V in family:
        s = np.linalg.svd(V.normals @ C.basis.T, compute_uv=False)
        deltas.append(float(np.clip(s[-1], 0.0, 1.0)))
    return np.array(deltas)
