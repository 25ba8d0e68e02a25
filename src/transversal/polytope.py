"""Axis-aligned boxes: shadow volumes on hyperplanes and slab measure bounds.

The shadow of a box under orthogonal projection onto the hyperplane v-perp
has an exact closed form (a sum of face volumes weighted by |v_i|).  Slabs
{|<y, v>| <= delta} intersected with the box are bounded by twice the slab
width times that shadow volume.  A Monte Carlo fiber estimator, drawn in
chunks, cross-checks the shadow volume for n <= 4; it is exact (stderr 0)
for n <= 2, where every fiber over the shadow's bounding box hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _BLOCK_CELLS, ValidationError, _check_unit, as_vector


@dataclass(frozen=True)
class Box:
    """Centered box prod_i [-h_i, h_i] with strictly positive halfwidths h."""

    halfwidths: np.ndarray

    def __post_init__(self):
        h = as_vector(self.halfwidths)
        if np.any(h <= 0):
            raise ValidationError("halfwidths must be strictly positive")
        h = h.copy()
        h.setflags(write=False)
        object.__setattr__(self, "halfwidths", h)

    @property
    def dim(self) -> int:
        return self.halfwidths.size

    @property
    def volume(self) -> float:
        """prod_i 2 h_i; inf or 0.0 only where the true volume over- or
        underflows float64."""
        mant, exp, _, _ = _volume_parts(self.halfwidths)
        with np.errstate(over="ignore"):
            return float(np.ldexp(mant, exp))


#: Halfwidth mantissas multiplied before each renormalization in
#: _volume_parts; a product of 512 of them stays above 2^-512.
_MANTISSA_RUN = 512


def _volume_parts(h: np.ndarray):
    """(mant, exp, m, e) with prod_i 2 h_i = mant * 2^exp and h = m * 2^e
    (np.frexp, m in [1/2, 1)), formed without over- or underflow.

    The face orthogonal to axis i, of volume prod_l 2 h_l / (2 h_i), is then
    (mant / m_i) * 2^(exp - e_i - 1), with mant / m_i in [1/2, 2).
    """
    m, e = np.frexp(h)
    mant, exp = 1.0, int(e.sum()) + h.size
    for start in range(0, h.size, _MANTISSA_RUN):
        mant, shift = math.frexp(mant * float(np.prod(m[start:start + _MANTISSA_RUN])))
        exp += shift
    return mant, exp, m, e


def box_projection_volume(box: Box, v) -> float:
    """(n-1)-volume of the box's shadow on the hyperplane v-perp.

    Equals sum_i vol(face_i) * |v_i|.  For the cube [-1,1]^n this is
    2^(n-1) * ||v||_1, hence at most 2^(n-1) * sqrt(n) over unit v.  The
    faces are summed as mantissas against their largest exponent among the
    axes with v_i != 0, so the value is inf or 0.0 only where the true
    shadow volume over- or underflows float64.
    """
    v = as_vector(v)
    if v.size != box.dim:
        raise ValidationError(f"direction dim {v.size} vs box dim {box.dim}")
    _check_unit(v[None], "direction")
    mant, exp, m, e = _volume_parts(box.halfwidths)
    face_exp = exp - e - 1
    top = int(face_exp[v != 0].max())
    total = float(np.sum(np.ldexp(np.abs(v) / m, face_exp - top)))
    with np.errstate(over="ignore"):
        return float(np.ldexp(mant * total, top))


def slab_measure_bound(box: Box, v, delta: float) -> float:
    """Upper bound 2 * delta * shadow_volume for vol({y in box: |<y,v>| <= delta})."""
    if not 0 < delta < math.inf:
        raise ValidationError("delta must be positive and finite")
    return 2.0 * float(delta) * box_projection_volume(box, v)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float


#: Halfwidths below 2^971 keep every fiber parameter (+-h_i - z_i) / v_i,
#: with |z_i| <= 4 max h and |v_i| >= 1e-15, below 2^1024.
_SHADOW_MAX_EXP = 971


def mc_shadow_volume(box: Box, v, samples: int, seed: int) -> McEstimate:
    """Monte Carlo oracle for the shadow volume, independent of the closed form.

    Draws ``samples`` points of the hyperplane v-perp, uniform over the
    shadow's bounding box, from numpy's default generator seeded with
    ``seed``, and counts hits, where a point z is a hit iff the fiber line
    {z + t v} meets the box (a 1-D interval intersection, solved exactly).
    Fibers are drawn in chunks of _BLOCK_CELLS // n, so memory stays bounded
    at any sample count.  A box whose largest halfwidth reaches 2^_SHADOW_MAX_EXP
    is drawn scaled down by a power of two, which is exact, and the bounding
    box's volume is formed from mantissas and exponents: the estimate is inf
    or 0.0 only where it leaves float64's range, and the draws of every
    other box are unchanged.  For n <= 2 the bounding box is the shadow
    itself (the point {0} at n = 1, the corner-projection interval at
    n = 2): every fiber hits and the estimate is exact, with stderr 0.

    Only n <= 4 is supported.
    """
    v = as_vector(v)
    n = box.dim
    if v.size != n:
        raise ValidationError(f"direction dim {v.size} vs box dim {n}")
    _check_unit(v[None], "direction")
    if samples < 1000:
        raise ValidationError("need at least 1000 samples")
    if n > 4:
        raise ValidationError("shadow oracle supports dimensions up to 4")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    shift = max(0, int(np.frexp(box.halfwidths.max())[1]) - _SHADOW_MAX_EXP)
    h = np.ldexp(box.halfwidths, -shift)

    # orthonormal basis of v-perp from the full SVD of v as a row
    _, _, vt = np.linalg.svd(v[None, :], full_matrices=True)
    w_basis = vt[1:]  # (n-1) x n, empty at n = 1

    corners = np.array(np.meshgrid(*[(-hh, hh) for hh in h])).reshape(n, -1).T
    corner_proj = corners @ w_basis.T
    lo = corner_proj.min(axis=0)
    hi = corner_proj.max(axis=0)
    extent, extent_exp = np.frexp(hi - lo)
    bbox_mant = float(np.prod(extent))

    hits = 0
    chunk = max(1, _BLOCK_CELLS // n)
    for start in range(0, samples, chunk):
        m = min(chunk, samples - start)
        base = rng.uniform(lo, hi, size=(m, n - 1)) @ w_basis  # <base, v> = 0
        t_lo = np.full(m, -np.inf)
        t_hi = np.full(m, np.inf)
        feasible = np.ones(m, dtype=bool)
        for i in range(n):
            if abs(v[i]) < 1e-15:
                feasible &= np.abs(base[:, i]) <= h[i]
                continue
            a = (-h[i] - base[:, i]) / v[i]
            b = (h[i] - base[:, i]) / v[i]
            t_lo = np.maximum(t_lo, np.minimum(a, b))
            t_hi = np.minimum(t_hi, np.maximum(a, b))
        hits += int(np.count_nonzero(feasible & (t_lo <= t_hi)))
    p = hits / samples
    with np.errstate(over="ignore"):
        estimate, stderr = np.ldexp(
            [bbox_mant * p, bbox_mant * np.sqrt(p * (1.0 - p) / samples)],
            int(extent_exp.sum()) + shift * (n - 1))
    return McEstimate(float(estimate), float(stderr))


__all__ = [
    "Box",
    "McEstimate",
    "box_projection_volume",
    "slab_measure_bound",
    "mc_shadow_volume",
]
