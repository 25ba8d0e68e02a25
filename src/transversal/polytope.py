"""Axis-aligned boxes: shadow volumes on hyperplanes and slab measure bounds.

The shadow of a box under orthogonal projection onto the hyperplane v-perp
has an exact closed form (a sum of face volumes weighted by |v_i|).  Slabs
{|<y, v>| <= delta} intersected with the box are bounded by twice the slab
width times that shadow volume.  A Monte Carlo fiber estimator, drawn in
chunks, cross-checks the shadow volume for n <= 4; it is exact (stderr 0)
for n <= 2, where every fiber over the shadow's bounding box hits.  Each
chunk's uniforms go into one buffer made per call and are mapped into the
bounding box in place, bit for bit numpy's rng.uniform; they are projected
by one GEMM into a second buffer, and each axis bounds the fiber parameter
by two ends whose order the sign of v_i fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _BLOCK_CELLS, ValidationError, _check_unit, _keyed_rng, as_vector


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
    shadow's bounding box, from _keyed_rng(seed), and counts hits, where a
    point z is a hit iff the fiber line {z + t v} meets the box (a 1-D
    interval intersection, solved exactly).  Fibers are drawn in chunks of
    _BLOCK_CELLS // n, so memory stays bounded at any sample count.  Each
    chunk fills one buffer, made once per call, by rng.random() and maps it
    into the bounding box in place as lo + (hi - lo) * u, which is what
    rng.uniform(lo, hi) computes from the same stream; np.matmul projects it
    into a second buffer.  Axis i bounds the fiber parameter t by (-h_i -
    z_i) / v_i and (h_i - z_i) / v_i, the lower end first when v_i > 0 and
    last when v_i < 0; rounding is monotone, so that order is the one
    np.minimum and np.maximum would find, and both running ends are
    tightened in place.  An axis with |v_i| < 1e-15 tests |z_i| <= h_i
    instead.  A box whose largest halfwidth reaches 2^_SHADOW_MAX_EXP is
    drawn scaled down by a power of two, which is exact, and the bounding
    box's volume is formed from mantissas and exponents: the estimate is inf
    or 0.0 only where it leaves float64's range, and the draws of every
    other box are unchanged.  For n <= 2 the bounding box is the shadow
    itself (the point {0} at n = 1, the corner-projection interval at n =
    2): every fiber hits and the estimate is exact, with stderr 0.

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
    rng = _keyed_rng(seed)
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
    chunk = min(samples, max(1, _BLOCK_CELLS // n))
    # rng.uniform(lo, hi) is lo + (hi - lo) * u of rng.random()'s u
    draws = np.empty(chunk * (n - 1))
    scale, offset = np.tile(hi - lo, chunk), np.tile(lo, chunk)
    base = np.empty((chunk, n))
    t_lo, t_hi, end = np.empty(chunk), np.empty(chunk), np.empty(chunk)
    inside = np.empty(chunk, dtype=bool)
    flat = [i for i in range(n) if abs(v[i]) < 1e-15]
    for start in range(0, samples, chunk):
        m = min(chunk, samples - start)
        d = rng.random(out=draws[:m * (n - 1)])
        d *= scale[:d.size]
        d += offset[:d.size]
        z = np.matmul(d.reshape(m, n - 1), w_basis, out=base[:m])  # <z, v> = 0
        lower, upper = t_lo[:m], t_hi[:m]
        lower.fill(-np.inf)
        upper.fill(np.inf)
        for i in range(n):
            if i in flat:
                continue
            # rounding is monotone, so the sign of v_i orders the two ends
            ends = (-h[i], h[i]) if v[i] > 0 else (h[i], -h[i])
            for edge, bound, tighten in zip(ends, (lower, upper), (np.maximum, np.minimum)):
                np.subtract(edge, z[:, i], out=end[:m])
                end[:m] /= v[i]
                tighten(bound, end[:m], out=bound)
        ok = np.less_equal(lower, upper, out=inside[:m])
        for i in flat:
            ok &= np.abs(z[:, i]) <= h[i]
        hits += int(np.count_nonzero(ok))
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
    "mc_shadow_volume",
    "slab_measure_bound",
]
