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

from .geometry import ValidationError, _check_unit, as_vector


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
        return float(np.prod(2.0 * self.halfwidths))

    def face_volumes(self) -> np.ndarray:
        """(n-1)-volume of the face orthogonal to each axis."""
        return self.volume / (2.0 * self.halfwidths)


def box_projection_volume(box: Box, v) -> float:
    """(n-1)-volume of the box's shadow on the hyperplane v-perp.

    Equals sum_i vol(face_i) * |v_i|.  For the cube [-1,1]^n this is
    2^(n-1) * ||v||_1, hence at most 2^(n-1) * sqrt(n) over unit v.
    """
    v = as_vector(v)
    if v.size != box.dim:
        raise ValidationError(f"direction dim {v.size} vs box dim {box.dim}")
    _check_unit(v[None], "direction")
    return float(box.face_volumes() @ np.abs(v))


def slab_measure_bound(box: Box, v, delta: float) -> float:
    """Upper bound 2 * delta * shadow_volume for vol({y in box: |<y,v>| <= delta})."""
    if not 0 < delta < math.inf:
        raise ValidationError("delta must be positive and finite")
    return 2.0 * float(delta) * box_projection_volume(box, v)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float


#: Fiber samples drawn per chunk in mc_shadow_volume.
_SHADOW_CHUNK = 1 << 16


def mc_shadow_volume(box: Box, v, samples: int, seed: int) -> McEstimate:
    """Monte Carlo oracle for the shadow volume, independent of the closed form.

    Draws ``samples`` points of the hyperplane v-perp, uniform over the
    shadow's bounding box, from numpy's default generator seeded with
    ``seed``, and counts hits, where a point z is a hit iff the fiber line
    {z + t v} meets the box (a 1-D interval intersection, solved exactly).
    Fibers are drawn in chunks of _SHADOW_CHUNK, so memory stays bounded at
    any sample count.  For n <= 2 the bounding box is the shadow itself
    (the point {0} at n = 1, the corner-projection interval at n = 2): every
    fiber hits and the estimate is exact, with stderr 0.

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
    h = box.halfwidths

    # orthonormal basis of v-perp from the full SVD of v as a row
    _, _, vt = np.linalg.svd(v[None, :], full_matrices=True)
    w_basis = vt[1:]  # (n-1) x n, empty at n = 1

    corners = np.array(np.meshgrid(*[(-hh, hh) for hh in h])).reshape(n, -1).T
    corner_proj = corners @ w_basis.T
    lo = corner_proj.min(axis=0)
    hi = corner_proj.max(axis=0)
    bbox_vol = float(np.prod(hi - lo))

    hits = 0
    for start in range(0, samples, _SHADOW_CHUNK):
        m = min(_SHADOW_CHUNK, samples - start)
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
    return McEstimate(bbox_vol * p,
                      bbox_vol * float(np.sqrt(p * (1.0 - p) / samples)))


__all__ = [
    "Box",
    "McEstimate",
    "box_projection_volume",
    "slab_measure_bound",
    "mc_shadow_volume",
]
