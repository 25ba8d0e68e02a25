"""Axis-aligned boxes: shadow volumes on hyperplanes and slab measure bounds.

The shadow of a box under orthogonal projection onto the hyperplane v-perp
has an exact closed form (a sum of face volumes weighted by |v_i|).  Slabs
{|<y, v>| <= delta} intersected with the box are bounded by twice the slab
width times that shadow volume.  A Monte Carlo estimator cross-checks the
shadow volume.
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

    @property
    def diameter(self) -> float:
        return float(2.0 * np.linalg.norm(self.halfwidths))

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
    samples: int


def mc_shadow_volume(box: Box, v, samples: int = 1_000_000, seed: int = 0) -> McEstimate:
    """Monte Carlo oracle for the shadow volume, independent of the closed form.

    n = 2: projects uniform box samples onto the line v-perp and measures the
    covered length as a union of occupied bins.

    n = 3, 4: samples the plane v-perp uniformly over the shadow's bounding
    box and counts hits, where a point z is a hit iff the fiber line
    {z + t v} meets the box (a 1-D interval intersection, solved exactly).
    Projected-sample bin occupancy is biased here because the projected
    density vanishes at the shadow boundary, so the fiber test is used
    instead.

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
    rng = np.random.default_rng(seed)
    h = box.halfwidths

    if n == 1:
        # the shadow lives in the 0-dimensional space {0}; its measure is 1
        return McEstimate(1.0, 0.0, samples)

    if n == 2:
        w = np.array([-v[1], v[0]])  # unit spanning vector of v-perp
        proj = rng.uniform(-h, h, size=(samples, 2)) @ w
        lo, hi = float(proj.min()), float(proj.max())
        nbins = 2000
        counts, _ = np.histogram(proj, bins=nbins, range=(lo, hi))
        width = (hi - lo) / nbins
        covered = float(np.count_nonzero(counts)) * width
        return McEstimate(covered, 2.0 * width, samples)

    # n in {3, 4}: orthonormal basis of v-perp from the full SVD of v as a row
    _, _, vt = np.linalg.svd(v[None, :], full_matrices=True)
    w_basis = vt[1:]  # (n-1) x n

    corners = np.array(np.meshgrid(*[(-hh, hh) for hh in h])).reshape(n, -1).T
    corner_proj = corners @ w_basis.T
    lo = corner_proj.min(axis=0)
    hi = corner_proj.max(axis=0)
    bbox_vol = float(np.prod(hi - lo))

    z = rng.uniform(lo, hi, size=(samples, n - 1))
    base = z @ w_basis  # ambient points with <base, v> = 0
    t_lo = np.full(samples, -np.inf)
    t_hi = np.full(samples, np.inf)
    feasible = np.ones(samples, dtype=bool)
    for i in range(n):
        if abs(v[i]) < 1e-15:
            feasible &= np.abs(base[:, i]) <= h[i]
            continue
        a = (-h[i] - base[:, i]) / v[i]
        b = (h[i] - base[:, i]) / v[i]
        lo_i = np.minimum(a, b)
        hi_i = np.maximum(a, b)
        t_lo = np.maximum(t_lo, lo_i)
        t_hi = np.minimum(t_hi, hi_i)
    hits = int(np.count_nonzero(feasible & (t_lo <= t_hi)))
    p = hits / samples
    return McEstimate(bbox_vol * p,
                      bbox_vol * float(np.sqrt(p * (1.0 - p) / samples)),
                      samples)


__all__ = [
    "Box",
    "McEstimate",
    "box_projection_volume",
    "slab_measure_bound",
    "mc_shadow_volume",
]
