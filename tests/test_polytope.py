"""Box shadow volumes and slab measure bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transversal import polytope
from transversal.geometry import ValidationError
from transversal.polytope import (
    Box,
    box_projection_volume,
    mc_shadow_volume,
    slab_measure_bound,
)
from transversal.separator import RAW_MARGIN

from conftest import mc_slab_measure, random_unit


def cube(n):
    return Box(np.ones(n))


# ---------------------------------------------------------------------------
# closed form


def test_axis_shadow_is_half_the_faces():
    for n in range(1, 6):
        v = np.zeros(n)
        v[0] = 1.0
        assert box_projection_volume(cube(n), v) == pytest.approx(2.0 ** (n - 1))


def test_cube_shadow_is_l1_norm(rng):
    for n in (2, 3, 5, 8):
        v = random_unit(rng, n)
        got = box_projection_volume(cube(n), v)
        assert got == pytest.approx(2.0 ** (n - 1) * np.sum(np.abs(v)))
        assert got <= 2.0 ** (n - 1) * np.sqrt(n) + 1e-12


def test_diagonal_shadow_2d():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    assert box_projection_volume(cube(2), v) == pytest.approx(2.0 * np.sqrt(2))


def test_rejects_non_unit_direction():
    with pytest.raises(ValidationError, match="unit"):
        box_projection_volume(cube(2), np.array([1.0, 1.0]))


def test_rejects_dimension_mismatch():
    with pytest.raises(ValidationError):
        box_projection_volume(cube(3), np.array([1.0, 0.0]))


def test_box_validation():
    with pytest.raises(ValidationError):
        Box(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        Box(np.array([1.0, -2.0]))
    b = Box(np.array([0.5, 2.0]))
    assert b.volume == pytest.approx(4.0)
    # the shadow along an axis is the face orthogonal to it
    assert [box_projection_volume(b, e) for e in np.eye(2)] == pytest.approx([4.0, 1.0])


@pytest.mark.parametrize("h, v, expected", [
    pytest.param([1e154, 1e154], [1.0, 1.0], 2.0 * np.sqrt(2.0) * 1e154, id="1e154"),
    pytest.param([1e-200, 1e-200], [1.0, 1.0], 2.0 * np.sqrt(2.0) * 1e-200, id="1e-200"),
    pytest.param([1e308, 1.0], [1.0, 0.0], 2.0, id="huge-box-small-face"),
    pytest.param([1e200, 1.0, 1.0], [1.0, 0.0, 0.0], 4.0, id="tiny-faces-beside-a-huge-one"),
    pytest.param([1e308, 1.0], [0.0, 1.0], np.inf, id="overflowing-face"),
    # the box volume 8e200 is finite, but 2e200 * 2e200 is not
    pytest.param([1e200, 1e200, 1e-200], [1.0, 0.0, 0.0], 4.0, id="finite-face"),
    # 1100 halfwidth mantissas 1/2 multiply to 2^-1100 before renormalizing
    pytest.param(np.full(1100, 0.5), np.eye(1100)[0], 1.0, id="n1100-unit-faces"),
])
def test_shadow_volume_over_and_underflows_only_with_its_value(h, v, expected):
    """The shadow volume is formed without the whole box volume, so it is inf
    or 0.0 only where the value itself leaves float64's range."""
    v = np.asarray(v) / np.linalg.norm(v)
    got = box_projection_volume(Box(np.asarray(h)), v)
    assert got == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("h, v, expected", [
    pytest.param([1e154, 1e154], [1.0, 1.0], 2.0 * np.sqrt(2.0) * 1e154, id="1e154"),
    pytest.param([1e-200, 1e-200], [1.0, 1.0], 2.0 * np.sqrt(2.0) * 1e-200, id="1e-200"),
    pytest.param([1e308, 1.0], [1.0, 0.0], 2.0, id="huge-box-small-shadow"),
    pytest.param([1e308, 1.0], [0.0, 1.0], np.inf, id="overflowing-shadow"),
    pytest.param([1e200, 1.0, 1.0], [1.0, 0.0, 0.0], 4.0, id="tiny-faces-beside-a-huge-one"),
    pytest.param([1e300, 1e-24], [1.0, 1.0], np.sqrt(2.0) * 1e300, id="aspect-1e324"),
])
def test_shadow_oracle_on_extreme_boxes(h, v, expected):
    """Boxes whose bounding box or fiber parameters leave float64's range
    draw without OverflowError, and the estimate is inf only where the
    shadow volume overflows (n = 2 is exact, and at n = 3 every fiber along
    an axis hits)."""
    v = np.asarray(v) / np.linalg.norm(v)
    est = mc_shadow_volume(Box(np.asarray(h)), v, samples=20_000, seed=4)
    assert est.estimate == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shadow_oracle_scales_huge_boxes_exactly(n):
    """A box 2^1000 times an ordinary one is drawn scaled down by a power of
    two: the same hits, so the estimate is the ordinary one times
    2^(1000 (n - 1)), bit for bit."""
    rng = np.random.default_rng(30 + n)
    h = rng.uniform(0.3, 2.0, n)
    v = random_unit(rng, n)
    small = mc_shadow_volume(Box(h), v, samples=20_000, seed=5)
    huge = mc_shadow_volume(Box(np.ldexp(h, 1000)), v, samples=20_000, seed=5)
    with np.errstate(over="ignore"):
        assert huge.estimate == np.ldexp(small.estimate, 1000 * (n - 1))
        assert huge.stderr == np.ldexp(small.stderr, 1000 * (n - 1))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_shadow_invariant_under_signed_permutations(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    h = rng.uniform(0.2, 3.0, size=n)
    v = random_unit(rng, n)
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    base = box_projection_volume(Box(h), v)
    mapped = box_projection_volume(Box(h[perm]), signs * v[perm])
    assert mapped == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# slab bounds


def test_axis_slab_bound_is_tight():
    for n in (2, 4):
        v = np.zeros(n)
        v[0] = 1.0
        delta = 0.125
        bound = slab_measure_bound(cube(n), v, delta)
        assert bound == pytest.approx(2.0 * delta * 2.0 ** (n - 1))
        est = mc_slab_measure(cube(n), v, delta, samples=200_000, seed=5)
        # axis slabs achieve the bound exactly
        assert abs(est.estimate - bound) <= 3.0 * est.stderr


def test_diagonal_slab_bound_dominates_mc():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    bound = slab_measure_bound(cube(2), v, 0.1)
    assert bound == pytest.approx(0.2 * 2.0 * np.sqrt(2))
    est = mc_slab_measure(cube(2), v, 0.1, samples=200_000, seed=6)
    assert est.estimate <= bound + 3.0 * est.stderr


def test_shrinking_box_slab_bounds_sum_to_half_volume():
    """With halfwidths j^-2 and slab widths (3/pi^2) j^-5, the per-index
    analytic majorants delta_j * j^3 * vol sum to vol/2 as m grows."""
    m = 400
    box = Box(np.arange(1.0, m + 1.0) ** -2.0)
    js = np.arange(1.0, m + 1.0)
    deltas = RAW_MARGIN * js ** -5.0
    partial = float(np.sum(deltas * js ** 3))  # sum of per-index bounds / vol
    assert partial < 0.5
    assert partial == pytest.approx(0.5, abs=1.0 / m)
    # and the closed-form shadow volume never exceeds the majorant that the
    # half-volume estimate rests on, for adapted (triangular) unit directions;
    # on the first 100 halfwidths, as the 400-dimensional volume underflows
    head = Box(box.halfwidths[:100])
    assert head.volume > 0
    rng = np.random.default_rng(8)
    for j in (1, 3, 7, 50):
        v = np.zeros(100)
        r = rng.standard_normal(j)
        v[:j] = r / np.linalg.norm(r)
        assert slab_measure_bound(head, v, deltas[j - 1]) <= \
            deltas[j - 1] * j ** 3 * head.volume * (1 + 1e-12)


def test_slab_covering_box_is_exact():
    v = random_unit(np.random.default_rng(9), 3)
    box = Box(np.array([0.5, 1.0, 0.25]))
    diameter = 2.0 * np.linalg.norm(box.halfwidths)
    est = mc_slab_measure(box, v, delta=diameter, samples=1000, seed=10)
    assert est.estimate == pytest.approx(box.volume)
    assert est.stderr == 0.0


def test_thousand_random_slab_triples_respect_bound():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        box = Box(rng.uniform(0.2, 2.5, size=n))
        v = random_unit(rng, n)
        delta = float(rng.uniform(0.01, 0.5))
        est = mc_slab_measure(box, v, delta, samples=1000,
                              seed=int(rng.integers(2**31)))
        assert est.estimate <= slab_measure_bound(box, v, delta) + 3.0 * est.stderr


# ---------------------------------------------------------------------------
# shadow oracle


def test_shadow_oracle_2d_diagonal():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    est = mc_shadow_volume(cube(2), v, samples=1_000_000, seed=12)
    assert est.estimate == pytest.approx(2.0 * np.sqrt(2), rel=0.01)
    # at n = 2 every fiber over the corner-projection interval hits
    assert est.stderr == 0.0
    assert est.estimate == pytest.approx(2.0 * np.sqrt(2), rel=1e-12)


def test_shadow_oracle_3d_matches_closed_form():
    rng = np.random.default_rng(13)
    box = Box(np.array([1.0, 0.7, 1.4]))
    v = random_unit(rng, 3)
    exact = box_projection_volume(box, v)
    est = mc_shadow_volume(box, v, samples=400_000, seed=14)
    assert est.estimate == pytest.approx(exact, rel=0.02)


def test_shadow_oracle_4d_matches_closed_form():
    rng = np.random.default_rng(15)
    box = Box(rng.uniform(0.4, 1.6, size=4))
    v = random_unit(rng, 4)
    exact = box_projection_volume(box, v)
    est = mc_shadow_volume(box, v, samples=400_000, seed=16)
    assert est.estimate == pytest.approx(exact, rel=0.02)


def test_shadow_oracle_handles_axis_directions():
    # fibers parallel to an axis exercise the zero-component path
    est = mc_shadow_volume(cube(3), np.array([0.0, 0.0, 1.0]),
                           samples=100_000, seed=17)
    assert est.estimate == pytest.approx(4.0, rel=0.02)


def test_shadow_oracle_1d_is_trivial():
    est = mc_shadow_volume(cube(1), np.array([1.0]), samples=1000, seed=18)
    assert est.estimate == 1.0


@pytest.mark.parametrize("n", [3, 4])
def test_shadow_oracle_chunks_match_one_draw(n, monkeypatch):
    """Chunks consume the uniform stream in order, so a sample count that
    straddles three chunk boundaries gives the bits of a single draw."""
    rng = np.random.default_rng(20 + n)
    box = Box(rng.uniform(0.4, 1.6, size=n))
    v = random_unit(rng, n)
    samples = 3 * (polytope._BLOCK_CELLS // n) + 17
    chunked = mc_shadow_volume(box, v, samples=samples, seed=21)
    monkeypatch.setattr(polytope, "_BLOCK_CELLS", n * (samples + 1))
    whole = mc_shadow_volume(box, v, samples=samples, seed=21)
    assert chunked == whole


def test_shadow_oracle_memory_is_bounded():
    """Chunks of _BLOCK_CELLS // n fibers; the peak was 8.0 MB at 2^16."""
    box = Box(np.array([1.0, 0.5, 0.25, 0.125]))
    v = np.array([1.0, 2.0, 3.0, 4.0]) / np.sqrt(30.0)
    tracemalloc.start()
    try:
        mc_shadow_volume(box, v, samples=1_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_shadow_oracle_rejects_high_dimension():
    with pytest.raises(ValidationError, match="up to 4"):
        mc_shadow_volume(cube(5), random_unit(np.random.default_rng(19), 5),
                         samples=1_000_000, seed=0)


def test_mc_estimators_are_deterministic():
    v = np.array([3.0, 4.0]) / 5.0
    a = mc_slab_measure(cube(2), v, 0.2, samples=5000, seed=77)
    b = mc_slab_measure(cube(2), v, 0.2, samples=5000, seed=77)
    assert a == b
    c = mc_shadow_volume(cube(2), v, samples=5000, seed=77)
    d = mc_shadow_volume(cube(2), v, samples=5000, seed=77)
    assert c == d
