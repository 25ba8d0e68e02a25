"""Rejection samplers, adapted bases, the line bound, and the recursion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transversal import familyio, separator
from transversal.geometry import (
    ConstructionError,
    ValidationError,
    degrees_of_transversality,
    orthonormalize,
)
from transversal.separator import (
    BOX_CONSTANT,
    LINE_CONSTANT,
    NORM_CAP,
    RAW_MARGIN,
    ComplementResult,
    RejectionStats,
    SubspaceFamily,
    adapt_basis,
    certify,
    common_complement,
    decay_fit_prefixes,
    derive_seeds,
    is_well_separating,
    random_subspace_family,
    sample_box_separator,
)

from conftest import (
    SIGMA_MIN_2X2_TOL,
    box_parameters,
    cube_parameters,
    line_min_norm,
    loop_certify,
    mgs_adapt_basis,
    null_basis,
    random_unit,
    triangular_unit_rows,
)


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_analytic_constants():
    assert RAW_MARGIN == pytest.approx(3.0 / np.pi**2)
    assert NORM_CAP == pytest.approx(np.pi**2 / np.sqrt(90.0))
    assert BOX_CONSTANT == pytest.approx(3.0 * np.sqrt(90.0) / np.pi**4)
    assert BOX_CONSTANT == pytest.approx(0.2922, abs=5e-5)
    assert LINE_CONSTANT == pytest.approx(1.0 / np.sqrt(5.0))


# ---------------------------------------------------------------------------
# the sampler on the cube [-1, 1]^n


def test_cube_sampler_one_dimension():
    x, deltas, stats = sample_box_separator(np.array([[1.0]]), *cube_parameters(1, 1),
                                            seed=0)
    assert abs(x[0]) == pytest.approx(1.0)
    assert deltas[0] == pytest.approx(0.5)
    assert stats.accepted == 1


def test_cube_sampler_single_hyperplane_r2():
    x, deltas, _ = sample_box_separator(e(1, 2)[None, :], *cube_parameters(1, 2), seed=1)
    assert deltas[0] == pytest.approx(0.25)
    assert abs(x[1]) >= 0.25


def test_cube_sampler_more_normals_than_dimensions():
    rng = np.random.default_rng(2)
    vs = rng.standard_normal((20, 10))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    x, deltas, _ = sample_box_separator(vs, *cube_parameters(20, 10), seed=3)
    np.testing.assert_allclose(deltas, 0.5 / (20 * 10))
    assert np.all(np.abs(vs @ x) >= deltas)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_cube_sampler_acceptance_rate():
    """Pooled per-draw acceptance over 10^4 constructions stays above the
    half-volume floor."""
    rng = np.random.default_rng(4)
    vs = rng.standard_normal((20, 10))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    attempted = accepted = 0
    for i in range(10_000):
        _, _, stats = sample_box_separator(vs, *cube_parameters(20, 10), seed=10_000 + i)
        attempted += stats.attempted
        accepted += stats.accepted
    rate = accepted / attempted
    se = np.sqrt(rate * (1.0 - rate) / attempted)
    assert rate >= 0.5 - 3.0 * se


def test_cube_sampler_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="not unit"):
        sample_box_separator(np.array([[1.0, 1.0]]), *cube_parameters(1, 2), seed=0)


@pytest.mark.parametrize("n, J", [(6, 50), (12, 40)])
def test_cube_sampler_accepts_the_equality_case(n, J):
    """J copies of (1, ..., 1)/sqrt(n) fill exactly half the cube with slabs;
    the summed shares round to just above 1/2 at these shapes."""
    vs = np.tile(np.ones(n) / np.sqrt(n), (J, 1))
    x, deltas, _ = sample_box_separator(vs, *cube_parameters(J, n), seed=0)
    assert np.all(np.abs(vs @ x) >= deltas)


def test_cube_sampler_exhaustion_is_construction_error(monkeypatch):
    # one try against 40 tight normals in R^2 makes failure plausible;
    # scan seeds until one rejects, then check the raised type
    monkeypatch.setattr(separator, "DEFAULT_MAX_TRIES", 1)
    rng = np.random.default_rng(5)
    vs = rng.standard_normal((40, 2))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    for seed in range(200):
        try:
            sample_box_separator(vs, *cube_parameters(40, 2), seed=seed)
        except ConstructionError:
            return
    pytest.fail("no rejection observed in 200 single-try runs")


# ---------------------------------------------------------------------------
# adapted bases


def test_adapt_basis_already_adapted():
    frame, coords = adapt_basis([e(0, 4), e(1, 4)])
    np.testing.assert_array_equal(frame.vectors, np.eye(4)[:2])
    np.testing.assert_allclose(coords, np.eye(2, 2), atol=1e-12)


def test_adapt_basis_dependent_pair_gets_filler():
    frame, coords = adapt_basis([e(0, 3), e(0, 3)])
    assert frame.size == 2
    np.testing.assert_allclose(frame.vectors[0], e(0, 3))
    assert abs(np.dot(frame.vectors[0], frame.vectors[1])) <= 1e-12
    # v2 = e1 lies in span(c1) and therefore in span(c1, c2)
    np.testing.assert_allclose(coords[1], [1.0, 0.0], atol=1e-12)


def test_adapt_basis_random_projection_residuals(rng):
    V = np.array([random_unit(rng, 8) for _ in range(5)])
    frame, coords = adapt_basis(V)
    for j in range(5):
        head = frame.vectors[: j + 1]
        residual = V[j] - (V[j] @ head.T) @ head
        assert np.linalg.norm(residual) <= 1e-9
    # coords must be lower triangular
    assert np.max(np.abs(np.triu(coords, k=1))) <= 1e-12


@st.composite
def unit_rows(draw):
    """Unit rows in R^n: random, with exact duplicates, nearly dependent
    (a combination of earlier rows perturbed by 1e-13), or square (m = n)."""
    kind = draw(st.sampled_from(["random", "duplicate", "near", "square"]))
    n = draw(st.integers(1, 12))
    m = n if kind == "square" else draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.standard_normal((m, n))
    for j in range(1, m):
        if kind == "duplicate" and rng.random() < 0.5:
            V[j] = V[rng.integers(0, j)]
        elif kind == "near" and rng.random() < 0.5:
            V[j] = rng.standard_normal(j) @ V[:j] + 1e-13 * rng.standard_normal(n)
        V[j] /= np.linalg.norm(V[j])
    V[0] /= np.linalg.norm(V[0])
    return V


@given(V=unit_rows())
@settings(max_examples=200, deadline=None)
def test_adapt_basis_properties(V):
    m = V.shape[0]
    frame, coords = adapt_basis(V)
    C = frame.vectors
    assert C.shape == V.shape
    assert np.max(np.abs(C @ C.T - np.eye(m))) <= 1e-12
    assert np.max(np.abs(np.triu(coords, k=1)), initial=0.0) <= 1e-12
    assert np.all(np.diagonal(coords) >= -1e-12)
    assert np.linalg.norm(V - coords @ C) <= 1e-12


def test_adapt_basis_matches_gram_schmidt_oracle(rng):
    V = np.array([random_unit(rng, 200) for _ in range(199)])
    frame, coords = adapt_basis(V)
    reference = mgs_adapt_basis(V)
    np.testing.assert_allclose(frame.vectors, reference, rtol=0, atol=1e-12)
    np.testing.assert_allclose(coords, V @ reference.T, rtol=0, atol=1e-12)
    # orthonormalize shares the QR kernel; pin it on rows that are not unit
    W = rng.standard_normal((40, 60)) * rng.uniform(0.5, 3.0, (40, 1))
    np.testing.assert_allclose(orthonormalize(W).vectors, mgs_adapt_basis(W),
                               rtol=0, atol=1e-12)


def test_adapt_basis_rejects_overfull_and_non_unit():
    with pytest.raises(ValidationError, match="more vectors"):
        adapt_basis([e(0, 2), e(1, 2), (e(0, 2) + e(1, 2)) / np.sqrt(2)])
    with pytest.raises(ValidationError, match="not unit"):
        adapt_basis([2.0 * e(0, 3)])


# ---------------------------------------------------------------------------
# the sampler on the shrinking box


def test_box_sampler_single_vector():
    x, deltas, _ = sample_box_separator(np.array([[1.0]]), *box_parameters(1), seed=0)
    assert abs(x[0]) == pytest.approx(1.0)
    assert deltas[0] == pytest.approx(BOX_CONSTANT)


def test_box_sampler_two_axis_vectors():
    x, deltas, _ = sample_box_separator(np.eye(2), *box_parameters(2), seed=1)
    assert deltas[1] == pytest.approx(BOX_CONSTANT / 32.0)
    assert abs(x[1]) >= BOX_CONSTANT / 32.0


def test_box_sampler_certified_profile_holds(rng):
    m = 12
    rows = triangular_unit_rows(rng, m)
    x, deltas, _ = sample_box_separator(rows, *box_parameters(m), seed=2)
    js = np.arange(1, m + 1, dtype=float)
    np.testing.assert_allclose(deltas, BOX_CONSTANT * js**-5.0)
    assert np.all(np.abs(rows @ x) >= deltas)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_box_sampler_acceptance_rate(rng):
    rows = triangular_unit_rows(rng, 10)
    attempted = accepted = 0
    for i in range(1000):
        _, _, stats = sample_box_separator(rows, *box_parameters(10), seed=20_000 + i)
        attempted += stats.attempted
        accepted += stats.accepted
    rate = accepted / attempted
    se = np.sqrt(rate * (1.0 - rate) / attempted)
    assert rate >= 0.5 - 3.0 * se


def test_box_sampler_rejects_non_adapted_input():
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])  # v1 has mass above index 1
    with pytest.raises(ValidationError, match="not adapted"):
        sample_box_separator(bad, *box_parameters(2), seed=0)
    with pytest.raises(ValidationError, match="halfwidths"):
        sample_box_separator(np.eye(2, 3), *box_parameters(2), seed=0)


@pytest.mark.parametrize("which, value", [
    pytest.param(0, 0.0, id="zero-halfwidth"),
    pytest.param(0, -0.25, id="negative-halfwidth"),
    pytest.param(0, np.inf, id="infinite-halfwidth"),
    pytest.param(0, np.nan, id="nan-halfwidth"),
    pytest.param(1, -1.0, id="negative-threshold"),
])
def test_box_sampler_rejects_bad_boxes(which, value):
    params = [p.copy() for p in box_parameters(2)]
    params[which][1] = value
    with pytest.raises(ValidationError):
        sample_box_separator(np.eye(2), *params, seed=0)


# ---------------------------------------------------------------------------
# certificates and decay fits


def test_fit_decay_recovers_exact_power_law():
    j = np.arange(1, 21, dtype=float)
    exponents, scales = decay_fit_prefixes(j**-5.0)
    assert exponents[-1] == pytest.approx(-5.0, abs=1e-9)
    assert scales[-1] == pytest.approx(1.0, abs=1e-9)


def test_fit_decay_degenerate_cases():
    assert np.isnan(decay_fit_prefixes([0.5])[0][-1])
    assert np.isnan(decay_fit_prefixes([0.0, 0.0, 0.5])[0][-1])


@pytest.mark.parametrize("profile", [
    "power", "measured", "zeros", "leading_zeros", "single", "pair", "pair_with_zero",
])
def test_decay_fit_prefixes_match_polyfit(profile):
    rng = np.random.default_rng(7)
    j = np.arange(1, 301, dtype=float)
    d = {
        "power": BOX_CONSTANT * j ** -15.0,
        "measured": 0.3 * j ** -0.1 * np.exp(0.5 * rng.standard_normal(j.size)),
        "zeros": np.where(rng.random(j.size) < 0.2, 0.0, rng.random(j.size)),
        "leading_zeros": np.concatenate(([0.0, 0.0, 0.0], j[:40] ** -2.0)),
        "single": np.array([0.5]),
        "pair": np.array([0.5, 0.125]),
        "pair_with_zero": np.array([0.5, 0.0]),
    }[profile]
    exponents, scales = decay_fit_prefixes(d)
    assert exponents.shape == scales.shape == d.shape
    x = np.log(np.arange(1, d.size + 1, dtype=float))
    for size in range(1, d.size + 1):
        pos = d[:size] > 0
        if pos.sum() < 2:
            assert np.isnan(exponents[size - 1]) and np.isnan(scales[size - 1])
            continue
        slope, intercept = np.polyfit(x[:size][pos], np.log(d[:size][pos]), 1)
        assert abs(exponents[size - 1] - slope) <= 1e-12 * max(1.0, abs(slope))
        assert abs(scales[size - 1] / np.exp(intercept) - 1.0) <= 1e-11


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8),
       J=st.integers(1, 60), zero_frac=st.sampled_from([0.0, 0.05, 0.5]))
@settings(max_examples=80, deadline=None)
def test_stacked_decay_fit_and_verdict_match_rows(seed, rows, J, zero_frac):
    """An (S, J) stack gets, row by row, the bits of the 1-D fit and
    verdict; the verdict's exponent is minus the last prefix's slope, and
    each certificate document's decay_fit is its profile's last prefix."""
    rng = np.random.default_rng(seed)
    j = np.arange(1.0, J + 1.0)
    deltas = rng.uniform(0.5, 1.0, (rows, J)) * j ** -rng.uniform(0.0, 12.0, (rows, 1))
    deltas[rng.random((rows, J)) < zero_frac] = 0.0
    exponents, scales = decay_fit_prefixes(deltas)
    verdicts, judged = is_well_separating(deltas, 6.0)
    assert exponents.shape == scales.shape == deltas.shape
    assert verdicts.shape == judged.shape == (rows,)
    assert judged.tobytes() == (-exponents[:, -1]).tobytes()
    for row, row_exponents, row_scales, verdict, p in zip(
            deltas, exponents, scales, verdicts, judged):
        one_exponents, one_scales = decay_fit_prefixes(row)
        assert row_exponents.tobytes() == one_exponents.tobytes()
        assert row_scales.tobytes() == one_scales.tobytes()
        one_verdict, one_p = is_well_separating(row, 6.0)
        assert verdict == one_verdict
        assert np.array(p).tobytes() == np.array(one_p).tobytes()
        fit = familyio.certificate_to_dict(row, familyio.MEASURED, {})["decay_fit"]
        assert [fit["exponent"], fit["scale"]] == [
            None if np.isnan(x) else float(x)
            for x in (one_exponents[-1], one_scales[-1])]


def test_certificate_validation():
    comp = orthonormalize([e(0, 3)])
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        ComplementResult(comp, [0.5, 0.5], {}, [0.5, 1.5], 0, RejectionStats(1, 1))
    with pytest.raises(ValidationError, match="strictly positive"):
        ComplementResult(comp, [0.5, 0.0], {}, [0.5, 0.5], 0, RejectionStats(1, 1))
    with pytest.raises(ValidationError, match="differ in length"):
        ComplementResult(comp, [0.5], {}, [0.5, 0.5], 0, RejectionStats(1, 1))
    result = ComplementResult(comp, [0.5, 0.25], {}, [0.5, 0.25], 0, RejectionStats(1, 1))
    assert result.certified.dtype == result.measured.dtype == np.float64
    assert not result.certified.flags.writeable and not result.measured.flags.writeable


def test_complement_result_enforces_dominance():
    comp = orthonormalize([e(0, 3)])
    with pytest.raises(ConstructionError, match="index 1"):
        ComplementResult(comp, [0.95], {}, [0.9], 0, RejectionStats(1, 1))


def test_certify_constant_family():
    normals = np.array([e(0, 4), e(1, 4)])
    fam = SubspaceFamily.from_normals([normals] * 3)
    cert = certify(orthonormalize([e(0, 4), e(1, 4)]), fam)
    np.testing.assert_allclose(cert, 1.0)
    assert decay_fit_prefixes(cert)[0][-1] == pytest.approx(0.0, abs=1e-9)


@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_certify_matches_member_loop_bit_for_bit(seed, k):
    """The stacked evaluation gives the per-member SVD loop's deltas exactly
    at k = 1 and k = 3, on families with duplicate members and a member
    containing the candidate.  At k = 2 the closed form and LAPACK are each
    within 8u sigma_max of the exact value, so they differ by at most twice
    that, and the containing member still gives exactly 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 * k + 1, 40))
    J = int(rng.integers(1, 30))
    blocks = random_subspace_family(seed, n, k, J).normals
    duplicates = blocks[rng.integers(0, J, size=3)]
    containing = np.eye(n)[None, k:2 * k]  # contains span(e_1..e_k)
    fam = SubspaceFamily.from_normals(np.concatenate([blocks, duplicates, containing]))
    random_span = orthonormalize(rng.standard_normal((k, n)))
    contained = orthonormalize(np.eye(n)[:k])
    for C in (random_span, contained):
        got, loop = certify(C, fam), loop_certify(C, fam)
        if k == 2:
            smax = np.linalg.svd(fam.normals @ C.vectors.T, compute_uv=False)[:, 0]
            assert np.all(np.abs(got - loop) <= 2 * SIGMA_MIN_2X2_TOL * smax)
        else:
            np.testing.assert_array_equal(got, loop)
    assert certify(contained, fam)[-1] == 0.0


def test_family_normals_are_read_only_and_members_are_views():
    expected = random_subspace_family(3, 6, 2, 4).normals
    given_normals = expected.copy()
    fam = SubspaceFamily.from_normals(given_normals)
    assert not fam.normals.flags.writeable
    with pytest.raises(ValueError):
        fam.normals[0, 0, 0] = 1.0
    given_normals[0] = 0.0  # the family holds its own copy
    np.testing.assert_array_equal(fam.normals, expected)
    relaxed = SubspaceFamily(fam.normals[:, :1])  # the relaxation step's slice
    assert np.shares_memory(relaxed.normals, fam.normals)
    assert not relaxed.normals.flags.writeable


def test_family_loading_orthonormalizes_only_failing_blocks(rng):
    """Blocks off the Gram tolerance load to the frames per-member
    orthonormalize gives; orthonormal blocks keep their bytes."""
    J, k, n = 6, 3, 9
    blocks = rng.standard_normal((J, k, n))
    blocks[2] = np.linalg.qr(rng.standard_normal((n, k)))[0].T
    fam, _ = familyio.family_from_dict({"dim": n, "codim": k, "normals": blocks.tolist()})
    for j in range(J):
        np.testing.assert_array_equal(fam.normals[j], orthonormalize(blocks[j]).vectors)
    np.testing.assert_array_equal(fam.normals[2], blocks[2])


def test_from_normals_names_rank_deficient_member():
    blocks = random_subspace_family(4, 5, 2, 4).normals.copy()
    blocks[2, 1] = 3.0 * blocks[2, 0]
    with pytest.raises(ValidationError, match="member 3: normals have rank 1 < 2"):
        SubspaceFamily.from_normals(blocks)


def test_is_well_separating_polynomial_true():
    j = np.arange(1, 25, dtype=float)
    verdict, p = is_well_separating(j**-5.0, max_exponent=10.0)
    assert verdict
    assert p == pytest.approx(5.0, abs=1e-9)


def test_is_well_separating_geometric_false():
    # over 60 indices the fitted log-log slope of 2^-j exceeds 10
    j = np.arange(1, 61, dtype=float)
    verdict, p = is_well_separating(0.5**j, max_exponent=10.0)
    assert not verdict
    assert p > 10.0


def test_is_well_separating_constant_true():
    assert is_well_separating([0.3, 0.3, 0.3, 0.3], max_exponent=1.0)[0]


def test_is_well_separating_preconditions():
    """A zero entry fails; a positive profile with J < 3 passes whatever
    the ceiling, while its exponent is still reported; a stack gets one
    verdict per profile; a NaN ceiling and an empty profile are rejected."""
    assert is_well_separating([0.5, 0.0, 0.5], 5.0)[0] is False
    assert is_well_separating([0.0, 0.5], 5.0)[0] is False
    assert is_well_separating([0.0], 5.0)[0] is False
    verdict, p = is_well_separating([0.5, 1e-300], 0.0)
    assert verdict is True
    assert p == pytest.approx(np.log(0.5 / 1e-300) / np.log(2.0))
    verdict, p = is_well_separating([0.5], 0.0)
    assert verdict is True and math.isnan(p)
    verdicts, _ = is_well_separating([[0.3, 0.3, 0.3], [0.3, 0.0, 0.3]], 1.0)
    np.testing.assert_array_equal(verdicts, [True, False])
    with pytest.raises(ValidationError, match="max_exponent"):
        is_well_separating([0.3, 0.3, 0.3], math.nan)
    with pytest.raises(ValidationError, match="at least one delta"):
        is_well_separating([], 1.0)


# ---------------------------------------------------------------------------
# line bound


def test_line_min_norm_perpendicular_points():
    assert line_min_norm([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0 / np.sqrt(2))


def test_line_min_norm_coincident_points():
    assert line_min_norm([0.3, 0.4], [0.3, 0.4]) == pytest.approx(0.5)


def test_line_min_norm_extremal_configuration():
    for mu1, mu2 in [(0.3, 0.7), (0.9, 0.2), (1.0, 1.0), (0.05, 0.95)]:
        x1 = np.array([mu1, 0.0])
        x2 = np.array([-np.sqrt(1.0 - mu2**2), mu2])
        expected = mu1 * mu2 / np.sqrt(mu2**2 + (np.sqrt(1.0 - mu2**2) + mu1) ** 2)
        assert line_min_norm(x1, x2) == pytest.approx(expected, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_line_min_norm_matches_brute_grid(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    x1 = rng.uniform(-1.0, 1.0, size=dim)
    x2 = rng.uniform(-1.0, 1.0, size=dim)
    d = x1 - x2
    dd = float(np.dot(d, d))
    if dd < 1e-2:  # near-coincident points make the grid oracle meaningless
        return
    t_star = -float(np.dot(x2, d)) / dd
    if abs(t_star) > 9.0:
        return
    exact = line_min_norm(x1, x2)
    if exact < 1e-3:  # flat minima magnify the grid discretization error
        return
    ts = np.linspace(-10.0, 10.0, 2_000_001)
    brute = min(float(np.min(np.linalg.norm(np.outer(t, x1) + np.outer(1.0 - t, x2),
                                            axis=1)))
                for t in np.array_split(ts, 32))  # ~64k rows per chunk
    assert abs(exact - brute) <= 1e-6


def test_line_min_norm_mu_bound(rng):
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        x1 = rng.uniform(0.05, 1.0) * random_unit(rng, dim)
        x2 = rng.uniform(0.05, 1.0) * random_unit(rng, dim)
        mu1 = np.linalg.norm(x1)
        mu2 = np.linalg.norm(x2 - np.dot(x2, x1) / np.dot(x1, x1) * x1)
        if mu2 < 1e-12:
            continue
        assert line_min_norm(x1, x2) >= mu1 * mu2 / np.sqrt(5.0) - 1e-12


# ---------------------------------------------------------------------------
# hyperplane complements


def test_hyperplane_complement_single_member():
    fam = SubspaceFamily.from_normals([e(0, 4)[None, :]])
    res = common_complement(fam, seed=0)
    assert res.measured[0] == pytest.approx(1.0)
    assert res.certified[0] == pytest.approx(BOX_CONSTANT)


def test_hyperplane_complement_random_family(rng):
    for n in (10, 5):  # J < n, and J = n: still the box profile
        normals = [random_unit(rng, n)[None, :] for _ in range(5)]
        fam = SubspaceFamily.from_normals(normals)
        res = common_complement(fam, seed=1)
        js = np.arange(1, 6, dtype=float)
        np.testing.assert_allclose(res.certified, BOX_CONSTANT * js**-5.0)
        assert np.all(res.measured >= res.certified - 1e-9)
        doc = familyio.complement_to_dict(res)
        assert doc["certified"]["provenance"] == "certified-by-construction"
        assert doc["measured"]["provenance"] == "measured-by-svd"


def test_cube_complement_handles_many_members():
    rng = np.random.default_rng(6)
    fam = SubspaceFamily.from_normals(
        [random_unit(rng, 2)[None, :] for _ in range(7)])
    res = common_complement(fam, seed=0)
    np.testing.assert_allclose(res.certified, 0.5 / (7 * 2))
    assert np.all(res.measured >= res.certified - 1e-9)


def test_truncation_sweep_is_stable():
    """Same l2 family truncated at N = 30, 60, 120: identical certificates,
    measured profiles within the tail-norm scale of each other."""
    J = 30
    rng = np.random.default_rng(8)
    i = np.arange(120, dtype=float)
    seqs = rng.uniform(-1.0, 1.0, size=(J, 120)) * 0.45**i
    seqs /= np.linalg.norm(seqs, axis=1, keepdims=True)
    profiles = {}
    for N in (30, 60, 120):
        head = seqs[:, :N]
        head = head / np.linalg.norm(head, axis=1, keepdims=True)
        fam = SubspaceFamily.from_normals([h[None, :] for h in head])
        res = common_complement(fam, seed=99)
        profiles[N] = (res.certified, res.measured)
    base_cert = profiles[30][0]
    for N in (60, 120):
        np.testing.assert_array_equal(profiles[N][0], base_cert)
    tail = float(np.max(np.linalg.norm(seqs[:, 30:], axis=1)))
    for N in (60, 120):
        assert np.max(np.abs(profiles[N][1] - profiles[30][1])) <= max(tail * 100, 1e-6)


# ---------------------------------------------------------------------------
# recursive construction


def test_common_complement_codim2_single_member():
    fam = SubspaceFamily.from_normals([np.eye(6)[:2]])
    res = common_complement(fam, seed=0)
    expected = LINE_CONSTANT * BOX_CONSTANT**2
    assert res.certified[0] == pytest.approx(expected, rel=1e-12)
    assert res.measured[0] >= res.certified[0] - 1e-9


def test_common_complement_codim2_profile_composition():
    fam = random_subspace_family(10, 20, 2, 10)
    res = common_complement(fam, seed=11)
    js = np.arange(1, 11, dtype=float)
    expected = LINE_CONSTANT * (BOX_CONSTANT * js**-5.0) ** 2
    np.testing.assert_allclose(res.certified, expected, rtol=1e-12)
    assert np.all(res.measured >= res.certified - 1e-9)
    assert decay_fit_prefixes(res.certified)[0][-1] == \
        pytest.approx(-10.0, abs=1e-6)


def test_common_complement_codim3_certified_exponent():
    fam = random_subspace_family(12, 25, 3, 8)
    res = common_complement(fam, seed=13)
    assert decay_fit_prefixes(res.certified)[0][-1] == \
        pytest.approx(-15.0, abs=1e-6)
    assert res.complement.size == 3
    # direct-sum rank check against every member
    for N in fam.normals:
        M = np.vstack([res.complement.vectors, null_basis(N)])
        assert np.linalg.matrix_rank(M, tol=1e-9) == 25


def test_common_complement_rejects_insufficient_headroom():
    fam = random_subspace_family(14, 6, 2, 5)  # J = 5 > n - k = 4
    with pytest.raises(ValidationError, match="J <= n - k"):
        common_complement(fam, seed=0)


def test_construction_is_deterministic():
    fam = random_subspace_family(16, 15, 2, 6)
    a = common_complement(fam, seed=33)
    b = common_complement(fam, seed=33)
    np.testing.assert_array_equal(a.complement.vectors, b.complement.vectors)
    np.testing.assert_array_equal(a.certified, b.certified)
    np.testing.assert_array_equal(a.measured, b.measured)
    assert a.rejection_stats == b.rejection_stats
    c = common_complement(fam, seed=34)
    assert not np.array_equal(a.complement.vectors, c.complement.vectors)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_common_complement_random_properties(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    n = int(rng.integers(k + 2, 16))
    J = int(rng.integers(1, min(6, n - k) + 1))
    fam = random_subspace_family(seed, n, k, J)
    res = common_complement(fam, seed=seed ^ 0x5A5A)
    assert np.all(res.measured >= res.certified - 1e-9)
    js = np.arange(1, J + 1, dtype=float)
    expected = LINE_CONSTANT ** (k - 1) * (BOX_CONSTANT * js**-5.0) ** k
    np.testing.assert_allclose(res.certified, expected, rtol=1e-12)
    assert np.all(degrees_of_transversality(fam.normals, res.complement.vectors) > 0)


def test_derive_seeds_is_stable():
    assert derive_seeds(0, 2) == derive_seeds(0, 2)
    assert derive_seeds(0, 2) != derive_seeds(1, 2)
    assert len(derive_seeds(42, 5)) == 5


def test_random_subspace_family_shapes():
    fam = random_subspace_family(1, 9, 2, 4)
    assert fam.ambient_dim == 9 and fam.codim == 2 and len(fam) == 4
    assert fam.normals.shape == (4, 2, 9)


@pytest.mark.parametrize("seed,n,k,J", [
    (derive_seeds(0, 3)[2], 6, 1, 50),  # the family `mc` draws at its defaults
    (derive_seeds(0, 3)[2], 30, 2, 20),
    (7, 9, 3, 4),
])
def test_random_subspace_family_matches_per_block_draws(seed, n, k, J):
    """One stacked Gaussian draw gives the bytes of J consecutive (k, n)
    draws, each orthonormalized on its own."""
    rng = np.random.default_rng(seed)
    blocks = [orthonormalize(rng.standard_normal((k, n))).vectors for _ in range(J)]
    np.testing.assert_array_equal(random_subspace_family(seed, n, k, J).normals,
                                  np.array(blocks))


def test_family_rejects_mixed_members():
    with pytest.raises(ValidationError, match="member 2"):
        SubspaceFamily.from_normals([e(0, 3)[None, :], e(0, 4)[None, :]])
