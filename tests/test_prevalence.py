"""Monte Carlo genericity suites: bad sets, determinant floors, translations."""

import json
import math

import numpy as np
import pytest

from transversal.geometry import ValidationError
from transversal.prevalence import (
    McConfig,
    McReport,
    _keyed_rng,
    ball_volume,
    det_slab_coefficient,
    inverse_bound_check,
    mc_bad_set_measure,
    mc_det_lower_bound,
    mc_inverse_bound,
    sample_ball,
    translated_span,
    translation_decay_ceiling,
    translation_experiment,
)
from transversal.separator import (
    SubspaceFamily,
    certify,
    common_complement,
    random_subspace_family,
)

from conftest import random_unit


def toy_family():
    """Three hyperplanes in R^2 with normals tilted slightly off e2."""
    normals = []
    for j in range(1, 4):
        v = np.array([0.05 * j, 1.0])
        normals.append((v / np.linalg.norm(v))[None, :])
    return SubspaceFamily.from_normals(normals)


# ---------------------------------------------------------------------------
# plumbing


def test_ball_volume_known_values():
    assert ball_volume(0) == pytest.approx(1.0)
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_sample_ball_radius_and_determinism():
    rng = _keyed_rng(0)
    pts = sample_ball(rng, 5000, 3, radius=2.0)
    r = np.linalg.norm(pts, axis=1)
    assert np.max(r) <= 2.0
    # r^dim of a uniform ball point is U(0,1); its mean is 1/2
    assert np.mean((r / 2.0) ** 3) == pytest.approx(0.5, abs=0.02)
    again = sample_ball(_keyed_rng(0), 5000, 3, radius=2.0)
    np.testing.assert_array_equal(pts, again)


def test_keyed_rng_streams_are_distinct():
    a = _keyed_rng(7, 0).random(4)
    b = _keyed_rng(7, 1).random(4)
    c = _keyed_rng(7, 0).random(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_mc_config_validation():
    with pytest.raises(ValidationError):
        McConfig(samples=100)
    with pytest.raises(ValidationError):
        McConfig(epsilon_grid=(1e-3, 1e-2))
    with pytest.raises(ValidationError):
        McConfig(epsilon_grid=(1e-2, -1e-3))


def test_mc_report_verdict_must_match_bound():
    with pytest.raises(ValidationError, match="verdict"):
        McReport(estimate=2.0, stderr=0.1, analytic_bound=1.0, verdict=True)
    rep = McReport(estimate=0.5, stderr=0.1, analytic_bound=1.0, verdict=True,
                   metadata={"arr": np.arange(3), "val": np.float64(1.5)})
    json.dumps(rep.to_dict())  # must be JSON-serializable after conversion


# ---------------------------------------------------------------------------
# bad-set measure


def test_badset_single_hyperplane_matches_slab_area():
    """J=1, n=2, V = span(e1): the bad set is the horizontal slab |y| <= eps
    inside the unit disk, with exact area 2(eps sqrt(1-eps^2) + asin eps)."""
    eps = 0.01
    fam = SubspaceFamily.from_normals([np.array([[0.0, 1.0]])])
    cfg = McConfig(samples=400_000, seed=21, epsilon_grid=(eps,))
    rep = mc_bad_set_measure(fam, eps, cfg)
    exact = 2.0 * (eps * math.sqrt(1.0 - eps**2) + math.asin(eps))
    assert abs(rep.estimate - exact) <= 3.0 * rep.stderr
    assert rep.metadata["truncated_bound"] == pytest.approx(4.0 * eps)
    assert rep.analytic_bound == pytest.approx(eps * (math.pi**2 / 3.0) * 2.0)
    assert rep.verdict


def test_badset_estimates_bounded_on_random_families(rng):
    for n in (2, 4, 6):
        fam = random_subspace_family(int(rng.integers(2**31)), n, 1, 20)
        for i, eps in enumerate((0.1, 0.01)):
            cfg = McConfig(samples=20_000, seed=100 * n + i,
                           epsilon_grid=(eps,))
            rep = mc_bad_set_measure(fam, eps, cfg)
            assert rep.estimate <= rep.analytic_bound + 3.0 * rep.stderr
            assert rep.verdict


def test_badset_multiplicity_sum_is_linear_in_eps():
    """The slab-sum majorant in the metadata is exactly linear in eps, so its
    weighted fit pins a near-zero intercept even at high sample counts."""
    fam = random_subspace_family(51, 3, 1, 30)
    eps_grid = (1e-1, 1e-2, 1e-3)
    sums, errs = [], []
    for i, eps in enumerate(eps_grid):
        cfg = McConfig(samples=300_000, seed=400 + i, epsilon_grid=(eps,))
        rep = mc_bad_set_measure(fam, eps, cfg)
        sums.append(rep.metadata["sum_estimate"])
        errs.append(max(rep.stderr, 1e-9))
    coef, cov = np.polyfit(np.array(eps_grid), np.array(sums), 1,
                           w=1.0 / np.array(errs), cov="unscaled")
    assert abs(coef[1]) <= 3.0 * math.sqrt(cov[1, 1])
    # slope agrees with the truncated analytic sum 2 * sum(j^-2) * vol(B^{n-1})
    expected = 2.0 * float(np.sum(np.arange(1.0, 31.0) ** -2.0)) * ball_volume(2)
    assert coef[0] == pytest.approx(expected, rel=0.05)


def test_badset_saturation_notes_vacuous_bound():
    fam = SubspaceFamily.from_normals([np.array([[0.0, 1.0]])])
    cfg = McConfig(samples=1000, seed=5, epsilon_grid=(2.0,))
    rep = mc_bad_set_measure(fam, 2.0, cfg)
    assert rep.estimate == pytest.approx(math.pi)  # every sample is bad
    assert rep.stderr == 0.0
    assert rep.metadata["bound_vacuous"]
    assert rep.verdict  # the (vacuous) bound still exceeds the estimate


def test_badset_preconditions():
    fam2 = random_subspace_family(1, 5, 2, 3)
    cfg = McConfig(samples=1000, seed=0, epsilon_grid=(0.1,))
    with pytest.raises(ValidationError, match="codimension-1"):
        mc_bad_set_measure(fam2, 0.1, cfg)
    fam1 = SubspaceFamily.from_normals([np.array([[0.0, 1.0]])])
    with pytest.raises(ValidationError):
        mc_bad_set_measure(fam1, -0.5, cfg)


# ---------------------------------------------------------------------------
# determinant floors


def test_det_coefficient_scalar_oracle():
    """k=1, zero shift: mu({|a| <= eta}) = 2 eta exactly, so c_hat = 2."""
    c_hat, r2, mu = det_slab_coefficient(
        np.zeros((1, 1)), np.geomspace(1e-3, 1e-1, 5), samples=100_000, seed=0)
    assert c_hat == pytest.approx(2.0, abs=0.05)
    assert r2 >= 0.99


def test_det_coefficient_is_shift_stable():
    """c_hat varies by less than 2x across random unit-norm shifts (k=2)."""
    rng = np.random.default_rng(11)
    grid = np.geomspace(1e-3, 1e-2, 5)
    chats = []
    for i in range(10):
        G = rng.standard_normal((2, 2))
        c_hat, r2, _ = det_slab_coefficient(G / np.linalg.norm(G, 2), grid,
                                            samples=100_000, seed=100 + i)
        assert r2 >= 0.99
        chats.append(c_hat)
    assert max(chats) / min(chats) < 2.0


def test_det_lower_bound_zero_shifts():
    cfg = McConfig(samples=10_000, seed=3, epsilon_grid=(1e-1, 1e-2, 1e-3))
    report, eps_hat = mc_det_lower_bound(np.zeros((50, 1, 1)), cfg)
    assert report.verdict
    assert report.estimate == 1.0  # |a| > 0 almost surely
    assert eps_hat.shape == (10_000,)
    # j^2 * |det(A + 0)| is minimized at j = 1, so eps_hat = |a|
    assert report.metadata["c_hat"] == pytest.approx(2.0, abs=0.1)


def test_det_lower_bound_random_shifts_k2(rng):
    shifts = rng.standard_normal((50, 2, 2))
    shifts /= np.linalg.norm(shifts, axis=(1, 2), keepdims=True)
    cfg = McConfig(samples=10_000, seed=4, epsilon_grid=(1e-2, 1e-3))
    report, eps_hat = mc_det_lower_bound(shifts, cfg)
    assert float(np.mean(eps_hat >= 1e-6)) >= 0.99
    assert report.metadata["r_squared"] >= 0.99


def test_det_rejects_ragged_shifts():
    with pytest.raises(ValidationError):
        mc_det_lower_bound(np.zeros((3, 2, 1)), McConfig(samples=1000, seed=0))


# ---------------------------------------------------------------------------
# inverse floors


def test_inverse_identity_family():
    s, eps_hat = inverse_bound_check(2.0 * np.eye(3), np.zeros((4, 3, 3)),
                                     np.ones(4))
    np.testing.assert_allclose(s, 2.0)
    assert eps_hat == pytest.approx(2.0)


def test_inverse_scalar_reduction(rng):
    a = float(rng.uniform(-1, 1))
    shifts = rng.uniform(-1, 1, size=(6, 1, 1))
    s, _ = inverse_bound_check(np.array([[a]]), shifts, np.full(6, 1.0))
    np.testing.assert_allclose(s, np.abs(a + shifts[:, 0, 0]))


def test_inverse_svd_identity(rng):
    """sigma_min * ||inverse||_2 = 1 whenever the sum is invertible."""
    A = rng.standard_normal((3, 3))
    shifts = rng.standard_normal((8, 3, 3)) * 0.5
    deltas = np.full(8, 0.5)
    s, eps_hat = inverse_bound_check(A, shifts, deltas)
    for j in range(8):
        M = A + shifts[j]
        if s[j] > 1e-12:
            assert s[j] * np.linalg.norm(np.linalg.inv(M), 2) == \
                pytest.approx(1.0, abs=1e-9)
    assert eps_hat > 0


def test_inverse_precondition_on_shift_norms():
    big = np.zeros((1, 2, 2))
    big[0] = 10.0 * np.eye(2)
    with pytest.raises(ValidationError, match="spectral norm"):
        inverse_bound_check(np.eye(2), big, np.array([0.5]))  # 10 > 1/0.5


def test_mc_inverse_bound_positive_fraction(rng):
    J, k = 20, 2
    deltas = np.arange(1.0, J + 1.0) ** -1.0
    shifts = rng.standard_normal((J, k, k))
    shifts *= (1.0 / deltas / np.linalg.norm(shifts, axis=(1, 2)))[:, None, None] * 0.9
    cfg = McConfig(samples=2000, seed=9, epsilon_grid=(1e-2,))
    report, eps_hat = mc_inverse_bound(shifts, deltas, cfg)
    assert report.estimate >= 0.99
    assert report.verdict
    assert eps_hat.shape == (2000,)


# ---------------------------------------------------------------------------
# translations


def test_translated_span_identity_fixed_point():
    fam = toy_family()
    base = common_complement(fam, seed=1)
    B = base.complement.basis
    span = translated_span(B, np.eye(1), np.zeros((1, 2)))
    np.testing.assert_array_equal(span.basis, B)
    cert = certify(span, fam)
    np.testing.assert_array_equal(cert.deltas, base.measured.deltas)


def test_translated_span_rejects_degenerate_coefficients():
    fam = random_subspace_family(2, 8, 2, 3)
    base = common_complement(fam, seed=3)
    with pytest.raises(ValidationError, match="dependent"):
        translated_span(base.complement.basis, np.ones((2, 2)), np.zeros((2, 8)))
    with pytest.raises(ValidationError):
        translated_span(base.complement.basis, np.zeros((2, 2)), np.zeros((2, 8)))


def test_translation_decay_ceiling_values():
    assert translation_decay_ceiling(1) == 7.0
    assert translation_decay_ceiling(2) == 22.0


def test_translation_experiment_toy_instance():
    fam = toy_family()
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=1000, seed=42, epsilon_grid=(0.1,))
    report, certs = translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg)
    assert report.estimate >= 0.99
    assert report.verdict
    assert report.metadata["exponent_max"] <= translation_decay_ceiling(1) + 0.5
    assert len(certs) == 1000
    assert all(c is not None for c in certs)


def test_translation_experiment_is_deterministic():
    fam = toy_family()
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=1000, seed=7, epsilon_grid=(0.1,))
    r1, _ = translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg)
    r2, _ = translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg)
    assert r1.to_dict() == r2.to_dict()


def test_translation_experiment_validates_shapes():
    fam = toy_family()
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=1000, seed=0, epsilon_grid=(0.1,))
    with pytest.raises(ValidationError, match="translation"):
        translation_experiment(base, fam, np.array([[1.0, 0.0, 0.0]]), cfg)
    with pytest.raises(ValidationError, match="radius"):
        translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg, radius=0.0)
