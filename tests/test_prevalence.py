"""Monte Carlo genericity suites: bad sets, determinant floors, translations."""

import json
import math
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from transversal.cli import main
from transversal import prevalence
from transversal.geometry import ValidationError, _det, orthonormalize
from transversal.polytope import Box, mc_shadow_volume
from transversal.prevalence import (
    _TRANSLATION_CHUNK,
    McConfig,
    McReport,
    _ball_matrices,
    _keyed_rng,
    _keyed_states,
    _keyed_streams,
    _sigma_min_bracket,
    _to_ball,
    ball_volume,
    det_slab_coefficient,
    inverse_bound_check,
    mc_bad_set_measure,
    mc_det_lower_bound,
    mc_inverse_bound,
    sample_ball,
    translation_experiment,
)
from transversal.separator import (
    SubspaceFamily,
    certify,
    common_complement,
    decay_fit_prefixes,
    is_well_separating,
    random_subspace_family,
)

from conftest import fraction_det, random_unit


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
    pts = _to_ball(rng.standard_normal((5000, 3)), rng.random((5000, 1)), 2.0)
    r = np.linalg.norm(pts, axis=1)
    assert np.max(r) <= 2.0
    # r^dim of a uniform ball point is U(0,1); its mean is 1/2
    assert np.mean((r / 2.0) ** 3) == pytest.approx(0.5, abs=0.02)
    # sample_ball makes the same draws, in the same order, for the unit ball
    again = sample_ball(_keyed_rng(0), 5000, 3)
    np.testing.assert_array_equal(pts, 2.0 * again)


def test_keyed_rng_streams_are_distinct():
    a = _keyed_rng(7, 0).random(4)
    b = _keyed_rng(7, 1).random(4)
    c = _keyed_rng(7, 0).random(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)


@given(seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**128 + 1, 3**150]),
                      st.integers(0, 2**160)),
       start=st.one_of(st.sampled_from([0, _TRANSLATION_CHUNK - 5, 2**32 - 24]),
                       st.integers(0, 2**32 - 24)),
       count=st.integers(1, 24))
@example(seed=3**150, start=2**32 - 24, count=24)  # up to the last index, 2^32 - 1
@settings(max_examples=60, deadline=None)
def test_keyed_states_and_streams_match_seed_sequence(seed, start, count):
    """_keyed_states equals SeedSequence(seed, spawn_key=(i,)).generate_state,
    and the reused generator of _keyed_streams has PCG64's state and
    _keyed_rng's draws, for one- to five-word seeds and indices across the
    translation chunk boundary and up to 2^32 - 1."""
    states = _keyed_states(seed, start, count)
    assert states.shape == (count, 4) and states.dtype == np.uint64
    streams = _keyed_streams(seed, start, count)
    for i, rng in zip(range(start, start + count), streams):
        seq = np.random.SeedSequence(seed, spawn_key=(i,))
        np.testing.assert_array_equal(states[i - start], seq.generate_state(4, np.uint64))
        assert rng.bit_generator.state == np.random.PCG64(seq).state
        ref = _keyed_rng(seed, i)
        np.testing.assert_array_equal(rng.standard_normal((2, 2)),
                                      ref.standard_normal((2, 2)))
        np.testing.assert_array_equal(rng.random((2, 1)), ref.random((2, 1)))
    assert next(streams, None) is None


def test_keyed_streams_check_against_numpy(monkeypatch):
    """A derived state that differs from numpy's own seeding raises before
    any draw, instead of silently changing the streams."""
    monkeypatch.setattr(prevalence, "_PCG_MULT", prevalence._PCG_MULT + 2)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        next(_keyed_streams(5, 300, 4))


def test_translation_rejects_indices_beyond_one_key_word():
    fam = toy_family()
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=2**32 + 1, seed=0, epsilon_grid=(0.1,))
    with pytest.raises(ValidationError, match="samples"):
        translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg,
                               radius=1.0, max_exponent=7.0)


def test_mc_config_validation():
    with pytest.raises(ValidationError):
        McConfig(samples=100, seed=0, epsilon_grid=(1e-1, 1e-2, 1e-3))
    with pytest.raises(ValidationError):
        McConfig(samples=10_000, seed=0, epsilon_grid=(1e-3, 1e-2))
    with pytest.raises(ValidationError):
        McConfig(samples=10_000, seed=0, epsilon_grid=(1e-2, -1e-3))


@pytest.mark.parametrize("call", [
    lambda: McConfig(samples=10_000, seed=-1, epsilon_grid=(1e-1, 1e-2, 1e-3)),
    lambda: common_complement(toy_family(), -1),
    lambda: mc_shadow_volume(Box(np.ones(2)), np.array([1.0, 0.0]),
                             samples=1_000_000, seed=-1),
], ids=["McConfig", "common_complement", "mc_shadow_volume"])
def test_library_rejects_negative_seed(call):
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        call()


def test_mc_report_verdict_must_match_bound():
    with pytest.raises(ValidationError, match="verdict"):
        McReport(estimate=2.0, stderr=0.1, analytic_bound=1.0, verdict=True,
                 metadata={})
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
    rep, = mc_bad_set_measure(fam, cfg)
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
            rep, = mc_bad_set_measure(fam, cfg)
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
        rep, = mc_bad_set_measure(fam, cfg)
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
    rep, = mc_bad_set_measure(fam, cfg)
    assert rep.estimate == pytest.approx(math.pi)  # every sample is bad
    assert rep.stderr == 0.0
    assert rep.metadata["bound_vacuous"]
    assert rep.verdict  # the (vacuous) bound still exceeds the estimate


def test_badset_one_draw_serves_the_whole_grid():
    """A grid run gives, per epsilon, the report of a one-epsilon run on the
    same seed: the same draw, projections and counts."""
    fam = random_subspace_family(8, 5, 1, 40)
    grid = (0.3, 0.05, 0.01, 0.002)
    reports = mc_bad_set_measure(fam, McConfig(samples=5000, seed=6, epsilon_grid=grid))
    assert [r.metadata["epsilon"] for r in reports] == list(grid)
    for eps, rep in zip(grid, reports):
        alone, = mc_bad_set_measure(fam, McConfig(samples=5000, seed=6,
                                                  epsilon_grid=(eps,)))
        assert rep.to_dict() == alone.to_dict()
    counts = [r.metadata["bad_count"] for r in reports]
    assert counts == sorted(counts, reverse=True) and counts[-1] < counts[0]


def test_badset_preconditions():
    fam2 = random_subspace_family(1, 5, 2, 3)
    cfg = McConfig(samples=1000, seed=0, epsilon_grid=(0.1,))
    with pytest.raises(ValidationError, match="codimension-1"):
        mc_bad_set_measure(fam2, cfg)
    with pytest.raises(ValidationError, match="positive"):
        McConfig(samples=1000, seed=0, epsilon_grid=(-0.5,))


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_det_matches_exact_fractions(k):
    """k <= 3: within c u ||M||_F^k of the exact determinant (c = 2k covers
    the at most 2k - 1 roundings per monomial, since per(|M|) <= ||M||_F^k),
    on random stacks and on near-singular ones (a row repeated plus 1e-9
    noise); k = 1 is exact."""
    rng = np.random.default_rng(100 + k)
    M = rng.standard_normal((400, k, k))
    M *= rng.choice([1e-3, 1.0, 1e3], size=(400, 1, 1))
    near = M[200:]
    near[:, -1] = near[:, 0] + 1e-9 * rng.standard_normal((200, k))
    dets = _det(M)
    u = np.finfo(float).eps / 2
    for m, d in zip(M, dets):
        exact = fraction_det(m)
        bound = 2 * k * u * np.linalg.norm(m) ** k
        assert abs(Fraction(float(d)) - exact) <= Fraction(bound)
        if k == 1:
            assert Fraction(float(d)) == exact
    # a component-major view, as mc_det_lower_bound passes, gives the same bits
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(M, 0, -1)), -1, 0)
    assert np.array_equal(_det(view), dets)


def test_det_falls_back_to_lapack_for_k_above_3(rng):
    M = rng.standard_normal((50, 4, 4))
    assert np.array_equal(_det(M), np.linalg.det(M))


def test_det_rejects_ragged_shifts():
    with pytest.raises(ValidationError):
        mc_det_lower_bound(np.zeros((3, 2, 1)), McConfig(
            samples=1000, seed=0, epsilon_grid=(1e-1, 1e-2, 1e-3)))


# ---------------------------------------------------------------------------
# inverse floors


def test_inverse_identity_family():
    """One sample 2 I against four zero shifts: every sigma_min is 2, and
    the floor min_j 2 j^2 is set by j = 1."""
    eps_hat = inverse_bound_check(2.0 * np.eye(3)[None], np.zeros((4, 3, 3)),
                                  np.ones(4))
    np.testing.assert_allclose(eps_hat, [2.0])
    s = inverse_bound_check(np.full((4, 3, 3), 2.0 * np.eye(3)),
                            np.zeros((1, 3, 3)), np.ones(1))
    np.testing.assert_allclose(s, 2.0)


def test_inverse_scalar_reduction(rng):
    """Against one zero shift with delta 1 a sample's floor is its own
    sigma_min, which is |a + A_j| for 1 x 1 sums."""
    a = float(rng.uniform(-1, 1))
    shifts = rng.uniform(-1, 1, size=(6, 1, 1))
    s = inverse_bound_check(a + shifts, np.zeros((1, 1, 1)), np.ones(1))
    np.testing.assert_allclose(s, np.abs(a + shifts[:, 0, 0]))


def test_inverse_svd_identity(rng):
    """sigma_min * ||inverse||_2 = 1 whenever the sum is invertible."""
    A = rng.standard_normal((3, 3))
    shifts = rng.standard_normal((8, 3, 3)) * 0.5
    deltas = np.full(8, 0.5)
    eps_hat = inverse_bound_check(A[None], shifts, deltas)
    s = inverse_bound_check(A + shifts, np.zeros((1, 3, 3)), np.ones(1))
    for j in range(8):
        M = A + shifts[j]
        if s[j] > 1e-12:
            assert s[j] * np.linalg.norm(np.linalg.inv(M), 2) == \
                pytest.approx(1.0, abs=1e-9)
    assert eps_hat[0] > 0


def test_inverse_precondition_on_shift_norms():
    big = np.zeros((1, 2, 2))
    big[0] = 10.0 * np.eye(2)
    with pytest.raises(ValidationError, match="spectral norm"):
        inverse_bound_check(np.eye(2)[None], big, np.array([0.5]))  # 10 > 1/0.5
    with pytest.raises(ValidationError, match="stack of square"):
        inverse_bound_check(np.eye(2), np.zeros((1, 2, 2)), np.array([0.5]))


@pytest.mark.parametrize("shifts", [np.zeros((0, 2, 2)), np.zeros((1, 0, 0))],
                         ids=["no-shifts", "k0"])
def test_empty_shift_stacks_are_rejected(shifts):
    """All three shift-stack entry points reject J = 0 and k = 0."""
    cfg = McConfig(samples=1000, seed=0, epsilon_grid=(1e-1, 1e-2, 1e-3))
    A = np.zeros((3,) + shifts.shape[1:])
    deltas = np.ones(len(shifts))
    for call in (lambda: inverse_bound_check(A, shifts, deltas),
                 lambda: mc_det_lower_bound(shifts, cfg),
                 lambda: mc_inverse_bound(shifts, deltas, cfg)):
        with pytest.raises(ValidationError, match="at least one nonempty matrix"):
            call()


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


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
       kind=st.sampled_from(["random", "near", "rank", "graded"]))
@settings(max_examples=60, deadline=None)
def test_sigma_min_bracket_holds_lapack_sigma_min(seed, k, kind):
    """lo <= LAPACK's sigma_min <= hi on random stacks, nearly and exactly
    rank-deficient ones, and ones with entries spread over 1e-150..1e150."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((500, k, k))
    if kind == "near":
        M[:, -1] = M[:, 0] + 1e-9 * rng.standard_normal((500, k))
    elif kind == "rank":
        M[:, -1] = M[:, 0] * 2.0
    elif kind == "graded":
        M *= 10.0 ** rng.uniform(-150, 150, size=(500, 1, 1))
    lo, hi = _sigma_min_bracket(M)
    s = np.linalg.svd(M, compute_uv=False)[:, -1]
    assert np.all(lo <= s) and np.all(s <= hi)


def _full_svd_floor(A, shifts, delta):
    """eps_hat over every (sample, shift) pair: one SVD of the whole stack."""
    k = A.shape[-1]
    s = np.linalg.svd(A[:, None] + shifts, compute_uv=False)[..., -1]
    j = np.arange(1, len(shifts) + 1, dtype=float)
    return np.min(s * j ** 2 * delta ** -(k - 1), axis=-1)


@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3, 4]),
       J=st.integers(1, 50), q=st.sampled_from([0.0, 1.0, 2.0]),
       kind=st.sampled_from(["random", "zero", "near", "singular"]))
@settings(max_examples=40, deadline=None)
def test_mc_inverse_floor_is_bit_equal_to_full_svd(seed, k, J, q, kind):
    """The pruned floors equal the full-SVD floors bit for bit, with zero
    shifts, shifts that nearly cancel a sample (A_j = -A_s + 1e-9 noise)
    and shifts that cancel it exactly (then that sample's eps_hat is 0)."""
    cfg = McConfig(samples=1000, seed=seed, epsilon_grid=(1e-1, 1e-2, 1e-3))
    A = _ball_matrices(_keyed_rng(seed), cfg.samples, k)
    rng = np.random.default_rng(seed)
    delta = 0.5 * np.arange(1.0, J + 1.0) ** -q   # 1/delta >= 2 >= ||A_s||_F
    shifts = rng.standard_normal((J, k, k))
    shifts *= (rng.uniform(0.1, 1.0, J) / delta
               / np.linalg.norm(shifts, ord=2, axis=(1, 2)))[:, None, None]
    if kind == "zero":
        shifts[:] = 0.0
    picked = rng.choice(cfg.samples, size=(J + 1) // 2, replace=False)
    if kind in ("near", "singular"):
        shifts[:len(picked)] = -A[picked]
    if kind == "near":
        shifts[:len(picked)] += 1e-9 * rng.standard_normal((len(picked), k, k))
    _, eps_hat = mc_inverse_bound(shifts, delta, cfg)
    assert np.array_equal(eps_hat, _full_svd_floor(A, shifts, delta))
    if kind == "singular":
        assert np.all(eps_hat[picked] == 0.0)


def test_inverse_bound_check_stack_returns_floors_only(rng):
    A = rng.standard_normal((7, 2, 2))
    shifts = rng.standard_normal((5, 2, 2)) * 0.3
    deltas = np.full(5, 0.5)
    eps_hat = inverse_bound_check(A, shifts, deltas)
    assert eps_hat.shape == (7,)
    assert np.array_equal(eps_hat, _full_svd_floor(A, shifts, deltas))
    for a, e in zip(A, eps_hat):
        assert inverse_bound_check(a[None], shifts, deltas)[0] == e


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("scale", [1e-200, 1e120])
def test_inverse_floor_outside_float_range_matches_full_svd(k, scale):
    """Where squares or determinants under- or overflow (1e-200 underflows
    m^2, 1e120 overflows a 3 x 3 determinant), the bracket widens to
    [0, inf) and the pair goes to the SVD, so the floor is the full-SVD one."""
    A = scale * np.eye(k)[None].repeat(3, axis=0)
    A[1] *= 2.0
    shifts = np.zeros((4, k, k))
    shifts[1] = 0.5 * np.eye(k)
    deltas = np.ones(4)
    eps_hat = inverse_bound_check(A, shifts, deltas)
    np.testing.assert_array_equal(eps_hat, _full_svd_floor(A, shifts, deltas))


# ---------------------------------------------------------------------------
# blocks of the bulk suites


def _bulk_results():
    """Every output of the three bulk suites, of ball draws at dims 1, 3, 8
    and 30 (numpy's row sum is unrolled pairwise from 8 entries on) and of
    k = 1 inverse floors, on small inputs whose sample count, 1000, is no
    multiple of the ragged block sizes below."""
    cfg = McConfig(samples=1000, seed=13, epsilon_grid=(0.3, 0.05, 0.01))
    fam = random_subspace_family(14, 5, 1, 7)
    rng = np.random.default_rng(15)
    shifts = rng.standard_normal((5, 3, 3))
    shifts /= np.linalg.norm(shifts, ord=2, axis=(1, 2))[:, None, None]
    report, eps_hat = mc_det_lower_bound(shifts, cfg)
    c_hat, r2, mu = det_slab_coefficient(shifts[1], cfg.epsilon_grid, 1000, 16)
    floors = inverse_bound_check(_ball_matrices(_keyed_rng(17), 1000, 3), shifts,
                                 np.arange(1.0, 6.0) ** -1.0)
    floors_k1 = inverse_bound_check(_ball_matrices(_keyed_rng(18), 1000, 1),
                                    shifts[:, :1, :1], np.arange(1.0, 6.0) ** -1.0)
    balls = [sample_ball(_keyed_rng(19), 1000, dim).tobytes() for dim in (1, 3, 8, 30)]
    return ([r.to_dict() for r in mc_bad_set_measure(fam, cfg)], report.to_dict(),
            eps_hat.tobytes(), (c_hat, r2, mu.tobytes()), floors.tobytes(),
            floors_k1.tobytes(), balls)


@pytest.mark.parametrize("cells", [
    # 37 samples per block of the badset (J = 7), det (k = 3), inverse (k = 3,
    # J = 5) and 30-dim ball kernels; 1 makes every block one sample, through
    # max(1, .)
    pytest.param(7 * 37, id="badset-blocks-of-37"),
    pytest.param(9 * 37, id="det-blocks-of-37"),
    pytest.param(45 * 37, id="inverse-blocks-of-37"),
    pytest.param(30 * 37, id="ball-blocks-of-37"),
    pytest.param(1, id="one-sample-blocks"),
])
def test_bulk_suites_are_bit_equal_across_block_sizes(cells, monkeypatch):
    monkeypatch.setattr(prevalence, "_BLOCK_CELLS", 1 << 40)
    whole = _bulk_results()
    monkeypatch.setattr(prevalence, "_BLOCK_CELLS", cells)
    assert _bulk_results() == whole


def test_badset_totals_are_those_of_the_whole_table(monkeypatch):
    """Per epsilon, the union count and the slab-sum estimate summed over
    ragged blocks are those of the whole (samples, J) hit table."""
    monkeypatch.setattr(prevalence, "_BLOCK_CELLS", 7 * 37)
    fam = random_subspace_family(26, 5, 1, 7)
    cfg = McConfig(samples=1000, seed=27, epsilon_grid=(0.3, 0.05, 0.01))
    proj = np.abs(sample_ball(_keyed_rng(27), 1000, 5) @ fam.normals[:, 0].T)
    vol = ball_volume(5)
    for eps, rep in zip(cfg.epsilon_grid, mc_bad_set_measure(fam, cfg)):
        hits = proj <= eps * np.arange(1.0, 8.0) ** -2.0
        assert rep.metadata["bad_count"] == np.count_nonzero(np.any(hits, axis=1))
        assert rep.metadata["sum_estimate"] == \
            vol * float(np.mean(np.count_nonzero(hits, axis=1)))


@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["finite", "overflow-nan"])
def test_det_floors_are_the_minimum_of_the_shift_table(scale, monkeypatch):
    """The running minimum over ragged blocks is min(axis=0) of the whole
    (J, samples) table of j^2 |det(A + A_j)|, bit for bit; a shift of
    1e200 * ones makes every 2 x 2 minor inf - inf, and like the table's
    minimum the running one turns that NaN into every sample's floor."""
    monkeypatch.setattr(prevalence, "_BLOCK_CELLS", 9 * 37)
    shifts = np.random.default_rng(24).standard_normal((6, 3, 3))
    shifts /= np.linalg.norm(shifts, ord=2, axis=(1, 2))[:, None, None]
    shifts[3] = scale * np.ones((3, 3))
    cfg = McConfig(samples=1000, seed=25, epsilon_grid=(0.1, 0.01, 0.001))
    A = _ball_matrices(_keyed_rng(25, 1), 1000, 3)
    with np.errstate(invalid="ignore", over="ignore"):
        _, eps_hat = mc_det_lower_bound(shifts, cfg)
        table = [(j + 1.0) ** 2 * np.abs(_det(A + s)) for j, s in enumerate(shifts)]
    assert np.array_equal(eps_hat, np.min(table, axis=0), equal_nan=True)
    assert np.all(np.isnan(eps_hat)) == (scale > 1.0)


@pytest.mark.parametrize("overflow", [False, True], ids=["finite", "overflow-nan"])
def test_k1_inverse_floors_are_per_pair_svd_minima(overflow, monkeypatch):
    """At k = 1 each floor is min_j sigma_min(A_s + A_j) j^2 of LAPACK's
    per-pair SVD, bit for bit, over ragged chunks; a sum that overflows
    warns, and its sample's floor is NaN, as that SVD makes it."""
    monkeypatch.setattr(prevalence, "_BLOCK_CELLS", 7 * 37)
    shifts = np.random.default_rng(28).uniform(-1.0, 1.0, (7, 1, 1))
    deltas = np.arange(1.0, 8.0) ** -1.0
    A = _ball_matrices(_keyed_rng(29), 1000, 1)
    if overflow:
        A[500], shifts[2], deltas[2] = 9e307, 9e307, 1e-308
    with pytest.warns(RuntimeWarning) if overflow else nullcontext():
        floors = inverse_bound_check(A, shifts, deltas)
        table = [[np.linalg.svd(a + s, compute_uv=False)[-1] * (j + 1.0) ** 2
                  for j, s in enumerate(shifts)] for a in A]
    assert np.array_equal(floors, np.min(table, axis=1), equal_nan=True)
    assert np.flatnonzero(np.isnan(floors)).tolist() == ([500] if overflow else [])


def _bench_shifts():
    """Fifty 3 x 3 shifts of spectral norm 1, the shape of `mc det|inverse
    --k 3 --members 50`."""
    shifts = np.random.default_rng(18).standard_normal((50, 3, 3))
    return shifts / np.linalg.norm(shifts, ord=2, axis=(1, 2))[:, None, None]


def _badset_bench_call():
    fam = random_subspace_family(20, 8, 1, 200)
    cfg = McConfig(samples=50_000, seed=21, epsilon_grid=(0.1, 0.01, 0.001))
    return lambda: mc_bad_set_measure(fam, cfg)


def _det_bench_call():
    shifts = _bench_shifts()
    cfg = McConfig(samples=100_000, seed=22, epsilon_grid=(0.1, 0.01, 0.001))
    return lambda: mc_det_lower_bound(shifts, cfg)


def _inverse_bench_call():
    shifts = _bench_shifts()
    deltas = np.arange(1.0, 51.0) ** -2.0
    cfg = McConfig(samples=20_000, seed=23, epsilon_grid=(0.1, 0.01, 0.001))
    return lambda: mc_inverse_bound(shifts, deltas, cfg)


def _inverse_k1_call():
    """`mc inverse` at its defaults: k = 1, J = 50, 10 000 samples."""
    shifts = np.where(np.random.default_rng(24).random((50, 1, 1)) < 0.5, -1.0, 1.0)
    deltas = np.arange(1.0, 51.0) ** -2.0
    cfg = McConfig(samples=10_000, seed=25, epsilon_grid=(0.1, 0.01, 0.001))
    return lambda: mc_inverse_bound(shifts, deltas, cfg)


@pytest.mark.parametrize("make_call, bound_mb", [
    # peaks before the suites streamed in blocks: 86.5, 65.7 and 47.9 MB;
    # before ball draws were scaled in place and k = 1 floors taken in
    # closed form: 7.7, 21.7, 4.4 and 11.9 MB
    pytest.param(_badset_bench_call, 16, id="badset-n8-J200"),
    pytest.param(_det_bench_call, 14, id="det-k3-J50"),
    pytest.param(_inverse_bench_call, 12, id="inverse-k3-J50"),
    pytest.param(_inverse_k1_call, 4, id="inverse-k1-J50"),
])
def test_bulk_suites_memory_is_bounded(make_call, bound_mb):
    """At the benchmark's shapes the draws and one block set the peak."""
    call = make_call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: det_slab_coefficient(np.eye(2), [0.1, 0.01], 1000, -1),
                 "seed must be nonnegative", id="det-negative-seed"),
    pytest.param(lambda: det_slab_coefficient(np.eye(2), [0.1, 0.01], 0, 0),
                 "samples must be at least 1", id="det-no-samples"),
    pytest.param(lambda: det_slab_coefficient(np.eye(2), [math.inf, 0.01], 1000, 0),
                 "positive finite eta", id="det-inf-eta"),
    pytest.param(lambda: det_slab_coefficient(np.eye(2), [math.nan, 0.01], 1000, 0),
                 "positive finite eta", id="det-nan-eta"),
    pytest.param(lambda: det_slab_coefficient(np.full((2, 2), math.nan), [0.1, 0.01],
                                              1000, 0),
                 "non-finite", id="det-nan-shift"),
    pytest.param(lambda: inverse_bound_check(np.full((3, 2, 2), math.nan),
                                             np.zeros((1, 2, 2)), np.ones(1)),
                 "non-finite", id="inverse-nan-stack"),
    pytest.param(lambda: inverse_bound_check(np.zeros((3, 2, 2)),
                                             np.full((1, 2, 2), math.inf), np.ones(1)),
                 "non-finite", id="inverse-inf-shifts"),
    pytest.param(lambda: sample_ball(_keyed_rng(0), 5, 0), "dim >= 1",
                 id="ball-zero-dim"),
    pytest.param(lambda: sample_ball(_keyed_rng(0), -1, 3), "count >= 0",
                 id="ball-negative-count"),
])
def test_bulk_helpers_reject_invalid_input(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


# ---------------------------------------------------------------------------
# translations


@pytest.mark.parametrize("n, k, J, ceiling", [
    pytest.param(12, 1, 8, -0.4, id="k1"),
    pytest.param(12, 2, 8, 0.5, id="k2"),
    pytest.param(12, 3, 8, 0.0, id="k3"),
    # J > n: the base comes from the cube sampler, as at the CLI defaults
    pytest.param(6, 1, 50, -0.05, id="k1-J50"),
])
def test_translation_certificates_match_per_sample_certify(n, k, J, ceiling):
    """The stacked draws and chunks reproduce certify(orthonormalize(A_i^T B
    + X)) for A_i drawn alone through _to_ball, bit for bit, on both sides
    of every chunk boundary, and the report's statistics are those of a
    per-sample loop over the delta rows."""
    fam = random_subspace_family(4, n, k, J)
    base = common_complement(fam, seed=3)
    B = base.complement.vectors
    X = np.eye(k, n)
    cfg = McConfig(samples=1000, seed=5, epsilon_grid=(0.1,))
    # a ceiling inside the spread of the fitted exponents, so that the
    # verdict splits the samples
    report, certs = translation_experiment(base, fam, X, cfg, radius=0.5,
                                           max_exponent=ceiling)
    assert len(certs) == cfg.samples
    for i in (0, 1, _TRANSLATION_CHUNK - 1, _TRANSLATION_CHUNK,
              _TRANSLATION_CHUNK + 1, cfg.samples - 1):
        rng = _keyed_rng(cfg.seed, i)
        A = _to_ball(rng.standard_normal((k, k)), rng.random((k, 1)), 0.5).T
        reference = certify(orthonormalize(A.T @ B + X), fam)
        assert np.array_equal(certs[i], reference.deltas), i
        assert not certs[i].flags.writeable
    ceiling = report.metadata["max_exponent"]
    verdicts = [is_well_separating(d, ceiling) for d in certs if d is not None]
    passing = [p for ok, p in verdicts if ok]
    assert passing == [-decay_fit_prefixes(d)[0][-1] for d in certs
                       if d is not None and is_well_separating(d, ceiling)[0]]
    assert 0 < len(passing) < cfg.samples
    assert report.estimate == len(passing) / cfg.samples
    assert report.metadata["exponent_max"] == max(passing)
    assert report.metadata["exponent_median"] == float(np.median(passing))


def test_translation_degenerate_draws_are_none():
    """Equal translation rows swamp coefficients of radius 1e-12: every
    translated pair is dependent, so no draw is certified or passes."""
    fam = random_subspace_family(2, 8, 2, 3)
    base = common_complement(fam, seed=3)
    X = np.vstack([np.eye(1, 8), np.eye(1, 8)])
    cfg = McConfig(samples=1000, seed=0, epsilon_grid=(0.1,))
    report, certs = translation_experiment(base, fam, X, cfg, radius=1e-12,
                                           max_exponent=22.0)
    assert len(certs) == cfg.samples
    assert all(c is None for c in certs)
    assert report.estimate == 0.0
    assert not report.verdict


@pytest.mark.parametrize("translation, kwargs, match", [
    ([[1.0, 0.0]], {"radius": math.inf}, "radius"),
    ([[1.0, 0.0]], {"radius": math.nan}, "radius"),
    ([[1.0, math.inf]], {}, "translation"),
    ([[math.nan, 0.0]], {}, "translation"),
    ([[1.0, 0.0]], {"max_exponent": math.nan}, "max_exponent"),
])
def test_translation_experiment_rejects_non_finite_input(translation, kwargs, match):
    fam = toy_family()
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=1000, seed=0, epsilon_grid=(0.1,))
    with pytest.raises(ValidationError, match=match):
        translation_experiment(base, fam, translation, cfg,
                               **{"radius": 1.0, "max_exponent": 7.0, **kwargs})


def test_translation_decay_ceiling_values(capsys):
    """Without --max-exponent, mc translation reports the ceiling 5 k^2 + 2."""
    for argv, ceiling in ((["mc", "translation"], 7.0),
                          (["mc", "translation", "--k", "2", "--dim", "30",
                            "--members", "20"], 22.0)):
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"][0]["metadata"]["max_exponent"] == ceiling


def test_translation_experiment_toy_instance():
    fam = toy_family()
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=1000, seed=42, epsilon_grid=(0.1,))
    report, certs = translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg,
                                           radius=1.0, max_exponent=7.0)
    assert report.estimate >= 0.99
    assert report.verdict
    assert report.metadata["exponent_max"] <= 7.0 + 0.5
    assert len(certs) == 1000
    assert all(c is not None for c in certs)


def test_translation_experiment_is_deterministic():
    fam = toy_family()
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=1000, seed=7, epsilon_grid=(0.1,))
    r1, _ = translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg,
                                   radius=1.0, max_exponent=7.0)
    r2, _ = translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg,
                                   radius=1.0, max_exponent=7.0)
    assert r1.to_dict() == r2.to_dict()


def test_translation_experiment_validates_shapes():
    fam = toy_family()
    base = common_complement(fam, seed=1)
    cfg = McConfig(samples=1000, seed=0, epsilon_grid=(0.1,))
    with pytest.raises(ValidationError, match="translation"):
        translation_experiment(base, fam, np.array([[1.0, 0.0, 0.0]]), cfg,
                               radius=1.0, max_exponent=7.0)
    with pytest.raises(ValidationError, match="radius"):
        translation_experiment(base, fam, np.array([[1.0, 0.0]]), cfg, radius=0.0,
                               max_exponent=7.0)
