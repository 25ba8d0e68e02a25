"""Monte Carlo checks of genericity: how rarely random data violates decay.

Four suites back the claim that poorly-transversal configurations are
exceptional:

* ``mc_bad_set_measure`` bounds the ball measure of points within
  eps * j^-2 of at least one member of a hyperplane family;
* ``mc_det_lower_bound`` studies |det(A + A_j)| for random coefficient
  matrices A, checking the measure of near-singular shifts is linear in
  the slab height and that eps_hat = min_j j^2 |det(A + A_j)| is positive;
* ``inverse_bound_check`` turns determinant floors into smallest-singular-
  value floors via sigma_min * ||inverse||_2 = 1; determinants bracket each
  sigma_min, so the SVD runs only on the pairs that can set a floor;
* ``translation_experiment`` perturbs a certified complement by random
  coefficient matrices plus a fixed translation and measures how often the
  resulting span still separates with a polynomial floor; each chunk of
  samples maps its per-sample draws to ball points as one stack, then takes
  one QR and one degree evaluation (|N_j b| at k = 1, one SVD at k >= 2).

Sampling uses counter-based RNG keyed by the master seed, so results are
deterministic and every sample's randomness is addressable by its index.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import ValidationError, _householder_frames, degrees_of_transversality
from .separator import ComplementResult, SubspaceFamily, is_well_separating

#: Samples per stacked draw, QR and degree evaluation in translation_experiment.
_TRANSLATION_CHUNK = 256

#: (sample, shift) pairs per chunk of _sigma_min_floors.
_FLOOR_PAIRS = 1 << 18

#: c in the slack tau = c k^3 2^k eps ||M||_F of _sigma_min_bracket.
_FLOOR_SLACK = 8.0


def ball_volume(dim: int) -> float:
    """Lebesgue volume of the unit ball in R^dim (1 for dim = 0).

    From dim = 342 on, where math.gamma overflows, it is evaluated through
    lgamma; from dim = 453 on it underflows to 0.0.
    """
    if dim < 0:
        raise ValidationError("dimension must be nonnegative")
    try:
        return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    except OverflowError:
        return math.exp(dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0))


@dataclass(frozen=True)
class McConfig:
    """Sample count, master seed and epsilon-grid of one Monte Carlo run.

    ``epsilon_grid`` doubles as the eta-grid of the determinant suite and
    must be strictly decreasing.
    """

    samples: int
    seed: int
    epsilon_grid: tuple[float, ...]

    def __post_init__(self):
        if self.samples < 1000:
            raise ValidationError("samples must be at least 1000")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        grid = tuple(float(e) for e in self.epsilon_grid)
        if not grid or not all(0 < e < math.inf for e in grid):
            raise ValidationError("epsilon_grid entries must be positive and finite")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValidationError("epsilon_grid must be strictly decreasing")
        object.__setattr__(self, "epsilon_grid", grid)


@dataclass(frozen=True)
class McReport:
    """Outcome of one Monte Carlo suite.

    When ``analytic_bound`` is present the verdict passes iff
    estimate <= bound + 3 * stderr; bound-free suites put their pass
    condition in ``metadata['criterion']``.
    """

    estimate: float
    stderr: float
    analytic_bound: float | None
    verdict: bool
    metadata: dict

    def __post_init__(self):
        if self.analytic_bound is not None:
            expected = self.estimate <= self.analytic_bound + 3.0 * self.stderr
            if self.verdict != expected:
                raise ValidationError("verdict contradicts the bound comparison")

    def to_dict(self) -> dict:
        return _plain(asdict(self))


def _plain(obj):
    """Recursively convert numpy scalars/arrays for strict JSON serialization;
    non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return obj.item()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


def _keyed_rng(seed: int, *index: int) -> np.random.Generator:
    """Deterministic stream derived from (master seed, index...)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(index)))


def _to_ball(g: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Ball points from (count, dim) Gaussians and (count, 1) uniforms: the
    direction of each row of g times radius * u^(1/dim)."""
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g * (radius * u ** (1.0 / g.shape[1]) / norms)


def sample_ball(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points in the unit ball: Gaussian direction times U^(1/dim)
    scaling."""
    return _to_ball(rng.standard_normal((count, dim)), rng.random((count, 1)), 1.0)


def _ball_matrices(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """(count, k, k) stack of matrices whose columns are uniform in the unit
    ball, drawn as count * k consecutive ball points."""
    return sample_ball(rng, count * k, k).reshape(count, k, k).transpose(0, 2, 1)


def _shift_stack(A_list) -> np.ndarray:
    """A_list as a (J, k, k) float stack with J, k >= 1."""
    A_arr = np.asarray(A_list, dtype=float)
    if A_arr.ndim != 3 or A_arr.shape[1] != A_arr.shape[2]:
        raise ValidationError("A_list must be a stack of square matrices")
    if 0 in A_arr.shape:
        raise ValidationError("A_list must hold at least one nonempty matrix")
    return A_arr


def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of a (..., k, k) stack.

    For k <= 3 the cofactor expansion along the first row runs on the k^2
    component arrays, each made contiguous once; every monomial passes
    through at most 2k - 1 roundings, so the error is at most
    gamma_{2k-1} per(|M|) <= gamma_{2k-1} ||M||_F^k, and k = 1 is exact.
    For k >= 4 it is LAPACK's LU (np.linalg.det).
    """
    k = M.shape[-1]
    if k > 3:
        return np.linalg.det(M)
    m = [[np.ascontiguousarray(M[..., i, j]) for j in range(k)] for i in range(k)]
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def mc_bad_set_measure(family: SubspaceFamily, epsilon: float,
                       config: McConfig) -> McReport:
    """Ball measure of points within epsilon * j^-2 of some member hyperplane.

    Requires codim 1 and n >= 2.  The analytic bound is
    epsilon * (pi^2 / 3) * vol(B^{n-1}); the truncated sum over the J
    observed members is reported in the metadata and is always smaller.
    """
    if family.codim != 1:
        raise ValidationError("bad-set suite requires a codimension-1 family")
    n = family.ambient_dim
    if n < 2:
        raise ValidationError("need ambient dimension at least 2")
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    J = len(family)
    normals = family.normals[:, 0]
    j = np.arange(1, J + 1, dtype=float)
    thresholds = epsilon * j ** -2.0

    rng = _keyed_rng(config.seed)
    x = sample_ball(rng, config.samples, n)
    proj = x @ normals.T
    hits = np.abs(proj, out=proj) <= thresholds
    bad = np.any(hits, axis=1)
    count = int(np.count_nonzero(bad))
    p = count / config.samples
    vol = ball_volume(n)
    estimate = vol * p
    stderr = vol * math.sqrt(p * (1.0 - p) / config.samples)
    shell = ball_volume(n - 1)
    bound = epsilon * (math.pi ** 2 / 3.0) * shell
    truncated = 2.0 * epsilon * float(np.sum(j ** -2.0)) * shell
    # multiplicity-counted slab sum: the subadditive majorant of the union,
    # exactly linear in epsilon until individual slabs saturate the ball
    sum_estimate = vol * float(np.mean(np.count_nonzero(hits, axis=1)))
    verdict = estimate <= bound + 3.0 * stderr
    return McReport(estimate, stderr, bound, verdict, metadata={
        "suite": "badset",
        "samples": config.samples,
        "seed": config.seed,
        "epsilon": float(epsilon),
        "ambient_dim": n,
        "members": J,
        "truncated_bound": truncated,
        "bad_count": count,
        "ball_volume": vol,
        "sum_estimate": sum_estimate,
        "bound_vacuous": bound >= vol,
    })


def det_slab_coefficient(A_tilde: np.ndarray, eta_grid, samples: int,
                         seed: int):
    """Estimate mu({A : |det(A + A_tilde)| <= eta}) over an eta-grid and fit
    the through-origin slope c_hat.

    A has columns uniform in the unit ball of R^k, so mu lives on a domain
    of volume vol(B^k)^k.  Returns (c_hat, r_squared, mu_estimates).
    """
    A_tilde = np.asarray(A_tilde, dtype=float)
    if A_tilde.ndim != 2 or A_tilde.shape[0] != A_tilde.shape[1]:
        raise ValidationError("shift matrix must be square")
    k = A_tilde.shape[0]
    etas = np.asarray(sorted(float(e) for e in eta_grid), dtype=float)
    if etas.size < 2 or np.any(etas <= 0):
        raise ValidationError("need at least two positive eta values")
    A = _ball_matrices(_keyed_rng(seed), samples, k)
    dets = np.abs(_det(A + A_tilde))
    domain_vol = ball_volume(k) ** k
    mu = np.array([domain_vol * np.count_nonzero(dets <= e) / samples
                   for e in etas])
    c_hat = float(np.sum(mu * etas) / np.sum(etas ** 2))
    residuals = mu - c_hat * etas
    ss_tot = float(np.sum((mu - mu.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(residuals ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return c_hat, r_squared, mu


def mc_det_lower_bound(A_list, config: McConfig):
    """Determinant floors for randomly shifted coefficient matrices.

    (a) fits the slab coefficient c_hat of mu({|det(A + A_1)| <= eta}) on
    ``config.epsilon_grid`` (the first shift acts as the fixed reference);
    (b) reports eps_hat = min_j j^2 |det(A + A_j)| per sample and the
    fraction of samples with eps_hat > 0, which should be 1 up to
    measure-zero ties.

    Returns (McReport, per-sample eps_hat array); the verdict requires the
    linear fit to have r^2 >= 0.99 and the positive fraction >= 0.99.
    """
    A_arr = _shift_stack(A_list)
    J, k, _ = A_arr.shape
    c_hat, r_squared, mu = det_slab_coefficient(
        A_arr[0], config.epsilon_grid, config.samples, config.seed)

    A = _ball_matrices(_keyed_rng(config.seed, 1), config.samples, k)
    A_c = np.ascontiguousarray(np.moveaxis(A, 0, -1))  # (k, k, samples)
    scaled = np.empty((J, config.samples))
    for idx in range(J):
        M = np.moveaxis(A_c + A_arr[idx][..., None], -1, 0)
        scaled[idx] = (idx + 1.0) ** 2 * np.abs(_det(M))
    eps_hat = scaled.min(axis=0)

    frac = float(np.count_nonzero(eps_hat > 0)) / config.samples
    stderr = math.sqrt(frac * (1.0 - frac) / config.samples)
    verdict = (r_squared >= 0.99) and (frac >= 0.99)
    report = McReport(frac, stderr, None, verdict, metadata={
        "suite": "det",
        "criterion": "r_squared >= 0.99 and positive_fraction >= 0.99",
        "samples": config.samples,
        "seed": config.seed,
        "k": k,
        "members": J,
        "c_hat": c_hat,
        "r_squared": r_squared,
        "eta_grid": sorted(config.epsilon_grid),
        "mu_estimates": mu,
        "eps_hat_min": float(eps_hat.min()),
        "eps_hat_median": float(np.median(eps_hat)),
    })
    return report, eps_hat


def inverse_bound_check(A, A_list, delta_list):
    """Per-sample sigma_min floors for a (samples, k, k) stack A.

    Preconditions: delta_j in (0, 1] and ||A_j||_2 <= 1 / delta_j.  Returns
    the array of eps_hat_s = min_j sigma_min(A_s + A_j) * j^2 * delta_j^-(k-1),
    the largest eps consistent with the floors sigma_min(A_s + A_j) >=
    eps * j^-2 * delta_j^(k-1); the SVD runs only on the pairs that can set
    a sample's floor.
    """
    A = np.asarray(A, dtype=float)
    delta = np.asarray(delta_list, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValidationError("A must be a stack of square matrices")
    k = A.shape[-1]
    A_arr = _shift_stack(A_list)
    if A_arr.shape[1] != k:
        raise ValidationError("A_list must be a stack of k x k matrices")
    J = A_arr.shape[0]
    if delta.shape != (J,):
        raise ValidationError("delta_list length must match A_list")
    if not np.all((delta > 0) & (delta <= 1)):
        raise ValidationError("deltas must lie in (0, 1]")
    norms = np.linalg.norm(A_arr, ord=2, axis=(1, 2))
    if np.any(norms > 1.0 / delta + 1e-9):
        bad = int(np.argmax(norms * delta)) + 1
        raise ValidationError(
            f"shift {bad} has spectral norm {norms[bad - 1]:.6g} "
            f"exceeding 1/delta = {1.0 / delta[bad - 1]:.6g}"
        )
    return _sigma_min_floors(A, A_arr, delta)


def _sigma_min_bracket(M: np.ndarray):
    """(lo, hi) with lo <= sigma_min(M) <= hi for a (..., k, k) stack, valid
    for the exact sigma_min and for LAPACK's computed one.

    Above: the smallest column norm.  Below: |det M| / (||M||_F^2 /
    (k-1))^((k-1)/2), by AM-GM on sigma_1..sigma_{k-1} (|m| when k = 1).
    Both ends move out by tau = c k^3 2^k eps ||M||_F.  It covers LAPACK's
    absolute error in sigma_min and _det's rounding: for k <= 3 that moves
    the lower end by at most (k-1)^((k-1)/2) gamma_{2k-1} ||M||_F; for the
    LU, a backward error E of up to about k^2 2^(k-1) eps ||M||_F (growth
    factor 2^(k-1)) moves it by at most k ||E||_2.  Where ||M||_F^max(k,2)
    leaves [2^-900, 2^900], under- or overflow could break the bounds, so
    the bracket is [0, inf).  Fastest when each component M[..., i, j] is
    contiguous, as _det then copies nothing.
    """
    k = M.shape[-1]
    power = max(k, 2)
    with np.errstate(all="ignore"):  # out-of-range entries are widened below
        col_sq = np.sum(M * M, axis=-2)
        fro_sq = np.sum(col_sq, axis=-1)
        fro = np.sqrt(fro_sq)
        lower = np.abs(_det(M))
        if k > 1:
            lower /= (fro_sq / (k - 1)) ** ((k - 1) / 2)
        tau = _FLOOR_SLACK * k ** 3 * 2.0 ** k * np.finfo(float).eps * fro
        trusted = (fro > 2.0 ** (-900 / power)) & (fro < 2.0 ** (900 / power))
        lo = np.where(trusted, np.maximum(lower - tau, 0.0), 0.0)
        hi = np.where(trusted, np.sqrt(np.min(col_sq, axis=-1)) + tau, np.inf)
    return lo, hi


def _sigma_min_floors(A: np.ndarray, A_arr: np.ndarray,
                      delta: np.ndarray) -> np.ndarray:
    """eps_hat_s = min_j sigma_min(A_s + A_j) * j^2 * delta_j^-(k-1) for an
    (S, k, k) stack, bit-equal to one SVD over all S * J sums.

    The weighting (x * j^2) * delta^-(k-1) rounds monotonically, so a pair
    whose weighted _sigma_min_bracket lower end exceeds its sample's
    smallest weighted upper end cannot hold the minimum; the same LAPACK
    SVD runs on the remaining pairs, in the same rounding order.
    """
    S, k, _ = A.shape
    J = len(A_arr)
    j2 = np.arange(1, J + 1, dtype=float) ** 2
    dpow = delta ** -(k - 1)
    A_c = np.moveaxis(A, 0, -1)
    shifts_c = np.moveaxis(A_arr, 0, -1)[..., None, :]
    chunk = max(1, _FLOOR_PAIRS // J)
    eps_hat = np.empty(S)
    for start in range(0, S, chunk):
        # component-major (k, k, chunk, J) sums, seen as a (chunk, J, k, k) stack
        M_c = np.add(A_c[..., start:start + chunk, None], shifts_c, order="C")
        M = np.moveaxis(M_c, (0, 1), (-2, -1))
        lo, hi = _sigma_min_bracket(M)
        cutoff = np.min((hi * j2) * dpow, axis=1, keepdims=True)
        rows, cols = np.nonzero(~((lo * j2) * dpow > cutoff))
        s = np.linalg.svd(M[rows, cols], compute_uv=False)[:, -1]
        floors = np.full(len(lo), np.inf)
        np.minimum.at(floors, rows, (s * j2[cols]) * dpow[cols])
        eps_hat[start:start + len(lo)] = floors
    return eps_hat


def mc_inverse_bound(A_list, delta_list, config: McConfig):
    """Sample A (columns uniform in the unit ball) and check eps_hat > 0.

    Each sample's floor is inverse_bound_check's eps_hat, so its
    preconditions on the shifts and deltas apply.  Returns (McReport,
    per-sample eps_hat array).
    """
    A_arr = _shift_stack(A_list)
    J, k, _ = A_arr.shape
    A = _ball_matrices(_keyed_rng(config.seed), config.samples, k)
    eps_hat = inverse_bound_check(A, A_arr, delta_list)
    frac = float(np.count_nonzero(eps_hat > 0)) / config.samples
    stderr = math.sqrt(frac * (1.0 - frac) / config.samples)
    report = McReport(frac, stderr, None, frac >= 0.99, metadata={
        "suite": "inverse",
        "criterion": "positive_fraction >= 0.99",
        "samples": config.samples,
        "seed": config.seed,
        "k": k,
        "members": J,
        "eps_hat_min": float(eps_hat.min()),
        "eps_hat_median": float(np.median(eps_hat)),
    })
    return report, eps_hat


def translation_experiment(base: ComplementResult, family: SubspaceFamily,
                           translation, config: McConfig, radius: float,
                           max_exponent: float):
    """How often random coefficient perturbations of a certified complement,
    shifted by a fixed translation, still separate with a polynomial floor.

    For each sample a coefficient matrix A with columns uniform in the ball
    of the given radius is drawn from a stream keyed by (seed, sample), the
    span of the translated combinations A^T B + X is certified against the
    family, and is_well_separating is evaluated at ``max_exponent``.  The
    per-sample loop only draws, in sample_ball's order; each chunk then maps
    all its draws to ball points at once and takes one stacked QR
    (orthonormalize's kernel), one stacked degree evaluation and one stacked
    verdict, which fits each profile once, so every delta row equals the
    deltas of certify(orthonormalize(A^T B + X), family).  The suite passes
    when at least 99% of the samples pass.

    Returns (McReport, list with one entry per sample: its read-only (J,)
    row of measured deltas, or None for a degenerate draw).
    """
    k = family.codim
    n = family.ambient_dim
    X = np.atleast_2d(np.asarray(translation, dtype=float))
    if X.shape != (k, n):
        raise ValidationError(f"translation must be {k} vectors in R^{n}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("translation has non-finite entries")
    if base.complement.ambient_dim != n or base.complement.size != k:
        raise ValidationError("base complement does not match the family")
    if not base.certificate.positive:
        raise ValidationError("base is not a certified complement of the family")
    if not 0 < radius < math.inf:
        raise ValidationError("radius must be positive and finite")

    basis = base.complement.vectors
    g = np.empty((_TRANSLATION_CHUNK, k, k))
    u = np.empty((_TRANSLATION_CHUNK, k, 1))
    measured: list[np.ndarray | None] = []
    passing = []  # per chunk, the fitted exponent of each passing profile
    for start in range(0, config.samples, _TRANSLATION_CHUNK):
        m = min(_TRANSLATION_CHUNK, config.samples - start)
        for s in range(m):
            rng = _keyed_rng(config.seed, start + s)
            rng.standard_normal(out=g[s])
            rng.random(out=u[s])
        # the rows of sample s's A^T are its k ball points
        At = _to_ball(g[:m].reshape(-1, k), u[:m].reshape(-1, 1), radius)
        spans, full_rank = _householder_frames(At.reshape(m, k, k) @ basis + X)
        deltas = degrees_of_transversality(family.normals, spans[full_rank])
        deltas.setflags(write=False)
        verdicts, p = is_well_separating(deltas, max_exponent)
        passing.append(p[verdicts])
        rows = iter(deltas)
        measured.extend(next(rows) if ok else None for ok in full_rank)

    exponents = np.concatenate(passing)
    frac = exponents.size / config.samples
    stderr = math.sqrt(frac * (1.0 - frac) / config.samples)
    exp_max = float(exponents.max()) if exponents.size else float("nan")
    exp_median = float(np.median(exponents)) if exponents.size else float("nan")
    report = McReport(frac, stderr, None, frac >= 0.99, metadata={
        "suite": "translation",
        "criterion": "passing_fraction >= 0.99",
        "samples": config.samples,
        "seed": config.seed,
        "k": k,
        "ambient_dim": n,
        "members": len(family),
        "radius": float(radius),
        "max_exponent": float(max_exponent),
        "exponent_max": exp_max,
        "exponent_median": exp_median,
    })
    return report, measured


__all__ = [
    "ball_volume",
    "McConfig",
    "McReport",
    "sample_ball",
    "mc_bad_set_measure",
    "det_slab_coefficient",
    "mc_det_lower_bound",
    "inverse_bound_check",
    "mc_inverse_bound",
    "translation_experiment",
]
