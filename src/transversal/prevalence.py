"""Monte Carlo checks of genericity: how rarely random data violates decay.

Four suites back the claim that poorly-transversal configurations are
exceptional:

* ``mc_bad_set_measure`` bounds the ball measure of points within
  eps * j^-2 of at least one member of a hyperplane family;
* ``mc_det_lower_bound`` studies |det(A + A_j)| for random coefficient
  matrices A, checking the measure of near-singular shifts is linear in
  the slab height and that eps_hat = min_j j^2 |det(A + A_j)| is positive;
* ``inverse_bound_check`` turns determinant floors into smallest-singular-
  value floors via sigma_min * ||inverse||_2 = 1; at k = 1 they are
  |A + A_j|, and from k = 2 on determinants bracket each sigma_min, so the
  SVD runs only on the pairs that can set a floor;
* ``translation_experiment`` perturbs a certified complement by random
  coefficient matrices plus a fixed translation and measures how often the
  resulting span still separates with a polynomial floor; each chunk of
  samples draws from one stream and maps its draws to ball points as one
  stack, orthonormalizes its spans by one stacked Gram-Schmidt, and takes
  one product per sample and one degree evaluation (|N_j b| at k = 1, a
  closed form at k = 2, one SVD at k >= 3).

The first three, the bulk suites, draw all their samples at once from one
keyed stream, _keyed_rng(seed) (see geometry), and scale them to ball
points in place.  The bad-set counts stream them in blocks of about
_BLOCK_CELLS float64 cells, keeping integer totals: each block is compared
once, at the largest epsilon, and every epsilon is counted on the cells
that comparison finds.  The determinant floors and slab counts, the k = 1
inverse floors and the sigma_min brackets take each chunk of samples
against every shift in one GEMM of fixed shape (_shift_tables): det(A +
A_j) by multilinearity, and the squared column norms of the sums, so for
k <= 3 no (samples, J, k, k) sums are formed.  So each suite's memory is
the draws plus one block or chunk, and no result depends on the block
size or on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import (
    _BLOCK_CELLS,
    ValidationError,
    _degrees,
    _det,
    _gram_schmidt_frames,
    _keyed_rng,
)
from .separator import ComplementResult, SubspaceFamily, is_well_separating

#: Samples per keyed stream, stacked draw, Gram-Schmidt and degree
#: evaluation in translation_experiment.  Part of the streams' definition:
#: changing it changes the draws.
_TRANSLATION_CHUNK = 256

#: Samples per GEMM of _shift_tables, for up to 64 shifts: a fixed power of
#: two, so that the product's shape, and with it its rounding, is the same
#: for every chunk, sample count and BLAS thread count.  More shifts halve
#: it (see _shift_chunk), so each (J, chunk) table stays within 2^16 cells.
_SHIFT_CHUNK = 1024

#: c in _sigma_min_bracket's slacks: tau = c k^3 2^k eps ||M||_F and the
#: expansion radii c (2k^2 + 3k) eps s^k and c (2k^2 + 3k) eps s^2.
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
    """Recursively convert numpy arrays to lists for strict JSON
    serialization; non-finite floats become None.  A numpy scalar other
    than float64 (a float) passes through, so serializing it fails loudly."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (count, dim) array, as a (count, 1)
    column bit-equal to np.linalg.norm(rows, axis=1, keepdims=True).

    Below 8 columns numpy sums each row's squares left to right, as the
    column-by-column sum here does, at a third of the cost; from 8 on its
    row sum is pairwise, so numpy's norm runs."""
    if rows.shape[1] >= 8:
        return np.linalg.norm(rows, axis=1, keepdims=True)
    sq = np.square(rows[:, :1])
    for c in range(1, rows.shape[1]):
        sq += np.square(rows[:, c:c + 1])
    return np.sqrt(sq, out=sq)


def _to_ball(g: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Ball points from (count, dim) Gaussians g and (count, 1) uniforms u:
    g scaled in place, in blocks of about _BLOCK_CELLS cells, so that each
    row is its direction times radius * u^(1/dim)."""
    block = max(1, _BLOCK_CELLS // g.shape[1])
    for start in range(0, len(g), block):
        rows = g[start:start + block]
        norms = _row_norms(rows)
        norms[norms == 0] = 1.0
        rows *= radius * u[start:start + block] ** (1.0 / g.shape[1]) / norms
    return g


def sample_ball(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points in the unit ball: Gaussian direction times U^(1/dim)
    scaling."""
    if count < 0 or dim < 1:
        raise ValidationError(f"need count >= 0 and dim >= 1, got {count} and {dim}")
    return _to_ball(rng.standard_normal((count, dim)), rng.random((count, 1)), 1.0)


def _ball_matrices(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """(count, k, k) stack of matrices whose columns are uniform in the unit
    ball, drawn as count * k consecutive ball points."""
    return sample_ball(rng, count * k, k).reshape(count, k, k).transpose(0, 2, 1)


def _shift_stack(A_list) -> np.ndarray:
    """A_list as a finite (J, k, k) float stack with J, k >= 1."""
    A_arr = np.asarray(A_list, dtype=float)
    if A_arr.ndim != 3 or A_arr.shape[1] != A_arr.shape[2]:
        raise ValidationError("A_list must be a stack of square matrices")
    if 0 in A_arr.shape:
        raise ValidationError("A_list must hold at least one nonempty matrix")
    if not np.all(np.isfinite(A_arr)):
        raise ValidationError("A_list has non-finite entries")
    return A_arr


def _cofactors(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Signed cofactors (-1)^(i+j) det(minor_ij) of a component-major
    (k, k, ...) stack with k <= 3, written to out; a 3 x 3 minor rounds as
    _det's."""
    k = len(m)
    if k == 1:
        out[0, 0] = 1.0
    elif k == 2:
        out[0, 0], out[0, 1], out[1, 0], out[1, 1] = m[1, 1], -m[1, 0], -m[0, 1], m[0, 0]
    else:
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                np.subtract(m[i1, j1] * m[i2, j2], m[i1, j2] * m[i2, j1], out=out[i, j])
    return out


def _shift_coefficients(shifts: np.ndarray, norms: bool) -> np.ndarray:
    """(rows, features) coefficients of _shift_tables for (J, k, k) shifts B,
    k <= 3: J determinant rows, then with ``norms`` k blocks of J column rows.

    Against the features (vec A, vec cof A, det A, 1, ||a_c||^2 ...) a
    determinant row is (vec cof B, vec B, 1, det B, 0 ...), the terms of
    det(A + B) with 0 ... k columns from B; at k = 2 the two cross terms
    are one, so its vec A slot is 0, and at k = 1 both are det A and det B.
    Column c's row is 2 b_c on its vec A slots, ||b_c||^2 against the 1 and
    1 against ||a_c||^2, summing to ||a_c + b_c||^2.
    """
    J, k, _ = shifts.shape
    kk = k * k
    B = np.moveaxis(shifts, 0, -1)
    coef = np.zeros((2 * kk + 2 + k * norms, (1 + k * norms) * J))
    det_rows = coef[:, :J]
    if k == 3:
        det_rows[:kk] = _cofactors(B, np.empty(B.shape)).reshape(kk, J)
    if k >= 2:
        det_rows[kk:2 * kk] = B.reshape(kk, J)
    det_rows[2 * kk] = 1.0
    det_rows[2 * kk + 1] = _det(shifts)
    for c in range(k if norms else 0):
        col_rows = coef[:, (1 + c) * J:(2 + c) * J]
        col_rows[c:kk:k] = 2.0 * B[:, c]
        col_rows[2 * kk + 1] = np.sum(B[:, c] * B[:, c], axis=0)
        col_rows[2 * kk + 2 + c] = 1.0
    return np.ascontiguousarray(coef.T)


def _shift_chunk(J: int) -> int:
    """Samples per GEMM of _shift_tables for J shifts: _SHIFT_CHUNK, halved
    while a (J, chunk) table would exceed 2^16 cells; it depends on J only."""
    chunk = _SHIFT_CHUNK
    while chunk > 1 and chunk * J > 1 << 16:
        chunk //= 2
    return chunk


def _shift_tables(A: np.ndarray, shifts: np.ndarray, norms: bool = False):
    """Yield (start, dets, col_sq, scale) for the pairs M = A_s + A_j of an
    (S, k, k) stack A against (J, k, k) shifts, a chunk of samples at a
    time: dets[j, s] = det M and, with ``norms``, col_sq[c, j, s] = ||m_c||^2
    for each column c and scale[j, s] = ||A_s||_F + ||A_j||_F, for the
    chunk's samples start, start + 1, ...; without, both are None.  The
    arrays are scratch: the next chunk overwrites them, so a caller may too.

    For k <= 3 nothing of size k^2 J per sample is formed: by multilinearity
    in the columns, det(A + B) = det A + <cof A, B> + <A, cof B> + det B and
    ||a_c + b_c||^2 = ||a_c||^2 + 2 <a_c, b_c> + ||b_c||^2, so each chunk is
    one GEMM of _shift_coefficients against the samples' features (vec A,
    vec cof A, det A, 1 and the ||a_c||^2).  The chunk is _shift_chunk(J)
    samples, the last one zero-padded, so the GEMM has one shape and its
    rounding does not depend on the sample count or the BLAS thread count.
    Each value is within gamma_m s^k (determinants) or gamma_m s^2 (squared
    norms) of the exact one, with s = ||A_s||_F + ||A_j||_F and m = 2k^2 +
    3k roundings, as its terms sum to at most per(|A| + |B|) <= s^k, and
    (||a_c|| + ||b_c||)^2 <= s^2.  k = 1 gives a + b and zero shifts give
    _det(A), exactly.  From k = 4 on the sums are formed, about
    _BLOCK_CELLS cells a chunk, and _det takes their LU determinants.
    """
    S, k, _ = A.shape
    J = len(shifts)
    if k > 3:
        chunk = max(1, _BLOCK_CELLS // (k * k * J))
        for start in range(0, S, chunk):
            M = A[start:start + chunk] + shifts[:, None]
            with np.errstate(all="ignore"):  # out-of-range sums: see the bracket
                col_sq = np.moveaxis(np.sum(M * M, axis=-2), -1, 0) if norms else None
                dets = _det(M)
            yield start, dets, col_sq, None
        return
    kk = k * k
    with np.errstate(all="ignore"):  # out of range, s^k voids the radii
        coef = _shift_coefficients(shifts, norms)
        shift_fro = np.linalg.norm(shifts, axis=(1, 2))[:, None]
    chunk = _shift_chunk(J)
    feats = np.empty((len(coef[0]), chunk))
    vec, cof = feats[:kk].reshape(k, k, -1), feats[kk:2 * kk].reshape(k, k, -1)
    feats[2 * kk + 1] = 1.0
    table = np.empty((len(coef), chunk))
    for start in range(0, S, chunk):
        block = A[start:start + chunk]
        m = len(block)
        feats[:, m:] = 0.0
        vec_m = vec[..., :m]
        np.copyto(vec_m, np.moveaxis(block, 0, -1))
        with np.errstate(all="ignore"):
            _cofactors(vec_m, cof[..., :m])
            feats[2 * kk, :m] = _det(np.moveaxis(vec_m, (0, 1), (-2, -1)))
            if norms:
                np.sum(vec_m * vec_m, axis=0, out=feats[2 * kk + 2:, :m])
                scale = np.sqrt(np.sum(feats[2 * kk + 2:, :m], axis=0)) + shift_fro
            np.matmul(coef, feats, out=table)
        if norms:
            yield start, table[:J, :m], table[J:].reshape(k, J, -1)[..., :m], scale
        else:
            yield start, table[:, :m], None, None


def mc_bad_set_measure(family: SubspaceFamily, config: McConfig) -> list[McReport]:
    """Ball measure of points within epsilon * j^-2 of some member hyperplane,
    one report per epsilon of ``config.epsilon_grid``.

    Requires codim 1 (so n >= 2).  One draw of ball points serves the whole
    grid.  It is projected onto the normals in blocks of samples, by
    np.matmul into one buffer, and each block is compared once, with the
    thresholds of the largest epsilon, the first of the grid.  McConfig
    makes the grid strictly decreasing and rounding is monotone, so every
    smaller epsilon's threshold eps_e * j^-2 is at most eps_0 * j^-2 and its
    hits are a subset of those cells.  Each epsilon then compares only those
    cells and adds to two integer totals: the slab hits, and the samples in
    the union of the slabs, the distinct rows among its cells, which come
    sorted from np.flatnonzero.  The analytic bound is
    epsilon * (pi^2 / 3) * vol(B^{n-1}); the truncated sum over the J
    observed members is reported in the metadata and is always smaller.
    """
    if family.codim != 1:
        raise ValidationError("bad-set suite requires a codimension-1 family")
    n = family.ambient_dim
    J = len(family)
    j2 = np.arange(1, J + 1, dtype=float) ** -2.0
    points = sample_ball(_keyed_rng(config.seed), config.samples, n)
    thresholds = [epsilon * j2 for epsilon in config.epsilon_grid]
    union = [0] * len(thresholds)
    slab_hits = [0] * len(thresholds)
    block = min(config.samples, max(1, _BLOCK_CELLS // J))
    projs = np.empty((block, J))
    hits = np.empty((block, J), dtype=bool)
    for start in range(0, config.samples, block):
        pts = points[start:start + block]
        proj = np.matmul(pts, family.normals[:, 0].T, out=projs[:len(pts)])
        np.abs(proj, out=proj)
        # the grid decreases, so every threshold lies below the first, which
        # finds every cell that any epsilon can count
        cells = np.flatnonzero(np.less_equal(proj, thresholds[0], out=hits[:len(pts)]))
        rows, cols = np.divmod(cells, J)
        values = proj.ravel()[cells]
        for e, threshold in enumerate(thresholds):
            inside = rows[values <= threshold[cols]]
            slab_hits[e] += inside.size
            # flatnonzero lists the cells row by row, so rows are sorted
            union[e] += int(np.count_nonzero(inside[1:] != inside[:-1])) + int(inside.size > 0)
    vol = ball_volume(n)
    shell = ball_volume(n - 1)
    reports = []
    for epsilon, count, total in zip(config.epsilon_grid, union, slab_hits):
        p = count / config.samples
        estimate = vol * p
        stderr = vol * math.sqrt(p * (1.0 - p) / config.samples)
        bound = epsilon * (math.pi ** 2 / 3.0) * shell
        truncated = 2.0 * epsilon * float(np.sum(j2)) * shell
        # multiplicity-counted slab sum: the subadditive majorant of the union,
        # exactly linear in epsilon until individual slabs saturate the ball
        sum_estimate = vol * (float(total) / config.samples)
        verdict = estimate <= bound + 3.0 * stderr
        reports.append(McReport(estimate, stderr, bound, verdict, metadata={
            "suite": "badset",
            "samples": config.samples,
            "seed": config.seed,
            "epsilon": epsilon,
            "ambient_dim": n,
            "members": J,
            "truncated_bound": truncated,
            "bad_count": count,
            "ball_volume": vol,
            "sum_estimate": sum_estimate,
            "bound_vacuous": bound >= vol,
        }))
    return reports


def mc_det_lower_bound(A_list, config: McConfig):
    """Determinant floors for randomly shifted coefficient matrices.

    One draw of samples A, columns uniform in the unit ball of R^k, from
    _keyed_rng(config.seed), serves both halves:
    (a) fits the through-origin slope c_hat of mu({|det(A + A_1)| <= eta})
    on the eta-grid ``config.epsilon_grid``, which needs at least two
    entries (the first shift acts as the fixed reference, and mu lives on
    a domain of volume vol(B^k)^k);
    (b) reports eps_hat = min_j j^2 |det(A + A_j)| per sample and the
    fraction of samples with eps_hat > 0, which should be 1 up to
    measure-zero ties.
    Both read the determinants of _shift_tables, a chunk of samples against
    every shift at once, whose row j = 1 gives the slab counts.  At k = 1,
    with zero shifts and from k = 4 on they are those of _det(A + A_j), and
    at k = 2, 3 within the expansion's rounding of them.  Like a minimum
    over the whole table, eps_hat propagates NaN.

    Returns (McReport, per-sample eps_hat array); the verdict requires the
    linear fit to have r^2 >= 0.99 and the positive fraction >= 0.99.
    """
    A_arr = _shift_stack(A_list)
    J, k, _ = A_arr.shape
    etas = np.array(sorted(config.epsilon_grid))
    if etas.size < 2:
        raise ValidationError("need at least two positive finite eta values")
    A = _ball_matrices(_keyed_rng(config.seed), config.samples, k)
    counts = np.zeros(etas.size, dtype=np.int64)
    eps_hat = np.empty(config.samples)
    j2 = np.arange(1, J + 1, dtype=float)[:, None] ** 2
    for start, dets, _, _ in _shift_tables(A, A_arr):
        np.abs(dets, out=dets)
        counts += np.count_nonzero(dets[0] <= etas[:, None], axis=1)
        dets *= j2
        eps_hat[start:start + dets.shape[1]] = np.min(dets, axis=0)

    mu = ball_volume(k) ** k * counts / config.samples
    c_hat = float(np.sum(mu * etas) / np.sum(etas ** 2))
    residuals = mu - c_hat * etas
    ss_tot = float(np.sum((mu - mu.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(residuals ** 2)) / ss_tot if ss_tot > 0 else 1.0
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
        "eta_grid": etas,
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
    eps * j^-2 * delta_j^(k-1).  At k = 1 that is min_j |A_s + A_j| * j^2;
    from k = 2 on the SVD runs only on the pairs that can set a sample's
    floor.
    """
    A = np.asarray(A, dtype=float)
    delta = np.asarray(delta_list, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValidationError("A must be a stack of square matrices")
    if not np.all(np.isfinite(A)):
        raise ValidationError("A has non-finite entries")
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


def _sigma_min_bracket(dets: np.ndarray, col_sq: np.ndarray, scale):
    """(lo, hi) with lo <= sigma_min(M) <= hi for the (J, chunk) pairs M =
    A_s + A_j of one _shift_tables chunk, k = len(col_sq) >= 2, valid for
    the exact sigma_min and for LAPACK's computed one of the formed sum.

    Above: the smallest column norm.  Below: |det M| / (||M||_F^2 /
    (k-1))^((k-1)/2), by AM-GM on sigma_1..sigma_{k-1}.  For k <= 3 the
    tables are the expansion's, so first |det M| shrinks by c (2k^2 + 3k)
    eps s^k and each squared column norm grows by c (2k^2 + 3k) eps s^2,
    s = ``scale``, which bounds their distance to the exact values (see
    _shift_tables).  Then both ends move out by tau = c k^3 2^k eps ||M||_F,
    with ||M||_F from the widened norms.  tau covers LAPACK's absolute error
    in sigma_min, the rounding of the formed sum (at most u ||M||_F) and of
    the two ends' own formulas; from k = 4 on, where the tables are the
    formed sums' and _det is an LU, it covers that LU's backward error E of
    up to about k^2 2^(k-1) eps ||M||_F (growth factor 2^(k-1)), which moves
    the lower end by at most k ||E||_2.  Where s^k (k <= 3) or ||M||_F^k
    leaves [2^-900, 2^900], under- or overflow could break the bounds, so
    the bracket is [0, inf).
    """
    k = len(col_sq)
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):  # out-of-range entries are widened below
        lo = np.abs(dets)
        hi = np.min(col_sq, axis=0)
        fro = np.sum(col_sq, axis=0)
        if k <= 3:
            sq_radius = scale * scale
            sq_radius *= _FLOOR_SLACK * (2 * k * k + 3 * k) * eps
            lo -= sq_radius * scale if k == 3 else sq_radius
            np.maximum(lo, 0.0, out=lo)
            hi += sq_radius
            sq_radius *= k
            fro += sq_radius
        lo /= (fro / (k - 1)) ** ((k - 1) / 2)
        np.sqrt(fro, out=fro)
        size = scale if k <= 3 else fro
        untrusted = ~((size > 2.0 ** (-900 / k)) & (size < 2.0 ** (900 / k)))
        tau = fro
        tau *= _FLOOR_SLACK * k ** 3 * 2.0 ** k * eps
        lo -= tau
        np.maximum(lo, 0.0, out=lo)
        np.sqrt(hi, out=hi)
        hi += tau
        lo[untrusted] = 0.0
        hi[untrusted] = np.inf
    return lo, hi


def _sigma_min_floors(A: np.ndarray, A_arr: np.ndarray,
                      delta: np.ndarray) -> np.ndarray:
    """eps_hat_s = min_j sigma_min(A_s + A_j) * j^2 * delta_j^-(k-1) for an
    (S, k, k) stack, bit-equal to one SVD over all S * J sums.

    At k = 1 (delta^0 = 1) it is min_j |m| j^2 of the sums m, NaN where
    one overflows, as from LAPACK's 1 x 1 SVD, which rescales and can be
    1 ulp off where |m| leaves about [6.7e-139, 1.5e138]; the sums are
    _shift_tables' determinants, which are a + b exactly at k = 1.  From
    k = 2 on, _shift_tables gives each chunk's determinants and column
    norms, and the weighting (x * j^2) * delta^-(k-1) rounds monotonically,
    so a pair whose weighted _sigma_min_bracket lower end exceeds its
    sample's smallest weighted upper end cannot hold the minimum; the
    remaining pairs' sums are formed and go to the same LAPACK SVD, so the
    floors do not depend on the chunk.
    """
    S, k, _ = A.shape
    J = len(A_arr)
    j2 = np.arange(1, J + 1, dtype=float) ** 2
    dpow = delta ** -(k - 1)
    eps_hat = np.empty(S)
    if k == 1:
        for start, sums, _, _ in _shift_tables(A, A_arr):
            np.abs(sums, out=sums)
            sums[sums == np.inf] = np.nan
            with np.errstate(over="ignore"):  # a floor past float64's range is inf
                sums *= j2[:, None]
            eps_hat[start:start + sums.shape[1]] = np.min(sums, axis=0)
        return eps_hat
    for start, dets, col_sq, scale in _shift_tables(A, A_arr, norms=True):
        lo, hi = _sigma_min_bracket(dets, col_sq, scale)
        for end in (lo, hi):
            end *= j2[:, None]
            end *= dpow[:, None]
        cols, rows = np.divmod(np.flatnonzero(~(lo > np.min(hi, axis=0))), lo.shape[1])
        s = np.linalg.svd(A[start + rows] + A_arr[cols], compute_uv=False)[:, -1]
        floors = np.full(lo.shape[1], np.inf)
        np.minimum.at(floors, rows, (s * j2[cols]) * dpow[cols])
        eps_hat[start:start + len(floors)] = floors
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
    of the given radius is drawn, the span of the translated combinations
    A^T B + X is certified against the family, and is_well_separating is
    evaluated at ``max_exponent``.  Chunk c, samples c * _TRANSLATION_CHUNK
    onward, draws from _keyed_rng(seed, c): (_TRANSLATION_CHUNK, k, k)
    Gaussians, then (_TRANSLATION_CHUNK, k, 1) uniforms, always a full
    chunk, so sample i's draws do not depend on ``config.samples``.  The
    chunk's sample s takes row s of both: its k ball points, in
    sample_ball's form, are the rows of its A^T.  Each chunk maps its draws
    to ball points at once, orthonormalizes its spans by geometry's
    _gram_schmidt_frames, the kernel and rank rule of orthonormalize, takes
    one (k, n) x (n, J k) product per sample and one stacked degree
    evaluation (geometry's _degrees), and fits each profile once in one
    stacked verdict.  The products round differently from certify's, so a
    delta row agrees with the deltas of certify(orthonormalize(A^T B + X),
    family) to a few units in the last place, not bit for bit.  The suite
    passes when at least 99% of the samples pass.

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
    if not 0 < radius < math.inf:
        raise ValidationError("radius must be positive and finite")

    basis = base.complement.vectors
    J = len(family)
    normals_t = np.ascontiguousarray(family.normals.reshape(J * k, n).T)
    g = np.empty((_TRANSLATION_CHUNK, k, k))
    u = np.empty((_TRANSLATION_CHUNK, k, 1))
    measured: list[np.ndarray | None] = []
    passing = []  # per chunk, the fitted exponent of each passing profile
    for start in range(0, config.samples, _TRANSLATION_CHUNK):
        m = min(_TRANSLATION_CHUNK, config.samples - start)
        rng = _keyed_rng(config.seed, start // _TRANSLATION_CHUNK)
        rng.standard_normal(out=g)
        rng.random(out=u)
        At = _to_ball(g[:m].reshape(-1, k), u[:m].reshape(-1, 1), radius)
        spans, independent = _gram_schmidt_frames(At.reshape(m, k, k) @ basis + X)
        full_rank = independent.all(axis=1)
        # (m, k, J k) products F N^T, seen as the (m, J, k, k) stack of N_j F^T
        prods = spans[full_rank] @ normals_t
        deltas = _degrees(prods.reshape(-1, k, J, k).transpose(0, 2, 3, 1))
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
        "members": J,
        "radius": float(radius),
        "max_exponent": float(max_exponent),
        "exponent_max": exp_max,
        "exponent_median": exp_median,
    })
    return report, measured


__all__ = [
    "McConfig",
    "McReport",
    "ball_volume",
    "inverse_bound_check",
    "mc_bad_set_measure",
    "mc_det_lower_bound",
    "mc_inverse_bound",
    "sample_ball",
    "translation_experiment",
]
