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
  samples maps its per-sample draws to ball points as one stack, then takes
  one QR and one degree evaluation (|N_j b| at k = 1, a closed form at
  k = 2, one SVD at k >= 3).

The first three, the bulk suites, draw all their samples at once, scaled to
ball points in place, and stream them in blocks of about _BLOCK_CELLS
float64 cells, keeping integer totals or running minima, so their memory is
the draws plus one block and every result is bit-equal to one pass.

Sampling uses counter-based RNG keyed by the master seed, so results are
deterministic and every sample's randomness is addressable by its index:
sample i of the translation suite draws from
default_rng(SeedSequence(seed, spawn_key=(i,))) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011).  Those streams are not built
one SeedSequence at a time: _keyed_states derives a chunk's PCG64 seeds in
one vectorized pass, and _keyed_streams hands one reused generator each
state in turn, bit-equal to _keyed_rng's streams.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import (
    _BLOCK_CELLS,
    ValidationError,
    _det,
    _householder_frames,
    degrees_of_transversality,
)
from .separator import ComplementResult, SubspaceFamily, is_well_separating

#: Samples per stacked draw, QR and degree evaluation in translation_experiment.
_TRANSLATION_CHUNK = 256

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


# numpy's SeedSequence constants (pool size 4; O'Neill's seed_seq_fe) and
# PCG64's 128-bit LCG multiplier
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1

#: Largest sample count whose indices fit one 32-bit spawn-key word.
_KEYED_INDICES = 1 << 32


def _keyed_states(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 4) uint64 array: row i is
    SeedSequence(seed, spawn_key=(start + i,)).generate_state(4, np.uint64).

    A port of numpy's documented SeedSequence algorithm.  The pool mixed
    from the seed's words (zero-padded to the pool size, as numpy does when
    a spawn key follows) is the same for every index, so it is computed once
    in masked Python ints; the one spawn-key word of each index is then
    hashed into it, and the output words generated, as uint64 arrays of
    32-bit values, whose products never wrap.  Needs
    start + count <= _KEYED_INDICES.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    index = np.arange(start, start + count, dtype=np.uint64)
    pool = [mix(np.uint64(p), hashmix(index)) for p in pool]
    hash_const = _INIT_B
    out = np.empty((count, 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out[:, i] = value ^ value >> 16
    return out[:, 0::2] | out[:, 1::2] << 32


def _keyed_streams(seed: int, start: int, count: int):
    """Yield, for i = start .. start + count - 1, one reused Generator set to
    the stream of _keyed_rng(seed, i), bit for bit.

    Each state is PCG64's seeding step applied to _keyed_states' words; the
    first is checked against numpy's own PCG64(SeedSequence(...)), so a
    numpy whose seeding differs fails loudly instead of changing the draws.
    """
    bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(start,)))
    expected = bitgen.state["state"]
    rng = np.random.Generator(bitgen)
    for s_hi, s_lo, i_hi, i_lo in _keyed_states(seed, start, count).tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128,
                 "inc": inc}
        if expected is not None:
            if state != expected:
                raise RuntimeError("keyed PCG64 states differ from numpy's "
                                   "SeedSequence; its algorithm has changed")
            expected = None
        bitgen.state = {"bit_generator": "PCG64", "state": state,
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def _to_ball(g: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Ball points from (count, dim) Gaussians g and (count, 1) uniforms u:
    g scaled in place, in blocks of about _BLOCK_CELLS cells, so that each
    row is its direction times radius * u^(1/dim)."""
    block = max(1, _BLOCK_CELLS // g.shape[1])
    for start in range(0, len(g), block):
        rows = g[start:start + block]
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
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


def mc_bad_set_measure(family: SubspaceFamily, config: McConfig) -> list[McReport]:
    """Ball measure of points within epsilon * j^-2 of some member hyperplane,
    one report per epsilon of ``config.epsilon_grid``.

    Requires codim 1 (so n >= 2).  One draw of ball points serves the whole
    grid.  It is projected onto the normals in blocks of samples, and each
    epsilon compares a block's projections with its thresholds, adding to
    two integer totals: the samples in the union of the slabs and the slab
    hits.  The analytic bound is epsilon * (pi^2 / 3) * vol(B^{n-1}); the
    truncated sum over the J observed members is reported in the metadata
    and is always smaller.
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
    block = max(1, _BLOCK_CELLS // J)
    hits = np.empty((min(block, config.samples), J), dtype=bool)
    for start in range(0, config.samples, block):
        proj = points[start:start + block] @ family.normals[:, 0].T
        np.abs(proj, out=proj)
        hit = hits[:len(proj)]
        for e, threshold in enumerate(thresholds):
            np.less_equal(proj, threshold, out=hit)
            union[e] += int(np.count_nonzero(np.any(hit, axis=1)))
            slab_hits[e] += int(np.count_nonzero(hit))
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


def det_slab_coefficient(A_tilde: np.ndarray, eta_grid, samples: int,
                         seed: int):
    """Estimate mu({A : |det(A + A_tilde)| <= eta}) over an eta-grid and fit
    the through-origin slope c_hat.

    A has columns uniform in the unit ball of R^k, so mu lives on a domain
    of volume vol(B^k)^k; the determinants are counted in blocks of
    samples.  Returns (c_hat, r_squared, mu_estimates).
    """
    A_tilde = np.asarray(A_tilde, dtype=float)
    if A_tilde.ndim != 2 or A_tilde.shape[0] != A_tilde.shape[1]:
        raise ValidationError("shift matrix must be square")
    if not np.all(np.isfinite(A_tilde)):
        raise ValidationError("shift matrix has non-finite entries")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    k = A_tilde.shape[0]
    etas = np.asarray(sorted(float(e) for e in eta_grid), dtype=float)
    if etas.size < 2 or not np.all((etas > 0) & (etas < math.inf)):
        raise ValidationError("need at least two positive finite eta values")
    A = _ball_matrices(_keyed_rng(seed), samples, k)
    counts = [0] * etas.size
    block = max(1, _BLOCK_CELLS // k ** 2)
    for start in range(0, samples, block):
        dets = np.abs(_det(A[start:start + block] + A_tilde))
        for i, eta in enumerate(etas):
            counts[i] += int(np.count_nonzero(dets <= eta))
    domain_vol = ball_volume(k) ** k
    mu = np.array([domain_vol * count / samples for count in counts])
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
    measure-zero ties.  eps_hat is a running minimum over the shifts, taken
    per block of samples; like a minimum over all of them at once, it
    propagates NaN.

    Returns (McReport, per-sample eps_hat array); the verdict requires the
    linear fit to have r^2 >= 0.99 and the positive fraction >= 0.99.
    """
    A_arr = _shift_stack(A_list)
    J, k, _ = A_arr.shape
    c_hat, r_squared, mu = det_slab_coefficient(
        A_arr[0], config.epsilon_grid, config.samples, config.seed)

    A = _ball_matrices(_keyed_rng(config.seed, 1), config.samples, k)
    eps_hat = np.full(config.samples, np.inf)
    block = max(1, _BLOCK_CELLS // k ** 2)
    for start in range(0, config.samples, block):
        A_c = np.ascontiguousarray(np.moveaxis(A[start:start + block], 0, -1))
        out = eps_hat[start:start + block]
        for idx in range(J):
            M = np.moveaxis(A_c + A_arr[idx][..., None], -1, 0)  # (block, k, k)
            np.minimum(out, (idx + 1.0) ** 2 * np.abs(_det(M)), out=out)

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

    Samples go in chunks of about _BLOCK_CELLS / (k^2 J), so each chunk's
    sums fill one block array; a pair's bracket and SVD do not depend on
    its chunk.  At k = 1 (delta^0 = 1) it is min_j |m| j^2 of the sums m,
    NaN where one overflows, as from LAPACK's 1 x 1 SVD, which rescales and
    can be 1 ulp off where |m| leaves about [6.7e-139, 1.5e138].  From k = 2
    on, the weighting (x * j^2) * delta^-(k-1) rounds monotonically, so a
    pair whose weighted _sigma_min_bracket lower end exceeds its sample's
    smallest weighted upper end cannot hold the minimum; the same LAPACK
    SVD runs on the remaining pairs, in the same rounding order.
    """
    S, k, _ = A.shape
    J = len(A_arr)
    j2 = np.arange(1, J + 1, dtype=float) ** 2
    dpow = delta ** -(k - 1)
    A_c = np.moveaxis(A, 0, -1)
    shifts_c = np.moveaxis(A_arr, 0, -1)[..., None, :]
    chunk = max(1, _BLOCK_CELLS // (k * k * J))
    eps_hat = np.empty(S)
    for start in range(0, S, chunk):
        # component-major (k, k, chunk, J) sums, seen as a (chunk, J, k, k) stack
        M_c = np.add(A_c[..., start:start + chunk, None], shifts_c, order="C")
        if k == 1:
            s = np.abs(M_c[0, 0], out=M_c[0, 0])
            s[s == np.inf] = np.nan
            s *= j2
            eps_hat[start:start + len(s)] = np.min(s, axis=1)
            continue
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
    of the given radius is drawn from the stream _keyed_rng(seed, sample),
    reached through _keyed_streams (so samples is at most 2^32), the
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
    if config.samples > _KEYED_INDICES:
        raise ValidationError(f"samples must be at most 2**32, got {config.samples}")

    basis = base.complement.vectors
    g = np.empty((_TRANSLATION_CHUNK, k, k))
    u = np.empty((_TRANSLATION_CHUNK, k, 1))
    measured: list[np.ndarray | None] = []
    passing = []  # per chunk, the fitted exponent of each passing profile
    for start in range(0, config.samples, _TRANSLATION_CHUNK):
        m = min(_TRANSLATION_CHUNK, config.samples - start)
        for s, rng in enumerate(_keyed_streams(config.seed, start, m)):
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
