"""Noise estimation and empirical-Bayes shrinkage of detail coefficients.

Details are standardized by their per-coefficient noise gain (the norm of
the matching forward-matrix row), so a homoscedastic spike-and-slab model
applies: prior (1-nu) delta_0 + nu * quasi-Cauchy, mixing weight fit by
marginal maximum likelihood, shrinkage by the posterior median (or a hard
threshold derived from the same weight).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc, ndtr

from .graph import Id, LineGraph
from .lifting import LiftingConfig, LiftingRecord, _replay_forward, _replay_inverse, forward

MAD_SCALE = 0.6745
#: the posterior-median bisection stops once every bracket is this narrow
POST_MED_TOL = 1e-13
#: identity columns `detail_gains` replays at a time, bounding its memory
GAIN_BLOCK = 1024
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class ShrinkageError(ValueError):
    """Invalid shrinkage inputs."""


@dataclass(frozen=True)
class ShrinkageConfig:
    """Thresholding policy: which levels pass through, and which rule."""

    keep_coarsest: int = 2
    rule: str = "median"      # "median" (posterior median) or "hard"

    def __post_init__(self):
        if self.keep_coarsest < 0:
            raise ShrinkageError("keep_coarsest must be nonnegative")
        if self.rule not in ("median", "hard"):
            raise ShrinkageError(f"unknown shrinkage rule {self.rule!r}")


@dataclass
class DenoiseResult:
    estimates: Dict[Id, float]
    sigma_hat: float
    nu_hat: float
    shrunk_details: Dict[Id, float]
    #: fraction of the m - tau shrunk details that are exactly 0
    zero_frac: float


# ---------------------------------------------------------------------------
# quasi-Cauchy building blocks (vectorized over standardized coefficients)

def _norm_pdf(x: np.ndarray) -> np.ndarray:
    # bit for bit the arithmetic of scipy.stats.norm.pdf: where the median's
    # objective is flat, rounding decides the bisection's path
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


def _norm_pdf1(x: float) -> float:
    return math.exp(-x * x / 2.0) / _SQRT_2PI


def _norm_moment2(z: float) -> float:
    """cdf(z) - 1/2 - z pdf(z), the integral of t^2 pdf(t) over [0, z], for
    z >= 0.  As gammainc(3/2, z^2/2) / 2 it keeps the digits that the
    difference cancels at small z (it is about z^3 / 7.5 there)."""
    return float(gammainc(1.5, z * z / 2.0)) / 2.0


def beta_cauchy(x: np.ndarray) -> np.ndarray:
    """(marginal/normal density ratio - 1) under the quasi-Cauchy slab."""
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, -0.5)
    # beta = -1/2 + x^2/8 + ... rounds to -1/2 below |x| = 1e-8, and x^2
    # underflows further down; NaN stays NaN
    nz = ~(np.abs(x) < 1e-8)
    # the normal density ratio pdf(0)/pdf(x) is exp(x^2/2): expm1 keeps the
    # digits that exp(x^2/2) - 1 cancels at small |x|, and its overflow to
    # inf beyond |x| ~ 37.7 lands on the cap below
    with np.errstate(over="ignore"):
        out[nz] = np.expm1(x[nz] ** 2 / 2.0) / x[nz] ** 2 - 1.0
    return np.minimum(out, 1e20)


def weight_from_thresh(thr: float) -> float:
    """Mixing weight whose posterior-median threshold equals `thr`."""
    denom = math.sqrt(math.pi / 2.0) * _norm_pdf1(thr) * thr * thr
    if denom == 0:
        return 1.0
    inv = 1.0 + _norm_moment2(thr) / denom
    return 1.0 / inv if math.isfinite(inv) else 1.0


def weight_from_data(x: np.ndarray) -> float:
    """Marginal maximum-likelihood mixing weight.

    The likelihood score S(w) = sum beta/(1 + w*beta) is decreasing in w;
    the solution is bracketed between the universal-threshold weight and 1.
    """
    x = np.asarray(x, dtype=float)
    m = x.size
    if m == 0:
        raise ShrinkageError("cannot fit mixing weight to zero coefficients")
    wlo = weight_from_thresh(math.sqrt(2.0 * math.log(m)))
    beta = beta_cauchy(x)

    def score(w: float) -> float:
        return float(np.sum(beta / (1.0 + w * beta)))

    if score(1.0) >= 0:
        return 1.0
    if score(wlo) <= 0:
        return wlo
    return float(brentq(score, wlo, 1.0, xtol=1e-12))


def _cauchy_med_half_yl(x: np.ndarray, w: float | np.ndarray) -> np.ndarray:
    """The mu-free half of `_cauchy_med_objective` at magnitudes `x`."""
    return (1.0 + np.exp(-x * x / 2.0) * (x * x * (1.0 / w - 1.0) - 1.0)) / 2.0


def _cauchy_med_objective(x: np.ndarray, half_yl: np.ndarray, mu: np.ndarray | float) -> np.ndarray:
    """The posterior median's objective at magnitudes `x` and trial medians
    `mu`: posterior tail probability minus 1/2, up to common positive
    factors, increasing in mu, with its root at the posterior median.
    `half_yl` is its mu-free half, `_cauchy_med_half_yl(x, w)`."""
    y = x - mu
    fy = _norm_pdf(y)
    yr = ndtr(y) - x * fy + (x * mu - 1.0) * fy * ndtr(-mu) / _norm_pdf(mu)
    return half_yl - yr


def post_med_cauchy(x: np.ndarray, w: float | np.ndarray) -> np.ndarray:
    """Posterior median of the mean given standardized data, vectorized.

    `w` is one mixing weight, or one per column of an (n, B) `x`.
    The objective increases in the median, so where it is >= 0 at 0 the
    median is 0, settled by that one evaluation.  The rest of |x| <= 20 is
    bracketed in [0, |x|] and bisected, each bracket until it is narrower
    than `POST_MED_TOL` (up to 48 halvings at |x| = 20), so a median
    does not depend on the other coefficients in the call.  Larger |x|
    uses the asymptote |x| - 2/|x|.  Medians below 1e-7 are clipped to
    exact zero; the sign is that of x, and no median exceeds |x|.
    """
    x = np.asarray(x, dtype=float)
    mag = np.abs(x)
    big = mag > 20.0
    work = np.where(big, 0.0, mag)
    half_yl = np.broadcast_to(_cauchy_med_half_yl(work, w), work.shape)

    med = np.zeros(work.size)
    # NaN input fails the screen and leaves the loop at once, as a NaN
    # width compares false
    idx = np.flatnonzero(~(_cauchy_med_objective(work, half_yl, 0.0) >= 0))
    xs, hs = work.ravel()[idx], half_yl.ravel()[idx]
    lo, hi = np.zeros_like(xs), xs
    while idx.size:
        open_ = hi - lo > POST_MED_TOL
        if not open_.all():
            med[idx[~open_]] = 0.5 * (lo[~open_] + hi[~open_])
            idx, xs, hs, lo, hi = idx[open_], xs[open_], hs[open_], lo[open_], hi[open_]
        mid = 0.5 * (lo + hi)
        below = _cauchy_med_objective(xs, hs, mid) <= 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    med = med.reshape(x.shape)

    med[big] = mag[big] - 2.0 / mag[big]
    med[med < 1e-7] = 0.0
    med = np.sign(x) * med
    clip = np.abs(med) > np.abs(x)
    med[clip] = x[clip]
    return med


def thresh_from_weight(w: float) -> float:
    """Hard-threshold location implied by a mixing weight."""

    def objective(z: float) -> float:
        return _norm_moment2(z) - z * z * math.sqrt(2 * math.pi) * _norm_pdf1(z) * (1.0 / w - 1.0) / 2.0

    # z = 0 is always a root; the threshold is the interior one
    lo = 1e-4
    if objective(lo) >= 0:
        return 0.0
    if objective(20.0) <= 0:
        return 20.0
    return float(brentq(objective, lo, 20.0, xtol=1e-12))


# ---------------------------------------------------------------------------
# pipeline operations

def _mad_sigma(finest: np.ndarray) -> np.ndarray:
    """median(|d - median(d)|) / 0.6745 down each column of `finest`, the
    finest-level details of one signal (n,) or of a batch (n, B)."""
    if len(finest) < 3:
        raise ShrinkageError(
            f"insufficient coefficients: finest level has {len(finest)}, need 3"
        )
    return np.median(np.abs(finest - np.median(finest, axis=0)), axis=0) / MAD_SCALE


def estimate_sigma_mad(details: np.ndarray, levels: np.ndarray) -> float:
    """Robust noise scale from the finest artificial level.

    `details` and the int array `levels` are aligned (canonical detail
    order); sigma = median(|d - median(d)|) / 0.6745 over level-0 details.
    """
    sigma = float(_mad_sigma(np.asarray(details, dtype=float)[np.asarray(levels) == 0]))
    if not sigma > 0:
        raise ShrinkageError(f"degenerate finest level: MAD noise estimate {sigma} is not positive")
    return sigma


def ebayes_threshold(
    details: np.ndarray,
    sigma: float | np.ndarray,
    levels: np.ndarray,
    config: ShrinkageConfig = ShrinkageConfig(),
) -> Tuple[np.ndarray, float | np.ndarray]:
    """Shrink details level-aware; returns (shrunk details, fitted weights).

    `details` is one signal's column (n,) or a batch (n, B), rows aligned
    to the int array `levels`; `sigma` is a noise scale, or one per column.
    The `keep_coarsest` coarsest levels pass through untouched; the rest
    are standardized by sigma, shrunk with a mixing weight fitted per
    column, and rescaled.  The weight is a float for one signal, else (B,).
    """
    details = np.asarray(details, dtype=float)
    levels = np.asarray(levels)
    if not np.all(sigma > 0):
        raise ShrinkageError(f"noise scale must be positive, got {sigma}")
    n_levels = int(levels.max()) + 1 if levels.size else 0
    if not config.keep_coarsest < max(n_levels, 1):
        raise ShrinkageError(
            f"keep_coarsest={config.keep_coarsest} must be below {n_levels} levels"
        )
    target = levels < n_levels - config.keep_coarsest
    out = details.copy()
    z = details[target] / sigma
    w = np.zeros(details.shape[1] if details.ndim > 1 else 1)
    if target.any():
        for j, col in enumerate(z.reshape(len(z), -1).T):
            try:
                w[j] = weight_from_data(col)
            except (ValueError, ArithmeticError) as exc:
                warnings.warn(f"mixing-weight fit failed ({exc}); falling back to 0.5")
                w[j] = 0.5
        if config.rule == "median":
            shrunk = post_med_cauchy(z, w)
        else:
            thr = np.array([thresh_from_weight(wj) for wj in w])
            shrunk = np.where(np.abs(z) > thr, z, 0.0)
        out[target] = shrunk * sigma
    return out, (w if details.ndim > 1 else float(w[0]))


def detail_gains(record: LiftingRecord) -> Dict[Id, float]:
    """Per-detail noise gain: the 2-norm of that forward-matrix row.

    Replays the archived filters on the identity matrix, `GAIN_BLOCK`
    columns at a time, and sums the rows' squared norms over the blocks,
    so no further graph work is needed and memory stays linear in m.
    """
    m, n = len(record.ids), len(record.stages)
    squares = np.zeros(n)
    for lo in range(0, m, GAIN_BLOCK):
        rows = _replay_forward(record, np.eye(m, min(GAIN_BLOCK, m - lo), -lo))[:n]
        squares += np.einsum("ij,ij->i", rows, rows)
    return dict(zip(record.removal_order, np.sqrt(squares).tolist()))


def _denoise_replay(
    record: LiftingRecord, X: np.ndarray, shrink_config: ShrinkageConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Denoise the signals X, shape (m,) or (m, B) in line-graph id order,
    on the plan `record`, shrinking by its artificial levels.

    Returns the estimates and the shrunk coefficients (canonical order),
    both shaped like X, and sigma and nu per column.  A column whose MAD is
    zero (noiseless input) passes through with sigma = nu = 0.
    """
    levels = record.levels
    if levels is None:
        raise ShrinkageError("too few detail coefficients to denoise")
    n = len(record.stages)
    lev = np.array([levels[k] for k in record.removal_order])
    # on very small graphs the finest level alone is too thin for a MAD;
    # pool upward from the finest until at least 3 coefficients are in hand
    pool = int(np.argmax(np.cumsum(np.bincount(lev)) >= 3))
    mad_levels = np.where(lev <= pool, 0, lev)

    C = _replay_forward(record, X).reshape(len(record.ids), -1)
    gains = np.fromiter(detail_gains(record).values(), float, n)[:, None]
    Z = C[:n] / gains
    sigma = _mad_sigma(Z[mad_levels == 0])
    nu = np.zeros_like(sigma)
    live = sigma > 0
    if live.any():
        shrunk, nu[live] = ebayes_threshold(Z[:, live], sigma[live], lev, shrink_config)
        C[:n, live] = shrunk * gains
    C = C.reshape(np.shape(X))
    return _replay_inverse(record, C), C, sigma, nu


def denoise(
    values: Mapping[Id, float],
    lg: LineGraph,
    config: LiftingConfig,
    shrink_config: ShrinkageConfig = ShrinkageConfig(),
    trajectory: Optional[Sequence[Id]] = None,
) -> DenoiseResult:
    """Plan the transform with `forward`, then denoise the one signal with
    the shrink core (`_denoise_replay`)."""
    _, record = forward(values, lg, config, trajectory=trajectory)
    x = np.array([values[k] for k in lg.ids], dtype=float)
    est, c, sigma, nu = _denoise_replay(record, x, shrink_config)
    details = c[: len(record.stages)]
    return DenoiseResult(
        estimates=dict(zip(record.ids, est.tolist())),
        sigma_hat=float(sigma[0]),
        nu_hat=float(nu[0]),
        shrunk_details=dict(zip(record.removal_order, details.tolist())),
        zero_frac=float(np.mean(details == 0.0)),
    )


def random_trajectories(
    lg: LineGraph, config: LiftingConfig, n: int, seed: int
) -> List[Tuple[Id, ...]]:
    """n removal orders: uniform permutations truncated to length m - tau."""
    out = []
    for p in range(n):
        rng = np.random.default_rng((seed, p))
        perm = rng.permutation(lg.m)
        out.append(tuple(lg.ids[i] for i in perm[: lg.m - config.tau]))
    return out


def nlt_denoise(
    values: Mapping[Id, float],
    lg: LineGraph,
    config: LiftingConfig,
    shrink_config: ShrinkageConfig = ShrinkageConfig(),
    n_trajectories: int = 30,
    seed: int | Sequence[int] = 0,
) -> Tuple[DenoiseResult, List[DenoiseResult]]:
    """Average the denoiser over random removal orders.

    Each trajectory gets an independent substream derived from (seed,
    index), so results do not depend on evaluation order.  `seed` is an
    int or a nonempty sequence of ints.  Returns the averaged result (its
    sigma, nu and zero fraction are the trajectories' means) plus the
    per-trajectory results.
    """
    if n_trajectories < 1:
        raise ShrinkageError("need at least one trajectory")
    parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    if not parts or not all(isinstance(s, (int, np.integer)) for s in parts):
        raise ShrinkageError(f"seed must be an int or a nonempty sequence of ints, got {seed!r}")
    if min(parts) < 0:
        raise ShrinkageError(f"seed must be nonnegative, got {seed}")
    singles = []
    for traj in random_trajectories(lg, config, n_trajectories, seed):
        singles.append(denoise(values, lg, config, shrink_config, trajectory=traj))
    mean_est = {
        k: sum(r.estimates[k] for r in singles) / len(singles) for k in lg.ids
    }
    combined = DenoiseResult(
        estimates=mean_est,
        sigma_hat=float(np.mean([r.sigma_hat for r in singles])),
        nu_hat=float(np.mean([r.nu_hat for r in singles])),
        shrunk_details={},
        zero_frac=float(np.mean([r.zero_frac for r in singles])),
    )
    return combined, singles
