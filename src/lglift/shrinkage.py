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
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import erfcx, gammainc, ndtr

from .graph import Id, LineGraph
from .lifting import (
    CoefficientSet, LiftingConfig, LiftingRecord, _by_level, _checked, _is_count, _stream, forward,
    inverse,
)

MAD_SCALE = 0.6745
#: the posterior-median Newton iteration stops each coefficient once its step
#: or its bracket is this narrow, relative to max(1, |x|)
POST_MED_TOL = 1e-13
#: below this |x| the posterior median's objective is integrated from its
#: slope, as its closed form cancels there
POST_MED_SMALL = 0.2
#: above this |x| the posterior median is the asymptote |x| - 2/|x|, whose
#: error, about (2/3)/|x|^3, is then below POST_MED_TOL |x|
POST_MED_BIG = 2000.0
#: the mixing-weight fit and the hard threshold stop each root once its
#: Newton step is this small
WEIGHT_TOL = 1e-13
#: the smallest mixing weight: below it, 1/w overflows
W_MIN = float(np.finfo(float).tiny)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI_2 = math.sqrt(math.pi / 2.0)
# the 4-point Gauss-Legendre rule on [0, 1], as columns; the nodes end with
# 1, where the integrand is the slope itself
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(4)
_GL_NODES = np.append((1.0 + _gl_nodes) / 2.0, 1.0)[:, None]
_GL_WEIGHTS = (_gl_weights / 2.0)[:, None]


class ShrinkageError(ValueError):
    """Invalid shrinkage inputs."""


@dataclass(frozen=True)
class ShrinkageConfig:
    """Thresholding policy: which levels pass through, and which rule."""

    keep_coarsest: int = 2
    rule: str = "median"      # "median" (posterior median) or "hard"

    def __post_init__(self):
        if not (_is_count(self.keep_coarsest) and self.keep_coarsest >= 0):
            raise ShrinkageError(
                f"keep_coarsest must be a nonnegative integer, got {self.keep_coarsest!r}"
            )
        if self.rule not in ("median", "hard"):
            raise ShrinkageError(f"unknown shrinkage rule {self.rule!r}")


@dataclass(eq=False)
class DenoiseResult:
    """A denoised signal or batch: the estimates in line-graph id order
    (`ids`) and the shrunk details in removal order (`detail_ids`), as
    arrays, (m,) and (n,) for one signal or (m, B) and (n, B) for a batch,
    and as dicts by id (`estimates`, `shrunk_details`; lists for a batch)
    built when first read.  `sigma_hat` and `nu_hat`, the MAD noise scale
    and the mixing weight, are floats for one signal, (B,) for a batch."""

    ids: Tuple[Id, ...]
    estimate_vector: np.ndarray
    sigma_hat: float | np.ndarray
    nu_hat: float | np.ndarray
    detail_ids: Tuple[Id, ...]
    shrunk_vector: np.ndarray
    #: fraction of the shrunk details (m - tau per column) that are exactly 0
    zero_frac: float
    #: fraction of the columns whose mixing-weight fit fell back to 0.5
    fallback_frac: float
    #: the coarsest artificial level in the MAD noise estimate (0: the finest alone)
    mad_pool_level: int

    @cached_property
    def estimates(self) -> Dict[Id, float]:
        return dict(zip(self.ids, self.estimate_vector.tolist()))

    @cached_property
    def shrunk_details(self) -> Dict[Id, float]:
        return dict(zip(self.detail_ids, self.shrunk_vector.tolist()))


# ---------------------------------------------------------------------------
# quasi-Cauchy building blocks (vectorized over standardized coefficients)

def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def beta_cauchy(x: np.ndarray) -> np.ndarray:
    """(marginal/normal density ratio - 1) under the quasi-Cauchy slab."""
    x = np.asarray(x, dtype=float)
    mag = np.abs(x)
    # every finite |x| from 38 on takes the cap, unsquared (x^2 overflows
    # from |x| ~ 1.3e154); a NaN or infinite x has no ratio
    out = np.where(np.isfinite(x), 1e20, np.nan)
    # beta = -1/2 + x^2/8 + ... rounds to -1/2 below |x| = 1e-8, and x^2
    # underflows further down
    out[mag < 1e-8] = -0.5
    mid = (mag >= 1e-8) & (mag < 38.0)
    # the normal density ratio pdf(0)/pdf(x) is exp(x^2/2): expm1 keeps the
    # digits that exp(x^2/2) - 1 cancels at small |x|, and its overflow to
    # inf beyond |x| ~ 37.7 lands on the cap below
    sq = x[mid] ** 2
    with np.errstate(over="ignore"):
        out[mid] = np.expm1(sq / 2.0) / sq - 1.0
    return np.minimum(out, 1e20)


def weight_from_thresh(thr: float) -> float:
    """Mixing weight whose posterior-median threshold equals `thr`, with
    cdf(thr) - 1/2 - thr pdf(thr) as gammainc(3/2, thr^2/2) / 2, which keeps
    the digits that the difference cancels at small thr."""
    denom = _SQRT_PI_2 * (math.exp(-thr * thr / 2.0) / _SQRT_2PI) * thr * thr
    if denom == 0:
        return 1.0
    inv = 1.0 + float(gammainc(1.5, thr * thr / 2.0)) / 2.0 / denom
    return 1.0 / inv if math.isfinite(inv) else 1.0


def weight_from_data(x: np.ndarray) -> float | np.ndarray:
    """Marginal maximum-likelihood mixing weight of one column (n,), a float,
    or of each column of (n, B), a (B,) array.

    The likelihood score S(w) = sum beta/(1 + w*beta) is decreasing in w;
    the solution is bracketed between the universal-threshold weight w_lo
    and 1, and is exactly 1 where S(1) >= 0 and exactly w_lo where
    S(w_lo) <= 0.  An interior root is found from w_lo by the safeguarded
    Newton solver `_newton_root` on -w*S(w) = sum 1/(1 + w*beta) - n, which
    is nearly linear in w and increasing through the root.  Each column
    stops once its step is within `WEIGHT_TOL`, and its sums run along one
    contiguous row, so a weight does not depend on the other columns.  A
    column whose score is not finite (one with a NaN or infinite
    coefficient) has no weight: NaN in a batch, ShrinkageError for one
    column.  A finite coefficient, however large, has beta at its cap.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n == 0:
        raise ShrinkageError("cannot fit mixing weight to zero coefficients")
    wlo = weight_from_thresh(math.sqrt(2.0 * math.log(n)))
    beta = beta_cauchy(np.ascontiguousarray(x.reshape(n, -1).T))
    s_one = np.add.reduce(beta / (1.0 + beta), axis=1)
    s = np.add.reduce(beta / (1.0 + wlo * beta), axis=1)
    w = np.where(s_one >= 0, 1.0, np.where(s <= 0, wlo, np.nan))
    idx = np.flatnonzero((s_one < 0) & (s > 0))
    start = np.full(idx.size, wlo)
    w[idx] = _newton_root(_weight_objective, start, (beta[idx],), start, np.ones(idx.size),
                          np.full(idx.size, WEIGHT_TOL))
    if x.ndim > 1:
        return w
    if np.isnan(w[0]):
        raise ShrinkageError("cannot fit mixing weight: the likelihood score is not finite")
    return float(w[0])


def _weight_objective(w: np.ndarray, beta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """-w S(w) and its slope -(S + w S') = w sum t^2 - S, with t = beta/(1 +
    w beta), at trial weights `w` for the rows of `beta`."""
    t = beta / (1.0 + w[:, None] * beta)
    s = np.add.reduce(t, axis=1)
    return -(w * s), w * np.add.reduce(t * t, axis=1) - s


def _mills(mu: np.ndarray) -> np.ndarray:
    """The Mills ratio cdf(-mu) / pdf(mu), from `erfcx`, so it keeps its
    digits where the density and the tail are both far below 1."""
    return _SQRT_PI_2 * erfcx(mu / math.sqrt(2.0))


def _cauchy_med_half_yl(x: np.ndarray, w: float | np.ndarray) -> np.ndarray:
    """The mu-free half of `_cauchy_med_objective` at magnitudes `x`."""
    u = x * x / 2.0
    return (np.exp(-u) * x * x * (1.0 / w - 1.0) - np.expm1(-u)) / 2.0


def _cauchy_med_objective(
    mu: np.ndarray | float, x: np.ndarray, half_yl: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The posterior median's objective g and its slope g' at magnitudes
    `x` and trial medians `mu`.

    g(mu) = half_yl - yr(mu) is the posterior tail probability minus 1/2,
    up to common positive factors, with its root at the posterior median;
    `half_yl` is its mu-free half, `_cauchy_med_half_yl(x, w)`, and
    yr(mu) = cdf(y) - x pdf(y) + (x mu - 1) pdf(y) R(mu) with y = x - mu and
    R the Mills ratio.  g'(mu) = x^2 pdf(y) (1 - mu R(mu)) > 0, as mu R(mu)
    < 1.  Its terms are O(1) where g is O(x^3) at small x and w near 1, so
    below `POST_MED_SMALL` the median uses `_cauchy_med_objective_small`.
    """
    y = x - mu
    fy = _norm_pdf(y)
    fr = fy * _mills(mu)
    # pdf(y) (1 - mu R(mu)), the slope over x^2
    d = fy - mu * fr
    return half_yl - ndtr(y) + x * d + fr, x * x * d


def _cauchy_med_at_zero(x: np.ndarray, w: float | np.ndarray) -> np.ndarray:
    """g(0) = exp(-x^2/2) x^2 (1/w - 1) / 2 - (cdf(x) - 1/2 - x pdf(x)),
    the latter as `gammainc(3/2, x^2/2) / 2`: for small |x| the difference
    of positive O(x^2) and O(x^3) terms, not of O(1) ones."""
    return np.exp(-x * x / 2.0) * x * x * (1.0 / w - 1.0) / 2.0 - gammainc(1.5, x * x / 2.0) / 2.0


def _cauchy_med_objective_small(
    mu: np.ndarray, x: np.ndarray, g0: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """`_cauchy_med_objective` for |x| < `POST_MED_SMALL`, without its
    cancellation: g(mu) = g(0) + the integral of g' over [0, mu], with
    `g0` = `_cauchy_med_at_zero(x, w)` and the integral by the 4-point
    Gauss-Legendre rule.  Its relative error is about 1e-16 up to mu = 0.1
    and 1e-14 at 0.2; the root lies near |x|/3 or below."""
    s = _GL_NODES * mu
    h = _norm_pdf(x - s) * (1.0 - s * _mills(s))
    x2 = x * x
    return g0 + x2 * mu * np.add.reduce(_GL_WEIGHTS * h[:-1], axis=0), x2 * h[-1]


def _newton_root(objective, x0: np.ndarray, aux: tuple, lo: np.ndarray, hi: np.ndarray,
                 tol: np.ndarray) -> np.ndarray:
    """The root in [lo, hi] of `objective(x, *aux)`, which returns g and
    g' at trial points x, g increasing through the root, by Newton steps
    from x0 inside a bracket that the sign of g narrows (g <= 0 raises lo,
    else hi comes down); a step that leaves the open bracket is replaced by
    its midpoint.  All arrays hold one entry (a row for `aux`) per root.
    Each root stops on its own, once its step or its bracket is within its
    `tol`; a NaN stops after its first evaluation.  The weight fit, the
    posterior median and the hard threshold all solve with it.  The arrays
    are tiny (a few roots, a few evaluations each), so the loop is written
    for few numpy calls: once a root shuts, every root in hand writes its
    step clipped into its bracket, with no mask, and the midpoint is formed
    only when some step leaves the bracket."""
    root = np.empty_like(x0)
    idx = np.arange(x0.size)
    x = x0
    while idx.size:
        g, slope = objective(x, *aux)
        below = g <= 0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        step = g / slope
        new = x - step
        # a NaN compares false, so it leaves at once
        open_ = (np.abs(step) > tol) & (hi - lo > tol)
        n_open = np.count_nonzero(open_)
        if n_open < idx.size:
            # the open roots are written again when they shut
            root[idx] = np.minimum(np.maximum(new, lo), hi)
            if not n_open:
                break
            idx, lo, hi, tol, new = idx[open_], lo[open_], hi[open_], tol[open_], new[open_]
            aux = tuple([a[open_] for a in aux])
        inside = (new > lo) & (new < hi)
        x = new if inside.all() else np.where(inside, new, 0.5 * (lo + hi))
    return root


def post_med_cauchy(x: np.ndarray, w: float | np.ndarray) -> np.ndarray:
    """Posterior median of the mean given standardized data, vectorized.

    `w` is one mixing weight, or one per column of an (n, B) `x`.
    The objective increases in the median, so where it is >= 0 at 0 the
    median is 0, settled by that one evaluation.  The rest of |x| <=
    `POST_MED_BIG` is found in [0, |x|] by safeguarded Newton steps on the
    objective and its closed-form slope (`_newton_root`), from the
    asymptote |x| - 2/|x| clipped into that bracket; about 4 evaluations
    where the bisection took up to 48 halvings.  Each coefficient stops on
    its own, so a median does not depend on the other coefficients in the
    call.  Below |x| = `POST_MED_SMALL` the objective is one that does not
    cancel.  Larger |x| uses the asymptote, by then within `POST_MED_TOL`
    |x| of the median.  Medians below 1e-7 are clipped to exact zero;
    the sign is that of x, and no median exceeds |x|.  A weight outside
    [`W_MIN`, 1] raises ShrinkageError.
    """
    wa = np.asarray(w)
    if not np.all((wa >= W_MIN) & (wa <= 1)):  # NaN too
        raise ShrinkageError(f"mixing weight must be in [{W_MIN}, 1], got {w!r}")
    x = np.asarray(x, dtype=float)
    mag = np.abs(x)
    big = mag > POST_MED_BIG
    work = np.where(big, 0.0, mag).ravel()
    wt = np.broadcast_to(w, x.shape).ravel()
    half_yl = _cauchy_med_half_yl(work, wt)
    g0 = _cauchy_med_objective(0.0, work, half_yl)[0]
    small = work < POST_MED_SMALL
    g0[small] = _cauchy_med_at_zero(work[small], wt[small])

    med = np.zeros(work.size)
    # NaN input fails the screen, and stops at its first evaluation
    live = ~(g0 >= 0)
    for group, objective, aux in (
        (live & ~small, _cauchy_med_objective, half_yl),
        (live & small, _cauchy_med_objective_small, g0),
    ):
        idx = np.flatnonzero(group)
        if idx.size:
            xs = work[idx]
            start = np.minimum(np.maximum(xs - 2.0 / xs, 0.0), xs)
            med[idx] = _newton_root(objective, start, (xs, aux[idx]), np.zeros_like(xs), xs,
                                    POST_MED_TOL * np.maximum(1.0, xs))
    med = med.reshape(x.shape)

    if big.any():
        med[big] = mag[big] - 2.0 / mag[big]
    med[med < 1e-7] = 0.0
    med = np.sign(x) * med
    clip = np.abs(med) > mag
    med[clip] = x[clip]
    return med


def _thresh_objective(z: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """g(z) = -`_cauchy_med_at_zero`(z, w), the hard threshold's objective,
    and its slope z^2 pdf(z) - (1/w - 1)/2 (2z - z^3) exp(-z^2/2)."""
    slope = z * np.exp(-z * z / 2.0) * (z / _SQRT_2PI - (1.0 / w - 1.0) / 2.0 * (2.0 - z * z))
    return -_cauchy_med_at_zero(z, w), slope


def _hard_thresholds(w: np.ndarray) -> np.ndarray:
    """The hard threshold of each weight in [`W_MIN`, 1], where the posterior
    median leaves 0: 0 if g(1e-4) >= 0, 20 if g(20) <= 0, else the root of g
    (`_thresh_objective`) between, by `_newton_root` from the smaller of the
    small-z root 3 sqrt(2 pi) (1/w - 1) / 2 and one step of the large-z
    z^2 = 2 log(1 + (1/w - 1) z^2 / gammainc(3/2, z^2/2)) from 2 log(1/w)."""
    lo, hi = 1e-4, 20.0
    g_lo, g_hi = -_cauchy_med_at_zero(lo, w), -_cauchy_med_at_zero(hi, w)
    thr = np.where(g_lo >= 0, 0.0, hi)
    idx = np.flatnonzero((g_lo < 0) & (g_hi > 0))
    wi, n = w[idx], idx.size
    r, z2 = 1.0 / wi - 1.0, -2.0 * np.log(wi)
    start = np.minimum(1.5 * _SQRT_2PI * r, np.sqrt(2.0 * np.log1p(r * z2 / gammainc(1.5, z2 / 2.0))))
    start = np.minimum(np.maximum(start, lo), hi)
    thr[idx] = _newton_root(_thresh_objective, start, (wi,), np.full(n, lo), np.full(n, hi),
                            np.full(n, WEIGHT_TOL))
    return thr


# ---------------------------------------------------------------------------
# pipeline operations

def _median(a: np.ndarray) -> np.ndarray:
    """`np.median(a, axis=0)` of a float array (n,) or (n, B), n >= 1, bit
    for bit, from one `np.partition` with numpy's kth list (the middle rows
    and the last): the mean of the middle row or rows as `np.mean` forms
    it, a sum that starts from 0.0 (so -0.0 comes out as 0.0) over the
    count, and a column's last partitioned row where that is NaN, as
    numpy's NaN check returns it."""
    n = len(a)
    h = n // 2
    p = np.partition(a, [h, n - 1] if n % 2 else [h - 1, h, n - 1], axis=0)
    mid = 0.0 + p[h] if n % 2 else (0.0 + p[h - 1] + p[h]) / 2.0
    last = p[n - 1]
    nan = np.isnan(last)
    return np.where(nan, last, mid) if nan.any() else mid


def _mad_sigma(finest: np.ndarray) -> np.ndarray:
    """median(|d - median(d)|) / 0.6745 down each column of `finest`, the
    finest-level details of one signal (n,) or of a batch (n, B)."""
    if len(finest) < 3:
        raise ShrinkageError(
            f"insufficient coefficients: finest level has {len(finest)}, need 3"
        )
    return _median(np.abs(finest - _median(finest))) / MAD_SCALE


def _levels(levels, n: int, what: str) -> np.ndarray:
    """`levels` as an int array of one level >= 0 for each of n `what`."""
    levels = np.asarray(levels)
    if levels.shape != (n,):
        raise ShrinkageError(f"{levels.size} levels for {n} {what}: need one each")
    if not (np.issubdtype(levels.dtype, np.integer) and np.all(levels >= 0)):
        raise ShrinkageError(f"levels must be nonnegative integers, got {levels!r}")
    return levels


def estimate_sigma_mad(details: np.ndarray, levels: np.ndarray) -> float:
    """Robust noise scale from the finest artificial level.

    `details` (n,) and the int array `levels` (each >= 0) are aligned (canonical
    detail order); sigma = median(|d - median(d)|) / 0.6745 over level-0 details.
    """
    details = _checked(details, None, "detail", error=ShrinkageError)
    if details.ndim > 1:
        raise ShrinkageError(f"detail array {details.shape}: need (n,)")
    sigma = float(_mad_sigma(details[_levels(levels, len(details), "details") == 0]))
    if not sigma > 0:
        raise ShrinkageError(f"degenerate finest level: MAD noise estimate {sigma} is not positive")
    return sigma


def _shrunk_rows(levels: np.ndarray, keep_coarsest: int) -> int:
    """How many rows with the sorted int `levels` are shrunk: all but those of
    the `keep_coarsest` coarsest of the max + 1 levels, which must be more."""
    n_levels = int(levels[-1]) + 1 if len(levels) else 0
    if not keep_coarsest < max(n_levels, 1):
        raise ShrinkageError(f"keep_coarsest={keep_coarsest} must be below {n_levels} levels")
    return int(np.searchsorted(levels, n_levels - keep_coarsest))


def _shrink(d: np.ndarray, sigma: float | np.ndarray,
            rule: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shrink the details d, (n, B), by `rule`: divided by the noise scale
    `sigma` (one, or one per column), shrunk with a mixing weight fitted per
    column, and multiplied back.  Returns the shrunk details, the weights and
    the columns whose fit failed and fell back to 0.5, each with one warning."""
    z = d / sigma
    w = weight_from_data(z)
    fallback = np.isnan(w)
    for _ in range(np.count_nonzero(fallback)):
        warnings.warn("mixing-weight fit failed (score not finite); falling back to 0.5")
    w[fallback] = 0.5
    if rule == "median":
        z = post_med_cauchy(z, w)
    else:
        z = np.where(np.abs(z) > _hard_thresholds(w), z, 0.0)
    return z * sigma, w, fallback


def ebayes_threshold(
    details: np.ndarray,
    sigma: float | np.ndarray,
    levels: np.ndarray,
    config: ShrinkageConfig = ShrinkageConfig(),
) -> Tuple[np.ndarray, float | np.ndarray]:
    """Shrink details level-aware; returns (shrunk details, fitted weights).

    `details` is one signal's column (n,) or a batch (n, B), rows aligned
    to the int array `levels` (each >= 0); `sigma` is a finite positive
    noise scale, or one per column.  The `keep_coarsest` coarsest levels
    pass through untouched; the rest are shrunk in the shrink core's step:
    the rows sorted stably by level, standardized by sigma, shrunk with a
    mixing weight fitted per column (0.5, with a warning, where the fit
    fails), and rescaled.  The weight is a float for one signal, else (B,).
    """
    details = _checked(details, None, "detail", error=ShrinkageError)
    block = details.reshape(len(details), -1)
    rows, levels = _by_level(_levels(levels, len(block), "detail rows"))
    if np.ndim(sigma) and np.shape(sigma) != (block.shape[1],):
        raise ShrinkageError(
            f"sigma of shape {np.shape(sigma)} for {block.shape[1]} columns: need one each"
        )
    if np.asarray(sigma).dtype == bool or not np.all(np.isfinite(sigma) & (np.asarray(sigma) > 0)):
        raise ShrinkageError(f"noise scale must be finite and positive, got {sigma}")
    n = _shrunk_rows(levels, config.keep_coarsest)
    out = block.copy()
    w = np.zeros(block.shape[1])
    if n:
        out[rows[:n]], w, _ = _shrink(block[rows[:n]], sigma, config.rule)
    if details.ndim > 1:
        return out, w
    return out.reshape(details.shape), float(w[0])


def detail_gains(record: LiftingRecord) -> np.ndarray:
    """Per-detail noise gain in removal order: the 2-norm of that
    forward-matrix row, kept on the record after its first replay of the
    identity, which a denoiser's `forward` may carry; every call returns a
    fresh copy."""
    return record._gains.copy()


def _denoise_plans(
    plans: Sequence[CoefficientSet], shrink_config: ShrinkageConfig
) -> List[DenoiseResult]:
    """Denoise the coefficients of each plan, the (m,) or (m, B) `vector` of
    a `CoefficientSet` on its `record`, in one shrink step for all columns;
    returns one `DenoiseResult` per plan, shaped like its vector.

    `plans` are sets of one line graph.  Their details, standardized by
    their gains (kept by a denoiser's `forward`, or replayed here for a
    record that keeps none), are sorted by level, so each level's rows and
    the rows shrunk (all but the `keep_coarsest` coarsest levels) are
    prefixes cut at the level bounds.  Each column's results depend on that
    column alone; one whose MAD is zero (noiseless input) passes through
    with sigma = nu = 0.
    """
    blocks = []
    for coeffs in plans:
        record, shape = coeffs.record, coeffs.vector.shape
        by_level = record._level_rows  # the detail rows sorted stably by level
        if by_level is None:
            raise ShrinkageError("too few detail coefficients to denoise")
        rows, sorted_levels = by_level
        # the sorted levels depend only on m and the level count, so every
        # plan of one line graph has the same prefixes, and the batch always
        # sums in this order
        if blocks and not np.array_equal(sorted_levels, levels):
            raise ShrinkageError("plans of one batch must share their level counts")
        levels = sorted_levels
        C = np.array(coeffs.vector, dtype=float).reshape(len(record.ids), -1)
        gains = detail_gains(record)[rows, None]
        blocks.append((record, shape, rows, C, gains))
    n = _shrunk_rows(levels, shrink_config.keep_coarsest)  # the coarsest levels sort last
    Z = np.hstack([C[rows] / gains for _, _, rows, C, gains in blocks])
    # the coarsest level the MAD pools: on very small graphs the finest level
    # alone is too thin, so it pools upward until 3 coefficients are in hand
    pool = int(levels[2])
    sigma = _mad_sigma(Z[: np.searchsorted(levels, pool, "right")])
    nu = np.zeros_like(sigma)
    fallback = np.zeros(sigma.shape, dtype=bool)
    live = sigma > 0
    if live.any():
        Z[:n, live], nu[live], fallback[live] = _shrink(Z[:n, live], sigma[live], shrink_config.rule)
    out, j = [], 0
    for record, shape, rows, C, gains in blocks:
        cols = slice(j, j + C.shape[1])
        # only the live columns' shrunk rows are written back; the rest stay bitwise
        done = np.flatnonzero(live[cols])
        C[rows[:n, None], done] = Z[:n, j + done] * gains[:n]
        j = cols.stop
        C = C.reshape(shape)
        details = C[: len(rows)]
        sigma_hat, nu_hat, failed = sigma[cols], nu[cols], fallback[cols]
        if C.ndim == 1:  # one signal's diagnostics are floats
            sigma_hat, nu_hat = float(sigma_hat[0]), float(nu_hat[0])
        out.append(DenoiseResult(
            ids=record.ids,
            estimate_vector=inverse(C, record),
            sigma_hat=sigma_hat,
            nu_hat=nu_hat,
            detail_ids=record.removal_order,
            shrunk_vector=details,
            # a count over a size is np.mean's bits, without its Python layer
            zero_frac=float(np.count_nonzero(details == 0.0) / details.size),
            fallback_frac=float(np.count_nonzero(failed) / failed.size),
            mad_pool_level=pool,
        ))
    return out


def denoise(
    values: Mapping[Id, float] | np.ndarray,
    lg: LineGraph,
    config: LiftingConfig,
    shrink_config: ShrinkageConfig = ShrinkageConfig(),
    trajectory: Optional[Sequence[Id]] = None,
) -> DenoiseResult:
    """Transform the values, one signal or a batch as `forward` takes them,
    shrink the coefficients in the shrink core (`_denoise_plans`) and invert
    them.  On a fresh plan the values ride beside the identity whose replay
    gives the detail gains, one forward kernel call for both (`forward`'s
    `_gains`).  Each column of a batch is bitwise `denoise` on that column
    alone."""
    coeffs, _ = forward(values, lg, config, trajectory=trajectory, _gains=True)
    return _denoise_plans([coeffs], shrink_config)[0]


def random_trajectories(
    lg: LineGraph, config: LiftingConfig, n: int, seed: int | Sequence[int]
) -> List[Tuple[Id, ...]]:
    """n removal orders: uniform permutations truncated to length m - tau,
    order p drawn from the stream `_stream(seed, p)`."""
    if not (_is_count(n) and n >= 0):
        raise ShrinkageError(f"trajectory count must be a nonnegative integer, got {n!r}")
    _stream(seed, error=ShrinkageError)  # a bad seed fails with no orders too
    perms = [_stream(seed, p, error=ShrinkageError).permutation(lg.m) for p in range(n)]
    return [tuple(lg.ids[i] for i in perm[: lg.m - config.tau]) for perm in perms]


def nlt_denoise(
    values: Mapping[Id, float] | np.ndarray,
    lg: LineGraph,
    config: LiftingConfig,
    shrink_config: ShrinkageConfig = ShrinkageConfig(),
    n_trajectories: int = 30,
    seed: int | Sequence[int] = 0,
) -> Tuple[DenoiseResult, List[DenoiseResult]]:
    """Average the denoiser over random removal orders of one signal or a
    batch, as `forward` takes them.

    Trajectory p is drawn from `_stream(seed, p)` (`random_trajectories`),
    once for all columns, so results do not depend on evaluation order.
    `seed` is an int or a nonempty sequence of ints.  Each trajectory
    transforms the values with `forward`, in one kernel call with the
    identity that gives its detail gains; the shrink core then runs once on
    all the trajectories' coefficients (`_denoise_plans`), so each
    per-trajectory result is bitwise `denoise(..., trajectory=...)`, and each
    column of a batch bitwise `nlt_denoise` on that column alone.  Returns
    the averaged result (its sigma, nu, zero and fallback fractions are the
    trajectories' means) plus the per-trajectory results.
    """
    if not (_is_count(n_trajectories) and n_trajectories >= 1):
        raise ShrinkageError(f"n_trajectories must be a positive integer, got {n_trajectories!r}")
    x = _checked(values, lg.ids, "value")
    plans = [  # `random_trajectories` checks the seed
        forward(x, lg, config, trajectory=traj, _gains=True)[0]
        for traj in random_trajectories(lg, config, n_trajectories, seed)
    ]
    singles = _denoise_plans(plans, shrink_config)
    # each column's mean runs along one contiguous row, as one signal's list
    # does: a mean down the strided axis of a (T, B) stack adds in another order
    sigma_hat, nu_hat = (
        np.mean(np.ascontiguousarray(np.transpose([getattr(r, f) for r in singles])), axis=-1)
        for f in ("sigma_hat", "nu_hat")
    )
    if x.ndim == 1:
        sigma_hat, nu_hat = float(sigma_hat), float(nu_hat)
    combined = DenoiseResult(
        ids=lg.ids,
        estimate_vector=np.sum([r.estimate_vector for r in singles], axis=0) / len(singles),
        sigma_hat=sigma_hat,
        nu_hat=nu_hat,
        detail_ids=(),
        shrunk_vector=np.empty(0),
        zero_frac=float(np.mean([r.zero_frac for r in singles])),
        fallback_frac=float(np.mean([r.fallback_frac for r in singles])),
        # the trajectories of one line graph share their levels
        mad_pool_level=singles[0].mad_pool_level,
    )
    return combined, singles
