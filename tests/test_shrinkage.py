import functools
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfcx, ndtr
from scipy.stats import norm

import lglift
from lglift import lifting, shrinkage
from lglift.analysis import sparsity_curve_single
from lglift.lifting import LiftingConfig, forward, inverse
from lglift.shrinkage import (
    POST_MED_BIG,
    POST_MED_TOL,
    ShrinkageConfig,
    ShrinkageError,
    _denoise_plans,
    _mad_sigma,
    _shrink,
    beta_cauchy,
    denoise,
    detail_gains,
    ebayes_threshold,
    estimate_sigma_mad,
    nlt_denoise,
    post_med_cauchy,
    random_trajectories,
    thresh_from_weight,
    weight_from_data,
    weight_from_thresh,
)
from lglift.simulation import (
    embed_pointwise,
    flow_experiment,
    generate_flow_fixture,
    get_field,
    sample_network,
)
from lglift.graph import build_line_graph


# ---------------------------------------------------------------------------
# independent numerical oracle: prior density + quadrature posterior median

def slab_prior_density(u: float) -> float:
    """Heavy-tailed slab density whose marginal is known in closed form."""
    from scipy.special import erfcx

    u = abs(u)
    # sf(u)/pdf(u) written via erfcx to stay finite far in the tail
    return (1.0 / math.sqrt(2 * math.pi)) * (
        1.0 - u * math.sqrt(math.pi / 2.0) * erfcx(u / math.sqrt(2.0))
    )


def slab_marginal(x: float) -> float:
    if abs(x) < 1e-8:
        return 0.5 / math.sqrt(2 * math.pi)
    return (1.0 / math.sqrt(2 * math.pi)) * (1.0 - math.exp(-x * x / 2.0)) / (x * x)


def oracle_posterior_median(x: float, w: float) -> float:
    """Posterior median by direct quadrature over the spike-and-slab prior."""
    sign, x = math.copysign(1.0, x), abs(x)
    g = slab_marginal(x)
    denom = (1 - w) * norm.pdf(x) + w * g
    p_zero = (1 - w) * norm.pdf(x) / denom

    def slab_tail(t):
        # the integrand is Gaussian-small beyond x + 50, so a finite upper
        # bound with a break point at x is exact to double precision
        hi = x + 50.0
        return quad(
            lambda u: norm.pdf(x - u) * slab_prior_density(u),
            t,
            hi,
            limit=400,
            epsabs=1e-13,
            points=[x] if t < x < hi else None,
        )[0]

    below_zero = w * (g - slab_tail(0.0)) / denom
    if below_zero <= 0.5 <= below_zero + p_zero:
        return 0.0
    if below_zero > 0.5:
        med = brentq(
            lambda t: w * (g - slab_tail(t)) / denom - 0.5, -40, 0.0, xtol=1e-12
        )
    else:
        # for t >= 0 the cdf is 1 - w * tail(t) / denom
        med = brentq(lambda t: w * slab_tail(t) / denom - 0.5, 0.0, x + 40, xtol=1e-12)
    return sign * med


class TestOracleAgreement:
    def test_prior_matches_closed_form_marginal(self):
        # convolving the slab density with the normal likelihood must give
        # the closed-form marginal used by the analytic implementation
        for x in (0.3, 1.0, 2.5, 4.0):
            num = quad(lambda u: norm.pdf(x - u) * slab_prior_density(u), -40, 40, limit=300)[0]
            assert num == pytest.approx(slab_marginal(x), abs=1e-9)

    @pytest.mark.parametrize("w", [0.05, 0.3, 0.7, 0.95])
    def test_posterior_median_matches_quadrature(self, w):
        xs = np.array([0.2, 0.8, 1.5, 2.2, 3.0, 4.5, 8.0, -1.1, -3.3, 15.0])
        mine = post_med_cauchy(xs, w)
        for x, got in zip(xs, mine):
            assert got == pytest.approx(oracle_posterior_median(float(x), w), abs=1e-6)

    def test_beta_at_zero(self):
        assert beta_cauchy(np.array([0.0]))[0] == pytest.approx(-0.5)

    def test_beta_is_density_ratio_minus_one(self):
        # beta(x) = slab_marginal/normal - 1
        for x in (0.5, 1.5, 3.0):
            expect = slab_marginal(x) / norm.pdf(x) - 1.0
            assert beta_cauchy(np.array([x]))[0] == pytest.approx(expect, rel=1e-10)


# ---------------------------------------------------------------------------
# reference: the scipy.stats forms that the closed-form kernels replaced

def ref_post_med_cauchy(x, w):
    """The former solver: 60 bisection steps of the objective through
    scipy.stats."""
    x = np.asarray(x, dtype=float)
    mag = np.abs(x)
    big = mag > 20.0
    work = np.where(big, 0.0, mag)
    lo = np.zeros_like(work)
    hi = work.copy()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        y = work - mid
        fy = norm.pdf(y)
        yr = norm.cdf(y) - work * fy + (work * mid - 1.0) * fy * norm.cdf(-mid) / norm.pdf(mid)
        yl = 1.0 + np.exp(-work * work / 2.0) * (work * work * (1.0 / w - 1.0) - 1.0)
        below = yl / 2.0 - yr <= 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    med = 0.5 * (lo + hi)
    med[big] = mag[big] - 2.0 / mag[big]
    med[med < 1e-7] = 0.0
    med = np.sign(x) * med
    clip = np.abs(med) > np.abs(x)
    med[clip] = x[clip]
    return med


def ref_batch_post_med_cauchy(x, w):
    """The whole-batch bisection that the zero screen replaced: every
    bracket is halved until the widest one in the call is narrower than
    `POST_MED_TOL`."""
    x = np.asarray(x, dtype=float)
    mag = np.abs(x)
    big = mag > 20.0
    work = np.where(big, 0.0, mag)
    half_yl = (1.0 + np.exp(-work * work / 2.0) * (work * work * (1.0 / w - 1.0) - 1.0)) / 2.0
    lo, hi = np.zeros_like(work), work
    while np.any(hi - lo > POST_MED_TOL):
        mid = 0.5 * (lo + hi)
        y = work - mid
        fy = np.exp(-y**2 / 2.0) / math.sqrt(2 * math.pi)
        fmid = np.exp(-mid**2 / 2.0) / math.sqrt(2 * math.pi)
        yr = ndtr(y) - work * fy + (work * mid - 1.0) * fy * ndtr(-mid) / fmid
        below = half_yl - yr <= 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    med = 0.5 * (lo + hi)
    med[big] = mag[big] - 2.0 / mag[big]
    med[med < 1e-7] = 0.0
    med = np.sign(x) * med
    clip = np.abs(med) > np.abs(x)
    med[clip] = x[clip]
    return med


def mp_post_med_cauchy(x: float, w: float) -> float:
    """The posterior median of one finite x to 50 digits: the objective in
    its closed form (50 digits outlast its cancellation), the screen at 0, a
    bracketed root in [0, |x|], the 1e-7 clip and the sign of x."""
    med = _mp_median(abs(x), w)
    return math.copysign(med, x) if med else 0.0


@functools.lru_cache(maxsize=None)
def _mp_median(x: float, w: float) -> float:
    """`mp_post_med_cauchy` of x >= 0, cached: the grids below repeat each
    magnitude with both signs."""
    if abs(x) < 1e-7:
        # the median lies in [0, |x|], which the clip makes 0; findroot
        # can divide by zero on such tiny brackets
        return 0.0
    with mpmath.workdps(50):
        a, w = mpmath.mpf(abs(x)), mpmath.mpf(w)
        half_yl = (1 + mpmath.exp(-a * a / 2) * (a * a * (1 / w - 1) - 1)) / 2

        def objective(mu):
            y, fy = a - mu, mpmath.npdf(a - mu)
            return half_yl - (
                mpmath.ncdf(y) - a * fy + (a * mu - 1) * fy * mpmath.ncdf(-mu) / mpmath.npdf(mu)
            )

        if objective(0) >= 0:
            return 0.0
        med = float(mpmath.findroot(objective, (0, a), solver="anderson"))
    return 0.0 if med < 1e-7 else med


def with_band_from_mpmath(want, x, w):
    """`want` with 50-digit medians in two bands of the frozen solvers:
    the cancellation band, w >= 0.99 and |x| < 0.1, where their bisections
    follow the rounding noise of their objective, and finite |x| > 20, where
    they take the asymptote |x| - 2/|x|, up to 8e-5 off."""
    w = np.broadcast_to(w, x.shape)
    band = ((w >= 0.99) & (np.abs(x) < 0.1)) | ((np.abs(x) > 20.0) & np.isfinite(x))
    want[band] = [mp_post_med_cauchy(v, wv) for v, wv in zip(x[band], w[band])]
    return want


def ref_weight_from_data(x):
    """The former mixing-weight fit: scalar `brentq` on one column's score,
    with the same exact endpoint checks."""
    x = np.asarray(x, dtype=float)
    wlo = weight_from_thresh(math.sqrt(2.0 * math.log(x.size)))
    beta = beta_cauchy(x)

    def score(w):
        return float(np.sum(beta / (1.0 + w * beta)))

    if score(1.0) >= 0:
        return 1.0
    if score(wlo) <= 0:
        return wlo
    return float(brentq(score, wlo, 1.0, xtol=1e-12))


def ref_beta_cauchy(x: float) -> float:
    with np.errstate(over="ignore", divide="ignore"):
        return min((norm.pdf(0) / norm.pdf(x) - 1.0) / x**2 - 1.0, 1e20)


def ref_weight_from_thresh(thr: float) -> float:
    fx = norm.pdf(thr)
    Fx = norm.cdf(thr)
    denom = math.sqrt(math.pi / 2.0) * fx * thr * thr
    if denom == 0:
        return 1.0
    with np.errstate(over="ignore"):
        inv = 1.0 + (Fx - thr * fx - 0.5) / denom
    return 1.0 / inv if math.isfinite(inv) else 1.0


def ref_thresh_objective(z: float, w: float) -> float:
    fz = norm.pdf(z)
    return norm.cdf(z) - z * fz - 0.5 - z * z * math.sqrt(2 * math.pi) * fz * (1.0 / w - 1.0) / 2.0


def ref_thresh_slope(z: float, w: float) -> float:
    """d/dz of `ref_thresh_objective`."""
    return z * z * norm.pdf(z) - (1.0 / w - 1.0) / 2.0 * z * (2.0 - z * z) * math.exp(-z * z / 2.0)


def ref_thresh_from_weight(w: float) -> float:
    if ref_thresh_objective(1e-4, w) >= 0:
        return 0.0
    if ref_thresh_objective(20.0, w) <= 0:
        return 20.0
    return float(brentq(ref_thresh_objective, 1e-4, 20.0, args=(w,), xtol=1e-12))


_PI = Decimal("3.141592653589793238462643383279502884197")


def series_moment2(z: float) -> float:
    """cdf(z) - 1/2 - z pdf(z) for z >= 0 from the series of the lower
    incomplete gamma function, gamma(3/2, x) = x^(3/2) e^-x sum_n x^n /
    ((3/2)(5/2)...(3/2 + n)) at x = z^2/2, in 40-digit decimals.  Every
    term is positive, so nothing cancels.  The quantity is gamma(3/2, x)
    / (2 Gamma(3/2)) = gamma(3/2, x) / sqrt(pi)."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(z) ** 2 / 2
        term = total = 1 / Decimal("1.5")
        n = 0
        while term > total * Decimal("1e-38"):
            n += 1
            term = term * x / (Decimal("1.5") + n)
            total += term
        return float(x * x.sqrt() * (-x).exp() * total / _PI.sqrt())


def series_thresh_from_weight(w: float) -> float:
    def objective(z):
        return series_moment2(z) - z * z * (1.0 / w - 1.0) / 2.0 * math.exp(-z * z / 2.0)

    return float(brentq(objective, 1e-4, 20.0, xtol=1e-15, rtol=1e-15))


class TestHardThresholdOracle:
    """The hard-rule kernels against a cancellation-free series oracle.
    cdf(z) - 1/2 - z pdf(z) cancels to about z^3 / 7.5 as z -> 0, which
    is where the threshold goes as w -> 1."""

    @pytest.mark.parametrize("z", np.geomspace(1e-3, 5.0, 40))
    def test_weight_from_thresh(self, z):
        denom = math.sqrt(math.pi / 2.0) * norm.pdf(z) * z * z
        want = 1.0 / (1.0 + series_moment2(z) / denom)
        assert weight_from_thresh(z) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("w", [0.01, 0.1, 0.5, 0.9, 0.99, 0.99266, 0.999, 0.9999])
    def test_thresh_from_weight(self, w):
        assert thresh_from_weight(w) == pytest.approx(series_thresh_from_weight(w), rel=1e-10)


class TestBatchedThreshold:
    """The hard threshold solved for a batch of weights by `_newton_root`."""

    @pytest.mark.parametrize("w", [1e-4, 0.01, 0.3, 0.9, 0.999])
    def test_slope_matches_reference(self, w):
        z = np.array([1e-4, 0.01, 0.5, 1.0, math.sqrt(2.0), 2.5, 5.0, 12.0])
        _, slope = shrinkage._thresh_objective(z, np.full(z.size, w))
        want = [ref_thresh_slope(v, w) for v in z]
        np.testing.assert_allclose(slope, want, rtol=1e-12, atol=1e-300)

    def test_matches_series_oracle(self):
        ws = np.geomspace(1e-4, 0.9999, 60)
        want = np.array([series_thresh_from_weight(w) for w in ws])
        got = shrinkage._hard_thresholds(ws)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert _bits(got) == _bits([thresh_from_weight(w) for w in ws])

    def test_screens(self):
        # w = 1 gives 0 at the lower screen, a tiny weight 20 at the upper one
        assert thresh_from_weight(1e-100) == 20.0
        assert _bits(shrinkage._hard_thresholds(np.array([1e-100, 0.5, 1.0]))) == _bits(
            [20.0, thresh_from_weight(0.5), 0.0]
        )

    def test_column_is_one_column_threshold(self):
        rng = np.random.default_rng(27)
        b = 8
        X = rng.normal(size=(120, b))
        X[:40] += rng.uniform(0.0, 6.0, b) * (rng.uniform(size=(40, b)) < 0.5)
        lev = np.repeat(np.arange(6), 20)
        config = ShrinkageConfig(rule="hard")
        out, w = ebayes_threshold(X, 1.0, lev, config)
        assert len(set(w.tolist())) == b and np.all((0 < w) & (w < 1))
        shrunk = out[lev < 4]
        assert np.any(shrunk == 0.0) and np.any(shrunk != 0.0)
        for j in range(b):
            alone, wj = ebayes_threshold(X[:, j], 1.0, lev, config)
            assert _bits(out[:, j]) == _bits(alone) and _bits([w[j]]) == _bits([wj])


# standardized coefficients: the clip to zero at 1e-7 (and a magnitude far
# below it), the frozen solvers' |x| > 20 asymptote, and the asymptote past
# POST_MED_BIG
_EDGE_X = [
    0.0, 1e-7, -1e-7, float.fromhex("0x1.4efb3d95f3f5bp-63"), 20.0, -20.0,
    np.nextafter(20.0, 21.0), 25.0, -30.0, POST_MED_BIG, -np.nextafter(POST_MED_BIG, 3e3),
]


@st.composite
def coefficient_batches(draw):
    """An (n, B) batch of coefficients in [-30, 30] and one weight per column."""
    n, b = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    xs = draw(st.lists(st.floats(-30, 30) | st.sampled_from(_EDGE_X), min_size=n * b, max_size=n * b))
    w = draw(st.lists(st.floats(0.01, 1.0), min_size=b, max_size=b))
    return np.array(xs).reshape(n, b), np.array(w)


class TestClosedFormKernels:
    """The scipy.stats-free kernels against the forms they replaced."""

    @given(coefficient_batches())
    @settings(max_examples=150, deadline=None)
    def test_post_med_matches_scipy_stats_bisection(self, batch):
        x, w = batch
        got = post_med_cauchy(x, w)
        want = with_band_from_mpmath(ref_post_med_cauchy(x, w), x, w)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(x)))

    @given(st.floats(0.05, 60) | st.floats(-60, -0.05) | st.sampled_from([38.0, -38.0, 38.6, 40.0, 1e3]))
    @settings(max_examples=200, deadline=None)
    def test_beta_matches_density_ratio_form(self, x):
        # beta crosses zero at |x| ~ 1.585, where only an absolute bound
        # (a few ulps of the O(1) terms) means anything
        got = beta_cauchy(np.array([x]))[0]
        assert got == pytest.approx(ref_beta_cauchy(x), rel=1e-12, abs=2e-15)
        if abs(x) >= 38:
            assert got == ref_beta_cauchy(x) == 1e20

    def test_beta_caps_every_finite_coefficient(self):
        # past the overflow of exp(x^2/2), and of x^2 itself from ~1.3e154
        huge = np.array([38.0, 1e154, 2e154, 1e155, 1.7e308])
        x = np.random.default_rng(4).normal(size=50)
        x[7] = 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = beta_cauchy(np.concatenate([huge, -huge, [np.nan, np.inf, -np.inf]]))
            w = weight_from_data(x)
        assert np.all(beta[:10] == 1e20) and np.all(np.isnan(beta[10:]))
        assert 0.0 < w <= 1.0

    @given(st.floats(-0.05, 0.05).filter(lambda x: x != 0))
    @settings(max_examples=100, deadline=None)
    def test_beta_accurate_near_zero(self, x):
        # (exp(u) - 1) / (2u) - 1 with u = x^2 / 2, as its Taylor series;
        # the density ratio form cancels to about 1e-16 / x^2 here
        series = -0.5 + x**2 / 8 + x**4 / 48 + x**6 / 384
        assert beta_cauchy(np.array([x]))[0] == pytest.approx(series, rel=1e-13)

    @given(st.just(0.0) | st.floats(1.0, 60.0))
    @settings(max_examples=200, deadline=None)
    def test_weight_from_thresh_matches_scipy_stats(self, thr):
        # its callers pass sqrt(2 log m): 0, or at least 1.18.  Below 1,
        # cdf(t) - 1/2 - t pdf(t) cancels to about t^3 / 8 in both forms
        assert weight_from_thresh(thr) == pytest.approx(ref_weight_from_thresh(thr), rel=1e-12)

    @given(st.floats(1e-6, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_thresh_from_weight_matches_scipy_stats(self, w):
        # a Newton root (step 1e-13) and a brentq root (xtol 1e-12) of
        # objectives that differ by rounding, under 1e-15, which moves the
        # root by 1e-15 / |slope|;
        # that grows as w -> 1, where the threshold and the slope go to 0
        got, want = thresh_from_weight(w), ref_thresh_from_weight(w)
        if want in (0.0, 20.0):
            assert got == want
        else:
            assert abs(got - want) <= 2e-12 + 1e-15 / abs(ref_thresh_slope(want, w))

    def test_non_finite_input_terminates(self):
        # a NaN bracket never narrows; the solver must still stop
        out = post_med_cauchy(np.array([np.nan, np.inf, -np.inf, 0.0, 1e-300]), 0.3)
        np.testing.assert_array_equal(out, [np.nan, np.inf, -np.inf, 0.0, 0.0])
        # next to a NaN, a finite coefficient is still solved to the end
        mixed = post_med_cauchy(np.array([np.nan, 3.0]), 0.3)
        assert np.isnan(mixed[0]) and mixed[1] == post_med_cauchy(np.array([3.0]), 0.3)[0]
        # a NaN and an inf among finite coefficients of both Newton paths
        # (|x| below and above POST_MED_SMALL), in a batch with one w per column
        x = np.array([[np.nan, 0.05], [3.0, np.inf], [-0.04, -12.0], [0.5, np.nan]])
        w = np.array([1.0, 0.9])
        out = post_med_cauchy(x, w)
        assert np.isnan(out[0, 0]) and np.isnan(out[3, 1]) and out[1, 1] == np.inf
        for i, j in [(0, 1), (1, 0), (2, 0), (2, 1), (3, 0)]:
            assert _bits([out[i, j]]) == _bits(post_med_cauchy(x[i : i + 1, j], w[j]))
        assert np.count_nonzero(out[np.isfinite(x)]) == 4

    def test_import_does_not_load_scipy_stats(self):
        # nor scipy.optimize, nor mpmath, which only the tests' oracles use,
        # nor scipy.spatial, which the first Euclidean MST loads
        code = (
            "import sys, lglift; loaded = {'.'.join(m.split('.')[:2]) for m in sys.modules};"
            " print('scipy.stats' in loaded, 'scipy.optimize' in loaded, 'mpmath' in loaded,"
            " 'scipy.spatial' in loaded)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(lglift.__file__).resolve().parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert run.stdout.strip() == "False False False False"


def _bits(a) -> bytes:
    """The float64 bit pattern of `a` (so -0.0 differs from 0.0)."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestZeroScreen:
    """The zero screen and per-bracket stop against the whole-batch
    bisection they replaced, and each median's independence of its batch."""

    # |x| on a 0.01 grid, the frozen and the current asymptote edges, and
    # non-finite input.  Below
    # |x| ~ 1e-5 the closed-form objective at mu = 0 cancels to rounding
    # noise when w is within about 1e-2 of 1, so the grid starts at 0.01; in
    # the band the frozen bisection still follows that noise by up to 1e-12,
    # so there the medians are compared with 50-digit ones
    _mags = np.concatenate(
        [
            np.linspace(0.0, 25.0, 2501),
            [20.0, np.nextafter(20.0, 21.0), POST_MED_BIG, np.nextafter(POST_MED_BIG, 3e3)],
            [np.nan, np.inf],
        ]
    )

    @pytest.mark.parametrize("w", [0.01, 0.1, 0.3, 0.7, 1.0])
    def test_matches_whole_batch_bisection(self, w):
        x = np.concatenate([self._mags, -self._mags])
        got, want = post_med_cauchy(x, w), with_band_from_mpmath(ref_batch_post_med_cauchy(x, w), x, w)
        assert np.array_equal(got == 0, want == 0)
        finite = np.isfinite(x)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.maximum(1.0, np.abs(x[finite])))
        assert np.array_equal(got[~finite], want[~finite], equal_nan=True)

    def test_median_independent_of_batch_scalar_w(self):
        # one wide bracket (|x| near 20) in the call no longer keeps the
        # narrow ones halving
        x = np.append(np.random.default_rng(11).normal(0.0, 2.0, 300), 19.5)
        got = post_med_cauchy(x, 0.1)
        singles = np.array([post_med_cauchy(x[i : i + 1], 0.1)[0] for i in range(len(x))])
        assert np.count_nonzero(got) > 20
        assert _bits(got) == _bits(singles)

    def test_median_independent_of_batch_per_column_w(self):
        rng = np.random.default_rng(12)
        x = np.vstack([rng.normal(0.0, 2.0, (100, 3)), [19.5, 3.0, 7.0]])
        w = np.array([0.05, 0.3, 0.9])
        got = post_med_cauchy(x, w)
        rows = np.array([post_med_cauchy(x[i : i + 1], w)[0] for i in range(len(x))])
        assert _bits(got) == _bits(rows)
        for j in range(x.shape[1]):
            col = [post_med_cauchy(x[i : i + 1, j], w[j])[0] for i in range(len(x))]
            assert _bits(got[:, j]) == _bits(col)


class TestNewtonMedian:
    """The safeguarded Newton iteration: 50-digit medians in the band where
    the closed-form objective cancels, and how many evaluations a median
    takes."""

    @pytest.mark.parametrize("w", [0.99, 0.999, 1.0])
    def test_band_matches_mpmath(self, w):
        mags = np.geomspace(1e-7, 0.1, 41)
        x = np.concatenate([mags, -mags])
        got = post_med_cauchy(x, w)
        want = np.array([mp_post_med_cauchy(v, w) for v in x])
        zero = want == 0
        # zeros from the screen (w < 1) or the 1e-7 clip (w = 1), and medians
        assert 0 < np.count_nonzero(zero) < x.size
        assert np.all(got[zero] == 0.0)
        err = np.abs(got[~zero] - want[~zero])
        assert np.all(err <= 1e-12) and np.all(err <= 1e-9 * np.abs(want[~zero]))

    @pytest.mark.parametrize("w", [0.01, 0.5, 1.0])
    def test_large_x_matches_mpmath(self, w):
        # Newton steps up to POST_MED_BIG and the asymptote |x| - 2/|x|
        # past it, both within POST_MED_TOL |x|; the asymptote alone was
        # 8e-5 off at |x| = 20
        mags = np.concatenate([
            np.geomspace(15.0, POST_MED_BIG, 60),
            [20.0, np.nextafter(20.0, 21.0), np.nextafter(POST_MED_BIG, 3e3), 3e3, 1e4, 1e6],
        ])
        x = np.concatenate([mags, -mags])
        got = post_med_cauchy(x, w)
        want = np.array([mp_post_med_cauchy(v, w) for v in x])
        assert np.all(np.abs(got - want) <= POST_MED_TOL * np.abs(x))

    def test_small_path_independent_of_batch(self):
        # |x| below POST_MED_SMALL at w near 1, where no coefficient is screened
        rng = np.random.default_rng(13)
        x = np.column_stack([rng.normal(0.0, 0.1, 200), rng.normal(0.0, 0.5, 200)])
        w = np.array([1.0, 0.999])
        got = post_med_cauchy(x, w)
        assert np.count_nonzero(got[np.abs(x) < shrinkage.POST_MED_SMALL]) > 150
        for j in range(2):
            col = [post_med_cauchy(x[i : i + 1, j], w[j])[0] for i in range(len(x))]
            assert _bits(got[:, j]) == _bits(col)

    def test_evaluations_per_median(self, monkeypatch):
        # every objective evaluation calls erfcx once, and so does the
        # screen at 0; the bisection took up to 48 halvings
        calls = []
        monkeypatch.setattr(shrinkage, "erfcx", lambda z: calls.append(1) or erfcx(z))
        worst = {}
        for w in (0.01, 0.3, 0.9, 0.999, 1.0):
            for x in np.geomspace(1e-6, 20.0, 1000):
                calls.clear()
                post_med_cauchy(np.array([x]), w)
                worst[w] = max(worst.get(w, 0), len(calls) - 1)
        assert max(worst.values()) <= 7, worst


class TestWeightFit:
    def test_pure_noise_hits_lower_bound(self, rng):
        x = rng.normal(size=500)
        w = weight_from_data(x)
        assert w == pytest.approx(weight_from_thresh(math.sqrt(2 * math.log(500))), rel=1e-6)

    def test_dense_signal_hits_one(self, rng):
        x = rng.normal(loc=6.0, size=200)
        assert weight_from_data(x) == pytest.approx(1.0)

    def test_mixed_signal_interior(self, rng):
        x = np.concatenate([rng.normal(size=180), rng.normal(loc=5.0, size=20)])
        w = weight_from_data(x)
        assert weight_from_thresh(math.sqrt(2 * math.log(200))) < w < 1.0

    def test_weight_is_marginal_mle_stationary_point(self, rng):
        # interior solutions zero the derivative of the log marginal
        x = np.concatenate([rng.normal(size=180), rng.normal(loc=5.0, size=20)])
        w = weight_from_data(x)
        eps = 1e-5

        def loglik(wt):
            return np.sum(np.log((1 - wt) * norm.pdf(x) + wt * np.vectorize(slab_marginal)(x)))

        deriv = (loglik(w + eps) - loglik(w - eps)) / (2 * eps)
        assert abs(deriv) < 1e-3 * len(x)


@st.composite
def weight_samples(draw):
    """One column of standardized details: scaled normal noise, a share of
    it shifted by a common amplitude, and a few edge values (beta's zero
    and its small-|x| branch, and the 1e20 cap)."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, draw(st.floats(0.2, 3.0)), n)
    x[rng.uniform(size=n) < draw(st.floats(0.0, 1.0))] += draw(st.floats(-12.0, 12.0))
    edges = draw(st.lists(st.sampled_from([0.0, 1e-9, 1.585, 37.0, 40.0, -1e3]), max_size=3))
    x[: len(edges)] = edges[:n]
    return x


class TestBatchWeightFit:
    """The Newton fit against the frozen `brentq` fit, and each column of a
    batch fit against the one-column fit."""

    @given(weight_samples())
    @settings(max_examples=300, deadline=None)
    def test_matches_brentq_fit(self, x):
        w, want = weight_from_data(x), ref_weight_from_data(x)
        assert abs(w - want) <= 1e-12
        # the endpoints are exact comparisons of the same sums
        wlo = weight_from_thresh(math.sqrt(2.0 * math.log(len(x))))
        if want in (1.0, wlo):
            assert w == want

    def test_exact_endpoints(self, rng):
        noise = rng.normal(size=500)
        assert weight_from_data(noise) == weight_from_thresh(math.sqrt(2 * math.log(500)))
        assert weight_from_data(rng.normal(loc=6.0, size=200)) == 1.0

    @pytest.mark.parametrize("b", [1, 3, 20])
    def test_column_is_one_column_fit(self, b):
        rng = np.random.default_rng(b)
        X = rng.normal(size=(150, b))
        X[:30] += rng.uniform(0.0, 8.0, b)
        X[:, :3:2] = rng.normal(loc=6.0, size=(150, 1))   # dense: exactly 1
        w = weight_from_data(X)
        assert w.shape == (b,)
        assert _bits(w) == _bits([weight_from_data(X[:, j]) for j in range(b)])
        assert _bits(weight_from_data(np.asfortranarray(X))) == _bits(w)
        if b == 20:
            wlo = weight_from_thresh(math.sqrt(2 * math.log(150)))
            assert w[0] == 1.0 and np.sum((wlo < w) & (w < 1.0)) >= 10

    def test_non_finite_column_falls_back_alone(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        X[:6] += 5.0
        X[25, 1] = np.nan
        w = weight_from_data(X)
        assert np.isnan(w[1])
        assert _bits(w[[0, 2]]) == _bits([weight_from_data(X[:, 0]), weight_from_data(X[:, 2])])
        with pytest.raises(ShrinkageError, match="likelihood score is not finite"):
            weight_from_data(X[:, 1])

        # six levels of ten sorted rows: the NaN sits in a shrunk level above
        # the finest one, so sigma is finite and only the fit fails; the
        # default config shrinks the four finest levels, the first 40 rows
        lev = np.repeat(np.arange(6), 10)
        config = ShrinkageConfig()
        sigma = _mad_sigma(X[:10])
        z = X[:40] / sigma
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shrunk, nu, fallback = _shrink(z, config.rule)
        assert [str(c.message) for c in caught] == [
            "mixing-weight fit failed (score not finite); falling back to 0.5"
        ]
        assert fallback.tolist() == [False, True, False]
        assert nu[1] == 0.5 and np.all(sigma > 0)
        for j in (0, 2):
            alone = _shrink(z[:, j : j + 1], config.rule)
            assert _bits(shrunk[:, j]) == _bits(alone[0])
            assert _bits([nu[j]]) == _bits(alone[1])
            assert not alone[2][0]

        with pytest.warns(UserWarning, match="mixing-weight fit failed") as rec:
            _, w = ebayes_threshold(X, sigma, lev, config)
        assert len(rec) == 1
        assert w[1] == 0.5 and _bits(w[[0, 2]]) == _bits(nu[[0, 2]])


class TestShrinkageProperties:
    @given(st.floats(0.05, 0.99), st.lists(st.floats(-30, 30), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_odd_symmetry(self, w, xs):
        x = np.asarray(xs)
        assert np.allclose(post_med_cauchy(-x, w), -post_med_cauchy(x, w), atol=1e-9)

    @given(st.floats(0.05, 0.99))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_magnitude(self, w):
        x = np.linspace(0.0, 30.0, 400)
        out = post_med_cauchy(x, w)
        assert np.all(np.diff(out) >= -1e-9)

    def test_shrinks_toward_zero(self):
        x = np.array([0.5, 1.0, 3.0, 6.0])
        out = post_med_cauchy(x, 0.5)
        assert np.all(np.abs(out) <= np.abs(x))

    def test_large_input_barely_shrunk(self):
        out = post_med_cauchy(np.array([10.0]), 0.5)[0]
        assert (10.0 - out) / 10.0 < 0.1

    def test_hard_threshold_from_weight(self):
        thr = thresh_from_weight(0.2)
        assert 0 < thr < 20
        # threshold grows as the signal weight shrinks
        assert thresh_from_weight(0.05) > thr

    @pytest.mark.parametrize("w", [0.0, math.nan, -0.5, 1.5, 5e-324, 1e-310])
    def test_threshold_weight_outside_unit_interval_rejected(self, w):
        # 0 divided by zero, NaN reached scipy's root finder, -0.5 and 1.5
        # returned a threshold of 0, and 1/w overflows below the smallest
        # normal float
        with pytest.raises(ShrinkageError, match="mixing weight must be in"):
            thresh_from_weight(w)

    @pytest.mark.parametrize(
        "w", [-1.0, 2.0, 0.0, math.nan, np.array([0.5, 2.0]), 5e-324, 1e-310]
    )
    def test_median_weight_outside_unit_interval_rejected(self, w):
        x = np.array([[0.5, 0.5], [3.0, 3.0]]) if np.ndim(w) else np.array([0.5, 3.0])
        with pytest.raises(ShrinkageError, match="mixing weight must be in"):
            post_med_cauchy(x, w)

    def test_smallest_weight_finite_without_warning(self):
        # 5e-324 gave a NaN median (0 * inf) and an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(thresh_from_weight(shrinkage.W_MIN))
            assert np.all(np.isfinite(post_med_cauchy(np.array([0.5, 3.0, 50.0]), shrinkage.W_MIN)))

    def test_weight_one_accepted(self):
        assert thresh_from_weight(1.0) == 0.0
        assert np.array_equal(post_med_cauchy(np.array([0.5, 3.0]), 1.0),
                              post_med_cauchy(np.array([0.5, 3.0]), np.ones(2)))


class TestMad:
    def test_hand_example(self):
        details = np.array([-1.0, 0.0, 1.0])
        levels = np.array([0, 0, 0])
        assert estimate_sigma_mad(details, levels) == pytest.approx(1.0 / 0.6745)

    def test_constant_finest_rejected(self):
        with pytest.raises(ShrinkageError, match="degenerate"):
            estimate_sigma_mad(np.array([2.0, 2.0, 2.0]), np.array([0, 0, 0]))

    def test_nan_detail_rejected(self):
        # NaN compares false against 0, so a `sigma <= 0` test let it through
        with pytest.raises(ShrinkageError, match="MAD noise estimate nan is not positive"):
            estimate_sigma_mad(np.array([1.0, np.nan, 2.0, 3.0]), np.zeros(4, dtype=int))

    def test_small_finest_rejected(self):
        with pytest.raises(ShrinkageError, match="insufficient"):
            estimate_sigma_mad(np.array([1.0, 2.0]), np.array([0, 0]))

    def test_misaligned_levels_rejected(self):
        with pytest.raises(ShrinkageError, match="5 levels for 10 details"):
            estimate_sigma_mad(np.ones(10), np.zeros(5, dtype=int))

    def test_monte_carlo_consistency(self, rng):
        draws = rng.normal(size=1000)
        details = draws
        levels = np.zeros(len(draws), dtype=int)
        assert 0.9 <= estimate_sigma_mad(details, levels) <= 1.1


class TestEbayesThreshold:
    def test_zero_in_zero_out(self):
        details = np.zeros(12)
        levels = np.arange(12) // 4
        out, _ = ebayes_threshold(details, 1.0, levels)
        assert all(v == 0.0 for v in out)

    def test_keep_coarsest_passthrough_exact(self, rng):
        details = rng.normal(size=30)
        levels = np.arange(30) // 10  # 3 levels
        out, _ = ebayes_threshold(details, 1.0, levels, ShrinkageConfig(keep_coarsest=2))
        for k in range(len(details)):
            if levels[k] >= 1:
                assert out[k] == details[k]

    def test_pure_noise_mostly_zeroed(self, rng):
        zero_frac = []
        for _ in range(20):
            details = rng.normal(size=97)
            levels = np.minimum(np.arange(97) // 20, 3)
            out, _ = ebayes_threshold(details, 1.0, levels, ShrinkageConfig(keep_coarsest=1))
            target = [k for k in range(len(details)) if levels[k] < 3]
            zero_frac.append(sum(1 for k in target if out[k] == 0.0) / len(target))
        assert np.median(zero_frac) >= 0.8

    def test_bad_sigma_rejected(self):
        with pytest.raises(ShrinkageError, match="positive"):
            ebayes_threshold(np.array([1.0]), 0.0, np.array([0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [math.inf, np.array([1.0, math.inf]), np.array([1.0, np.nan])])
    def test_non_finite_sigma_rejected(self, sigma):
        details = np.ones((12, *np.shape(sigma)))
        with pytest.raises(ShrinkageError, match="noise scale must be finite and positive"):
            ebayes_threshold(details, sigma, np.arange(12) // 4)

    def test_misaligned_levels_rejected(self):
        with pytest.raises(ShrinkageError, match="8 levels for 10 detail rows"):
            ebayes_threshold(np.arange(10.0), 1.0, np.arange(8) // 3)

    @pytest.mark.parametrize("shape", [(10,), (10, 3)])
    def test_sigma_per_column_mismatch_rejected(self, shape):
        details = np.ones(shape)
        with pytest.raises(ShrinkageError, match=r"sigma of shape \(2,\)"):
            ebayes_threshold(details, np.ones(2), np.arange(10) // 4)

    @pytest.mark.parametrize("keep", [1.5, True, "2"])
    def test_non_integer_keep_coarsest_rejected(self, keep):
        with pytest.raises(ShrinkageError, match="keep_coarsest must be a nonnegative integer"):
            ShrinkageConfig(keep_coarsest=keep)
        assert ShrinkageConfig(keep_coarsest=np.int64(1)).keep_coarsest == 1


class TestDenoise:
    def test_array_signal_is_the_mapping(self, mst_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        x = rng.normal(size=mst_lg.m)
        by_id = denoise(dict(zip(mst_lg.ids, x.tolist())), mst_lg, cfg)
        assert by_id.estimate_vector.tobytes() == denoise(x, mst_lg, cfg).estimate_vector.tobytes()
        assert list(by_id.estimates) == list(mst_lg.ids)

    def test_nlt_rejects_a_batch_before_planning(self, monkeypatch, mst_lg, rng):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(shrinkage, "forward", counted)
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        x = rng.normal(size=mst_lg.m)
        by_id = dict(zip(mst_lg.ids, np.column_stack([x, x]).tolist()))
        for batch in (np.column_stack([x, x]), by_id):
            with pytest.raises(ShrinkageError, match="one signal at a time"):
                nlt_denoise(batch, mst_lg, cfg, n_trajectories=2)
        assert calls == []
        nlt_denoise(x, mst_lg, cfg, n_trajectories=2)
        assert len(calls) == 2

    def test_clean_flow_signal_barely_damaged(self):
        graph, values = generate_flow_fixture(0)
        lg = build_line_graph(graph)
        cfg = LiftingConfig.from_acronym("LG-Sid-p")
        res = denoise(values, lg, cfg)
        num = math.sqrt(sum((res.estimates[k] - values[k]) ** 2 for k in lg.ids))
        den = math.sqrt(sum(v**2 for v in values.values()))
        assert num / den <= 0.05

    def test_noise_reduced_on_flow_signal(self, rng):
        graph, values = generate_flow_fixture(0)
        lg = build_line_graph(graph)
        cfg = LiftingConfig.from_acronym("LG-Sid-p")
        wins = 0
        for _ in range(20):
            noisy = {k: values[k] + float(e) for k, e in zip(lg.ids, rng.normal(0, 1, lg.m))}
            res = denoise(noisy, lg, cfg)
            mse_in = np.mean([(noisy[k] - values[k]) ** 2 for k in lg.ids])
            mse_out = np.mean([(res.estimates[k] - values[k]) ** 2 for k in lg.ids])
            wins += mse_out < mse_in
        assert wins >= 19

    def test_scaling_coefficients_untouched(self, mst_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        coeffs, record = forward(values, mst_lg, cfg)
        res = denoise(values, mst_lg, cfg, trajectory=record.removal_order)
        back, _ = forward(res.estimates, mst_lg, cfg, trajectory=record.removal_order)
        for k, v in coeffs.scaling.items():
            assert back.scaling[k] == pytest.approx(v, abs=1e-9)

    def test_zero_frac_counts_shrunk_details(self, mst_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        res = denoise(values, mst_lg, cfg)
        details = list(res.shrunk_details.values())
        assert len(details) == mst_lg.m - cfg.tau
        assert res.zero_frac == sum(d == 0.0 for d in details) / len(details)
        # pure noise: most details shrink to exactly 0
        assert res.zero_frac > 0.5


class TestKeepCoarsestChecked:
    """`keep_coarsest` must leave a level to shrink on every input, a
    noiseless one too, whose columns pass through unshrunk."""

    def test_noiseless_input_rejected(self):
        graph, values = generate_flow_fixture(0)
        lg = build_line_graph(graph)
        cfg = LiftingConfig.from_acronym("LG-Sid-p")
        shrink = ShrinkageConfig(keep_coarsest=99)
        assert denoise(values, lg, cfg).sigma_hat == 0.0
        for run in (
            lambda: denoise(values, lg, cfg, shrink),
            lambda: nlt_denoise(values, lg, cfg, shrink, n_trajectories=2),
            lambda: flow_experiment(0.0, n_replications=2, shrink_config=shrink),
        ):
            with pytest.raises(ShrinkageError, match="keep_coarsest=99 must be below"):
                run()


class TestLevelRows:
    @pytest.mark.parametrize("acr", lifting.VARIANTS)
    @pytest.mark.parametrize("order", ["free", "trajectory"])
    def test_bounds_are_level_counts(self, mst_lg, acr, order):
        cfg = LiftingConfig.from_acronym(acr)
        traj = random_trajectories(mst_lg, cfg, 1, 4)[0] if order == "trajectory" else None
        _, record = forward(np.ones(mst_lg.m), mst_lg, cfg, trajectory=traj)
        rows, bounds = record._level_rows
        levels = np.array([record.levels[k] for k in record.removal_order])
        assert np.diff(bounds).tolist() == np.bincount(levels).tolist()
        assert bounds[0] == 0 and bounds[-1] == len(levels)
        assert rows.tolist() == np.argsort(levels, kind="stable").tolist()


class TestPassThroughLevels:
    @pytest.mark.parametrize("acr", lifting.VARIANTS)
    def test_details_passed_through_are_bitwise(self, acr):
        """The `keep_coarsest` coarsest levels are not shrunk, so `denoise`
        returns their details exactly as `forward` gave them, not divided
        by their gain and multiplied back."""
        lg = build_line_graph(sample_network(100, seed=7))
        values = dict(zip(lg.ids, np.random.default_rng(0).normal(size=lg.m).tolist()))
        cfg = LiftingConfig.from_acronym(acr)
        coeffs, record = forward(values, lg, cfg)
        res = denoise(values, lg, cfg)
        top = max(record.levels.values()) + 1 - ShrinkageConfig().keep_coarsest
        kept = [k for k in record.removal_order if record.levels[k] >= top]
        assert len(kept) == 32 and res.zero_frac > 0
        assert _bits([res.shrunk_details[k] for k in kept]) == _bits(
            [coeffs.details[k] for k in kept])


class TestOneForwardReplay:
    """The shrink core takes the coefficients of the caller's `forward`
    call, so each signal goes through the forward kernel once."""

    @pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Sid-p"])
    def test_one_kernel_call_per_signal(self, monkeypatch, mst_lg, rng, acr):
        kernel = lifting._replay_forward_positions
        signals = []

        def counted(record, W):
            if W.ndim == 1:  # a signal; the detail gains replay identity blocks
                signals.append(record)
            return kernel(record, W)

        monkeypatch.setattr(lifting, "_replay_forward_positions", counted)
        cfg = LiftingConfig.from_acronym(acr)
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        denoise(values, mst_lg, cfg)
        assert len(signals) == 1
        signals.clear()
        _, singles = nlt_denoise(values, mst_lg, cfg, n_trajectories=3, seed=2)
        assert len(signals) == 3 and len(set(map(id, signals))) == 3


class TestBatchCore:
    """A batch `denoise` of B columns equals B single-signal denoise calls."""

    @pytest.mark.parametrize(
        "acr, graph", [("LG-Aid-c", "mst"), ("LG-Sid-p", "flow"), ("LG-Dnw-p", "flow")]
    )
    @pytest.mark.parametrize("rule", ["median", "hard"])
    @pytest.mark.parametrize("keep", [0, 2])
    def test_batch_equals_single_denoise(self, acr, graph, rule, keep):
        if graph == "flow":
            net, clean = generate_flow_fixture(0)
        else:
            net = sample_network(100, seed=7)
            clean = embed_pointwise(get_field("quadrants"), net)
        lg = build_line_graph(net)
        cfg = LiftingConfig.from_acronym(acr)
        shrink = ShrinkageConfig(keep_coarsest=keep, rule=rule)
        truth = np.array([clean[k] for k in lg.ids])
        noise = np.random.default_rng(3).normal(size=(lg.m, 4))
        # four noisy columns, then the clean signal, whose MAD is zero
        X = np.column_stack([truth[:, None] + noise, truth])
        coeffs, record = forward(clean, lg, cfg)
        n = len(record.stages)
        res = denoise(X, lg, cfg, shrink)
        est, shrunk, sigma, nu = res.estimate_vector, res.shrunk_vector, res.sigma_hat, res.nu_hat
        for j in range(X.shape[1]):
            single = denoise(
                dict(zip(lg.ids, X[:, j].tolist())), lg, cfg, shrink,
                trajectory=record.removal_order,
            )
            assert np.max(np.abs(est[:, j] - [single.estimates[k] for k in lg.ids])) <= 1e-12
            assert np.max(np.abs(shrunk[:n, j] - list(single.shrunk_details.values()))) <= 1e-12
            assert abs(sigma[j] - single.sigma_hat) <= 1e-12
            assert abs(nu[j] - single.nu_hat) <= 1e-12
        assert np.all(sigma[:-1] > 0)
        assert sigma[-1] == 0.0 and nu[-1] == 0.0
        assert np.array_equal(shrunk[:, -1], coeffs.vector[:n])

    def test_batch_fractions(self, monkeypatch, mst_lg, rng):
        """A batch's zero fraction is over all its shrunk details, its
        fallback fraction over its columns."""
        fit = shrinkage.weight_from_data

        def first_column_fails(z):
            w = fit(z)
            w[0] = np.nan
            return w

        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        X = rng.normal(size=(mst_lg.m, 4))
        res = denoise(X, mst_lg, cfg)
        assert res.estimate_vector.shape == (mst_lg.m, 4)
        assert res.shrunk_vector.shape == (mst_lg.m - cfg.tau, 4)
        assert res.sigma_hat.shape == res.nu_hat.shape == (4,)
        zero = [denoise(x, mst_lg, cfg).zero_frac for x in X.T]
        assert res.zero_frac == pytest.approx(np.mean(zero), abs=1e-15)
        assert 0.0 < res.zero_frac < 1.0 and res.fallback_frac == 0.0
        monkeypatch.setattr(shrinkage, "weight_from_data", first_column_fails)
        with pytest.warns(UserWarning, match="mixing-weight fit failed") as rec:
            res = denoise(X, mst_lg, cfg)
        assert len(rec) == 1
        assert res.fallback_frac == 0.25 and res.nu_hat[0] == 0.5


class TestBatchCoreBitwise:
    """Each column of a batch `denoise` equals a single-signal denoise of
    that column bit for bit: no column's result depends on its batch."""

    @pytest.mark.parametrize(
        "acr, graph", [("LG-Aid-c", "mst"), ("LG-Sid-p", "flow"), ("LG-Dnw-p", "flow")]
    )
    @pytest.mark.parametrize("rule", ["median", "hard"])
    @pytest.mark.parametrize("keep", [0, 2])
    def test_batch_column_is_single_denoise(self, acr, graph, rule, keep):
        if graph == "flow":
            net, clean = generate_flow_fixture(0)
        else:
            net = sample_network(100, seed=7)
            clean = embed_pointwise(get_field("quadrants"), net)
        lg = build_line_graph(net)
        cfg = LiftingConfig.from_acronym(acr)
        shrink = ShrinkageConfig(keep_coarsest=keep, rule=rule)
        truth = np.array([clean[k] for k in lg.ids])
        noise = np.random.default_rng(3).normal(size=(lg.m, 4))
        X = np.column_stack([truth[:, None] + noise, truth])
        _, record = forward(clean, lg, cfg)
        n = len(record.stages)
        res = denoise(X, lg, cfg, shrink)
        est, shrunk, sigma, nu = res.estimate_vector, res.shrunk_vector, res.sigma_hat, res.nu_hat
        for j in range(X.shape[1]):
            single = denoise(
                dict(zip(lg.ids, X[:, j].tolist())), lg, cfg, shrink,
                trajectory=record.removal_order,
            )
            assert _bits(est[:, j]) == _bits([single.estimates[k] for k in lg.ids])
            assert _bits(shrunk[:n, j]) == _bits(list(single.shrunk_details.values()))
            assert _bits([sigma[j], nu[j]]) == _bits([single.sigma_hat, single.nu_hat])


class TestDetailGains:
    """`detail_gains` replays the identity in blocks of `GAIN_BLOCK`
    columns; more blocks change only the order of each squared norm's sum."""

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Sid-p"])
    def test_blocks_match_one_block(self, monkeypatch, mst_lg, acr, block):
        cfg = LiftingConfig.from_acronym(acr)
        _, record = forward(dict.fromkeys(mst_lg.ids, 0.0), mst_lg, cfg)
        assert mst_lg.m <= lifting.GAIN_BLOCK
        one = detail_gains(record)
        monkeypatch.setattr(lifting, "GAIN_BLOCK", block)
        # a new record of the same plan: `record` keeps the gains of one block
        zeros = dict.fromkeys(mst_lg.ids, 0.0)
        twin = forward(zeros, mst_lg, cfg, trajectory=record.removal_order)[1]
        many = detail_gains(twin)
        assert list(many) == list(one) == list(record.removal_order)
        for k, g in one.items():
            assert many[k] == pytest.approx(g, rel=1e-15, abs=0.0)


class TestBatchSigma:
    """`denoise` estimates sigma in one MAD pass over a batch: column
    by column it is bitwise `estimate_sigma_mad` on the pooled levels, and a
    zero-MAD column has sigma 0 and passes through unshrunk."""

    @pytest.mark.parametrize(
        "acr, graph, zero_cols",
        [("LG-Aid-c", "mst", (3, 4)), ("LG-Sid-p", "flow", (3, 4)), ("LG-Aid-c", "tiny", (3,))],
    )
    @pytest.mark.parametrize("rule", ["median", "hard"])
    def test_core_sigma_is_estimate_sigma_mad(self, acr, graph, zero_cols, rule):
        if graph == "flow":
            net, clean = generate_flow_fixture(0)
        else:
            # the tiny network (m = 8) has 2 details per level, so the MAD
            # pools its two finest levels
            net = sample_network(*((100, 7) if graph == "mst" else (9, 3)))
            clean = embed_pointwise(get_field("quadrants"), net)
        lg = build_line_graph(net)
        cfg = LiftingConfig.from_acronym(acr)
        truth = np.array([clean[k] for k in lg.ids])
        noise = np.random.default_rng(5).normal(size=(lg.m, 3))
        # three noisy columns, a constant one and the clean signal
        X = np.column_stack([truth[:, None] + noise, np.full(lg.m, 2.5), truth])
        _, record = forward(clean, lg, cfg)
        n = len(record.stages)
        lev = np.array([record.levels[k] for k in record.removal_order])
        pool = int(np.argmax(np.cumsum(np.bincount(lev)) >= 3))
        assert pool == (1 if graph == "tiny" else 0)
        mad_levels = np.where(lev <= pool, 0, lev)
        gains = np.array(list(detail_gains(record).values()))
        for batch in (X, X[:, 0]):
            res = denoise(batch, lg, cfg, ShrinkageConfig(rule=rule))
            est, shrunk = res.estimate_vector.reshape(lg.m, -1), res.shrunk_vector.reshape(n, -1)
            sigma = np.reshape(res.sigma_hat, -1)
            for j, x in enumerate(batch.reshape(lg.m, -1).T):
                values = dict(zip(lg.ids, x.tolist()))
                c = forward(values, lg, cfg, trajectory=record.removal_order)[0].vector
                z = c[:n] / gains
                if j in zero_cols:
                    with pytest.raises(ShrinkageError, match="degenerate finest level"):
                        estimate_sigma_mad(z, mad_levels)
                    assert sigma[j] == 0.0
                    assert _bits(shrunk[:, j]) == _bits(c[:n])
                    assert np.max(np.abs(est[:, j] - x)) <= 1e-12
                else:
                    assert _bits([sigma[j]]) == _bits([estimate_sigma_mad(z, mad_levels)])

    @pytest.mark.parametrize("acr, graph, level", [("LG-Aid-c", "tiny", 1), ("LG-Sid-p", "flow", 0)])
    def test_results_record_mad_pool_level(self, acr, graph, level):
        # the level that `pool` above reaches, as the results report it
        if graph == "flow":
            net, clean = generate_flow_fixture(0)
        else:
            net = sample_network(9, 3)
            clean = embed_pointwise(get_field("quadrants"), net)
        lg = build_line_graph(net)
        cfg = LiftingConfig.from_acronym(acr)
        noise = np.random.default_rng(5).normal(size=lg.m)
        values = {k: clean[k] + e for k, e in zip(lg.ids, noise.tolist())}
        assert denoise(values, lg, cfg).mad_pool_level == level
        combined, singles = nlt_denoise(values, lg, cfg, n_trajectories=3)
        assert [r.mad_pool_level for r in [combined, *singles]] == [level] * 4


class TestNlt:
    def test_single_trajectory_equals_denoise(self, mst_lg, rng):
        from lglift.shrinkage import random_trajectories

        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        combined, singles = nlt_denoise(values, mst_lg, cfg, n_trajectories=1, seed=5)
        traj = random_trajectories(mst_lg, cfg, 1, seed=5)[0]
        direct = denoise(values, mst_lg, cfg, trajectory=traj)
        assert combined.estimates == direct.estimates

    def test_mean_is_order_free(self, mst_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Did-c")
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        combined, singles = nlt_denoise(values, mst_lg, cfg, n_trajectories=5, seed=2)
        shuffled = list(reversed(singles))
        remean = {
            k: sum(r.estimates[k] for r in shuffled) / len(shuffled) for k in mst_lg.ids
        }
        for k in remean:
            assert remean[k] == pytest.approx(combined.estimates[k], abs=1e-12)

    def test_needs_positive_count(self, small_tree_lg):
        values = {k: 0.0 for k in small_tree_lg.ids}
        with pytest.raises(ShrinkageError):
            nlt_denoise(values, small_tree_lg, LiftingConfig(), n_trajectories=0)

    def test_negative_seed_rejected(self, small_tree_lg):
        values = {k: 0.0 for k in small_tree_lg.ids}
        for seed in (-1, (3, -1)):
            with pytest.raises(ShrinkageError, match="seed must be nonnegative"):
                nlt_denoise(values, small_tree_lg, LiftingConfig(), n_trajectories=2, seed=seed)

    @pytest.mark.parametrize("seed", [(), 1.5, (2, 0.5), "3", True, (2, False)])
    def test_malformed_seed_rejected(self, small_tree_lg, seed):
        values = {k: 0.0 for k in small_tree_lg.ids}
        with pytest.raises(ShrinkageError, match=f"seed must be an int .*got {re.escape(repr(seed))}"):
            nlt_denoise(values, small_tree_lg, LiftingConfig(), n_trajectories=2, seed=seed)

    @pytest.mark.parametrize("count", [2.0, True, "2"])
    def test_non_integer_trajectory_count_rejected(self, small_tree_lg, count):
        values = {k: 0.0 for k in small_tree_lg.ids}
        with pytest.raises(ShrinkageError, match="n_trajectories must be a positive integer"):
            nlt_denoise(values, small_tree_lg, LiftingConfig(), n_trajectories=count)

    @pytest.mark.parametrize("n, seed", [(2.5, 0), (2, 1.5), (-1, 0)])
    def test_random_trajectories_rejects_bad_counts(self, small_tree_lg, n, seed):
        with pytest.raises(ShrinkageError, match=f"got {re.escape(repr(n if seed == 0 else seed))}"):
            random_trajectories(small_tree_lg, LiftingConfig(), n, seed)

    def test_zero_frac_is_mean_over_trajectories(self, mst_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        combined, singles = nlt_denoise(values, mst_lg, cfg, n_trajectories=3, seed=4)
        assert combined.zero_frac == pytest.approx(np.mean([r.zero_frac for r in singles]))
        assert 0.0 < combined.zero_frac < 1.0


class TestNltBatch:
    """`nlt_denoise` plans each trajectory with `forward` and shrinks all of
    them in one shrink-core call; each per-trajectory result is bitwise a
    single `denoise` on that trajectory."""

    @pytest.mark.parametrize("acr, graph", [("LG-Sid-p", "flow"), ("LG-Aid-c", "mst")])
    @pytest.mark.parametrize("rule", ["median", "hard"])
    @pytest.mark.parametrize("keep", [0, 2])
    @pytest.mark.parametrize("noisy", [True, False])
    def test_singles_are_denoise(self, acr, graph, rule, keep, noisy):
        if graph == "flow":
            net, clean = generate_flow_fixture(0)
        else:
            net = sample_network(100, seed=7)
            clean = embed_pointwise(get_field("quadrants"), net)
        lg = build_line_graph(net)
        cfg = LiftingConfig.from_acronym(acr)
        shrink = ShrinkageConfig(keep_coarsest=keep, rule=rule)
        noise = np.random.default_rng(9).normal(size=lg.m) if noisy else np.zeros(lg.m)
        values = {k: clean[k] + e for k, e in zip(lg.ids, noise.tolist())}
        combined, singles = nlt_denoise(values, lg, cfg, shrink, n_trajectories=5, seed=6)
        trajectories = random_trajectories(lg, cfg, 5, seed=6)
        for traj, single in zip(trajectories, singles):
            direct = denoise(values, lg, cfg, shrink, trajectory=traj)
            assert list(single.estimates) == list(direct.estimates) == list(lg.ids)
            assert list(single.shrunk_details) == list(direct.shrunk_details) == list(traj)
            assert _bits(list(single.estimates.values())) == _bits(list(direct.estimates.values()))
            assert _bits(list(single.shrunk_details.values())) == _bits(
                list(direct.shrunk_details.values())
            )
            assert _bits([single.sigma_hat, single.nu_hat]) == _bits([direct.sigma_hat, direct.nu_hat])
            assert (single.zero_frac, single.fallback_frac) == (direct.zero_frac, 0.0)
            if not noisy:
                # a zero MAD: the details pass through unshrunk
                coeffs, _ = forward(values, lg, cfg, trajectory=traj)
                assert single.sigma_hat == single.nu_hat == 0.0
                assert _bits(list(single.shrunk_details.values())) == _bits(
                    [coeffs.details[k] for k in traj]
                )
        assert combined.sigma_hat == np.mean([r.sigma_hat for r in singles])
        assert (combined.sigma_hat > 0) == noisy

    def test_fallback_frac_counts_failed_fits(self, monkeypatch, mst_lg, rng):
        fit = shrinkage.weight_from_data

        def first_column_fails(z):
            w = fit(z)
            w[0] = np.nan
            return w

        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        assert denoise(values, mst_lg, cfg).fallback_frac == 0.0
        monkeypatch.setattr(shrinkage, "weight_from_data", first_column_fails)
        with pytest.warns(UserWarning, match="mixing-weight fit failed") as rec:
            single = denoise(values, mst_lg, cfg)
        assert len(rec) == 1
        assert single.fallback_frac == 1.0 and single.nu_hat == 0.5
        with pytest.warns(UserWarning, match="mixing-weight fit failed") as rec:
            combined, singles = nlt_denoise(values, mst_lg, cfg, n_trajectories=4, seed=3)
        assert len(rec) == 1
        assert [r.fallback_frac for r in singles] == [1.0, 0.0, 0.0, 0.0]
        assert combined.fallback_frac == 0.25

    def test_plans_must_share_level_counts(self, mst_lg, small_tree_lg):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        plans = [forward(np.ones(lg.m), lg, cfg)[0] for lg in (mst_lg, small_tree_lg)]
        with pytest.raises(ShrinkageError, match="share their level counts"):
            _denoise_plans(plans, ShrinkageConfig(keep_coarsest=0))


class TestFewDetails:
    """With 3 <= m - tau < floor(log2 m) details there are too few for the
    default levels: the transform is still valid, only denoising is not."""

    @pytest.mark.parametrize("tau", [94, 95, 96])
    def test_transform_valid_denoise_rejected(self, mst_lg, rng, tau):
        cfg = LiftingConfig.from_acronym("LG-Sid-p", tau=tau)
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        coeffs, record = forward(values, mst_lg, cfg)
        assert len(coeffs.details) == mst_lg.m - tau
        assert record.levels is None
        assert record.scales == {st.removed: st.integral for st in record.stages}
        back = inverse(coeffs, record)
        assert max(abs(back[k] - values[k]) for k in mst_lg.ids) <= 1e-12
        curve = sparsity_curve_single(values, mst_lg, cfg)
        assert len(curve.ise) == mst_lg.m - tau + 1 and curve.ise[-1] <= 1e-20
        with pytest.raises(ShrinkageError, match="too few detail coefficients"):
            denoise(values, mst_lg, cfg)

    def test_levels_from_as_many_details_as_levels(self, mst_lg):
        # floor(log2 99) = 6 details: one per level
        cfg = LiftingConfig.from_acronym("LG-Sid-p", tau=93)
        _, record = forward(dict.fromkeys(mst_lg.ids, 0.0), mst_lg, cfg)
        assert sorted(record.levels.values()) == list(range(6))
