"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``CRITERION nn ... PASS`` line with the measured
numbers; the pytest verdict for the test is the pass/fail signal.  Tolerances
are pinned in-line.  The slower studies (condition numbers, the flow and
field denoising grids) run at the sizes given in their docstrings and take
a few minutes together.
"""

import math

import numpy as np
import pytest

from lglift.analysis import build_matrices, condition_number, sparsity_curve_single
from lglift.graph import build_line_graph
from lglift.lifting import (
    VARIANTS,
    CoefficientSet,
    LiftingConfig,
    forward,
    inverse,
)
from lglift.shrinkage import (
    ShrinkageConfig,
    denoise,
    ebayes_threshold,
    nlt_denoise,
    post_med_cauchy,
)
from lglift.simulation import (
    ExperimentConfig,
    add_noise,
    compute_metrics,
    condition_number_study,
    embed_edge_average,
    embed_pointwise,
    flow_experiment,
    get_field,
    normalize_unit_variance,
    run_experiment,
    sample_network,
)

from test_shrinkage import oracle_posterior_median


def _random_values(lg, seed):
    rng = np.random.default_rng(seed)
    return {k: float(v) for k, v in zip(lg.ids, rng.normal(size=lg.m))}


def test_criterion_01_perfect_reconstruction():
    """All 12 variants, m in {9, 99, 499}: relative inf-norm error <= 1e-8."""
    worst = 0.0
    for n in (10, 100, 500):
        lg = build_line_graph(sample_network(n, seed=n))
        values = _random_values(lg, seed=n + 1)
        scale = max(abs(v) for v in values.values())
        for acr in VARIANTS:
            coeffs, record = forward(values, lg, LiftingConfig.from_acronym(acr))
            rec = inverse(coeffs, record)
            err = max(abs(rec[k] - values[k]) for k in lg.ids) / scale
            worst = max(worst, err)
    assert worst <= 1e-8
    print(f"CRITERION 01 perfect reconstruction: PASS (worst rel err {worst:.3e} <= 1e-8)")


def test_criterion_02_integral_scale_invariance(mst_lg):
    """Scaling all initial integrals by C leaves details and filters unchanged."""
    cfg = LiftingConfig.from_acronym("LG-Snw-c")
    coeffs0, record0 = forward(_random_values(mst_lg, seed=2), mst_lg, cfg)
    worst = 0.0
    values = _random_values(mst_lg, seed=2)
    for C in (0.5, 2.0, 1000.0):
        scaled = {k: C * v for k, v in record0.initial_integrals.items()}
        coeffs, record = forward(values, mst_lg, cfg, initial_integrals=scaled)
        assert record.removal_order == record0.removal_order
        for k in coeffs0.details:
            worst = max(worst, abs(coeffs.details[k] - coeffs0.details[k]))
        for st, st0 in zip(record.stages, record0.stages):
            worst = max(worst, max(abs(x - y) for x, y in zip(st.a, st0.a)))
            worst = max(worst, max(abs(x - y) for x, y in zip(st.b, st0.b)))
    assert worst <= 1e-10
    print(f"CRITERION 02 integral scale invariance: PASS (max deviation {worst:.3e} <= 1e-10)")


def test_criterion_03_matrix_identity(mst_lg):
    """Forward/inverse matrix product within 1e-8 of identity at m=99."""
    worst = 0.0
    for acr in ("LG-Aid-c", "LG-Dnw-p"):
        mats = build_matrices(mst_lg, LiftingConfig.from_acronym(acr))
        resid = mats.forward_matrix @ mats.inverse_matrix - np.eye(mst_lg.m)
        worst = max(worst, float(np.max(np.abs(resid))))
    assert worst <= 1e-8
    print(f"CRITERION 03 matrix identity: PASS (max |R~R - I| {worst:.3e} <= 1e-8)")


def test_criterion_04_condition_numbers():
    """Median condition number over 50 graphs (n=100) within 25% of the
    published per-variant medians; every observed value in [8, 17]."""
    targets = {
        "LG-Dnw-c": 10.5684,
        "LG-Sid-c": 12.4962,
        "LG-Dnw-p": 10.5528,
        "LG-Aid-p": 10.9914,
    }
    lines = []
    for acr, target in targets.items():
        kappas = condition_number_study(acr, n_graphs=50, n_vertices=100, seed=0)
        med = float(np.median(kappas))
        assert abs(med - target) / target <= 0.25, f"{acr}: median {med} vs {target}"
        assert min(kappas) >= 8.0 and max(kappas) <= 17.0, (
            f"{acr}: range [{min(kappas):.2f}, {max(kappas):.2f}]"
        )
        lines.append(f"{acr} median {med:.3f} (target {target})")
    print("CRITERION 04 condition numbers: PASS (" + "; ".join(lines) + ")")


def test_criterion_05_constant_annihilation_and_invariants(mst_lg):
    """Constant input gives zero details; filters stay normalized/positive."""
    values = {k: 4.2 for k in mst_lg.ids}
    fractions = []
    for acr in VARIANTS:
        coeffs, record = forward(values, mst_lg, LiftingConfig.from_acronym(acr))
        assert max(abs(d) for d in coeffs.details.values()) <= 1e-12, acr
        for st in record.stages:
            assert abs(sum(st.a) - 1.0) <= 1e-12, acr
            assert all(a >= 0.0 for a in st.a), acr
            assert all(b > 0.0 for b in st.b), acr
            assert st.integral > 0.0, acr
        fractions.append(record.update_filter_fraction_below_half())
    frac = float(np.mean(fractions))
    print(
        "CRITERION 05 constant annihilation + filter invariants: PASS "
        f"(update filters <= 1/2 in {100 * frac:.1f}% of stages)"
    )


def test_criterion_06_affine_field_bound():
    """First-stage detail of an affine field is bounded by gradient norm
    times the mean neighbor distance (inverse-distance + coordinate metric)."""
    beta, gamma = 2.0, -3.0
    grad = math.hypot(beta, gamma)
    cfg = LiftingConfig.from_acronym("LG-Sid-c")
    worst_ratio = 0.0
    for q in range(50):
        graph = sample_network(40, seed=600 + q)
        lg = build_line_graph(graph)
        values = embed_pointwise(lambda x, y: 1.0 + beta * x + gamma * y, graph)
        coeffs, record = forward(values, lg, cfg)
        st = record.stages[0]
        ck = lg.coords[st.removed]
        dists = [math.dist(ck, lg.coords[s]) for s in st.neighbors]
        bound = grad * (sum(dists) / len(dists))
        detail = abs(coeffs.details[st.removed])
        assert detail <= bound + 1e-12, f"graph {q}: {detail} > {bound}"
        worst_ratio = max(worst_ratio, detail / bound)
    print(
        "CRITERION 06 affine-field detail bound: PASS "
        f"(0 violations in 50 graphs, worst |d|/bound {worst_ratio:.3f})"
    )


def test_criterion_07_sparsity(mst_lg, small_tree_lg):
    """ISE hits ~0 with all details; constants need none; greedy curve is
    within the logged gap of the brute-force best-k at m=6."""
    from itertools import combinations

    cfg = LiftingConfig.from_acronym("LG-Aid-c")
    curve = sparsity_curve_single(_random_values(mst_lg, seed=7), mst_lg, cfg)
    assert curve.ise[-1] <= 1e-8
    const = sparsity_curve_single({k: 2.0 for k in small_tree_lg.ids}, small_tree_lg, cfg)
    assert const.ise[1] <= 1e-12

    values = _random_values(small_tree_lg, seed=8)
    coeffs, record = forward(values, small_tree_lg, cfg)
    greedy_curve = sparsity_curve_single(values, small_tree_lg, cfg)
    gaps = []
    for kept in (1, 2, 3):
        best = np.inf
        for subset in combinations(coeffs.details, kept):
            trial = CoefficientSet.from_dicts(
                {k: (coeffs.details[k] if k in subset else 0.0) for k in coeffs.details},
                coeffs.scaling,
                record,
            )
            rec = inverse(trial, record)
            best = min(best, sum((rec[k] - values[k]) ** 2 for k in small_tree_lg.ids))
        greedy = greedy_curve.ise[kept]
        assert greedy >= best - 1e-12
        gaps.append(f"k={kept}: greedy {greedy:.4f} vs optimal {best:.4f}")
    print(
        "CRITERION 07 sparsity: PASS "
        f"(final ISE {curve.ise[-1]:.2e}, constant ISE(1) {const.ise[1]:.2e}; "
        + "; ".join(gaps)
        + ")"
    )


@pytest.fixture(scope="module")
def field_grid():
    """Per-replication squared errors for the piecewise field study
    (quadrants field, Q=10 graphs of n=100, R=20 replications per SNR,
    10-trajectory averaged estimator)."""
    fn = get_field("quadrants")
    cfg = LiftingConfig.from_acronym("LG-Dnw-c")
    shrink = ShrinkageConfig()
    Q, R = 10, 20
    out = {}
    for snr in (3.0, 5.0, 7.0):
        estimates = np.empty((Q, R, 99))
        truths = np.empty((Q, 99))
        mses = []
        for q in range(Q):
            graph = sample_network(100, seed=800 + q)
            lg = build_line_graph(graph)
            g = normalize_unit_variance(embed_edge_average(fn, graph, 100))
            truths[q] = [g[k] for k in lg.ids]
            for r in range(R):
                noisy, _ = add_noise(g, snr, seed=(8, q, r))
                res, _ = nlt_denoise(noisy, lg, cfg, shrink, 10, seed=(q, r))
                estimates[q, r] = [res.estimates[k] for k in lg.ids]
                mses.append(float(np.mean((estimates[q, r] - truths[q]) ** 2)))
        out[snr] = (np.array(mses), compute_metrics(estimates, truths))
    return out


def test_criterion_08_denoising_sanity(field_grid):
    """Denoised MSE beats the raw-noise level in >= 95% of replications and
    AMSE strictly decreases as SNR grows."""
    amses = []
    rates = []
    for snr, (mses, report) in field_grid.items():
        sigma2 = (1.0 / snr) ** 2
        rate = float(np.mean(mses < sigma2))
        assert rate >= 0.95, f"SNR {snr}: only {100 * rate:.0f}% beat noise"
        amses.append(report.amse)
        rates.append(f"SNR {snr:g}: AMSE {report.amse:.4f} < {sigma2:.4f} in {100 * rate:.0f}%")
    assert amses[0] > amses[1] > amses[2]
    print("CRITERION 08 denoising sanity: PASS (" + "; ".join(rates) + ")")


def test_criterion_09_flow_study():
    """Flow-fixture AMSE within a factor of 2 of the published values and
    a 30-trajectory average beating the single trajectory by >= 10%."""
    targets = {1.0: 0.6637, 1.5: 0.9770, 2.0: 1.2651}
    parts = []
    single_at_2 = None
    for sigma, target in targets.items():
        rep = flow_experiment(sigma, n_replications=50, seed=0)
        assert target / 2 <= rep.amse <= target * 2, f"sigma {sigma}: {rep.amse}"
        parts.append(f"sigma {sigma:g}: {rep.amse:.4f} (target {target})")
        if sigma == 2.0:
            single_at_2 = rep.amse
    nlt = flow_experiment(2.0, n_replications=50, seed=0, nlt_trajectories=30)
    gain = (single_at_2 - nlt.amse) / single_at_2
    assert gain >= 0.10, f"multi-trajectory gain only {100 * gain:.1f}%"
    print(
        "CRITERION 09 flow study: PASS ("
        + "; ".join(parts)
        + f"; 30-trajectory gain {100 * gain:.1f}% >= 10%)"
    )


def test_criterion_10_shrinkage_oracle():
    """Posterior median matches a quadrature oracle on 200 fixed inputs;
    pure noise is mostly zeroed; a 10-sigma spike barely shrinks."""
    rng = np.random.default_rng(10)
    xs = np.concatenate([np.linspace(-8.0, 8.0, 26), rng.normal(0, 2.5, 24)])
    worst = 0.0
    for w in (0.05, 0.3, 0.7, 0.95):
        got = post_med_cauchy(xs, w)
        for x, g in zip(xs, got):
            worst = max(worst, abs(g - oracle_posterior_median(float(x), w)))
    assert worst <= 1e-6

    fracs = []
    for seed in range(100):
        noise = np.random.default_rng(seed).normal(size=99)
        details = noise
        levels = np.arange(99) * 5 // 99
        shrunk, _ = ebayes_threshold(details, 1.0, levels, ShrinkageConfig(keep_coarsest=0))
        fracs.append(np.mean([v == 0.0 for v in shrunk]))
    zero_frac = float(np.median(fracs))
    assert zero_frac >= 0.80

    noise = np.random.default_rng(1).normal(size=98)
    details = np.append(noise, 10.0)
    levels = np.arange(99) * 5 // 99
    shrunk, _ = ebayes_threshold(details, 1.0, levels, ShrinkageConfig(keep_coarsest=0))
    shrinkage = (10.0 - shrunk[98]) / 10.0
    assert 0.0 <= shrinkage < 0.10
    print(
        "CRITERION 10 shrinkage oracle: PASS "
        f"(max |post_med - oracle| {worst:.2e} <= 1e-6; median zeroed "
        f"{100 * zero_frac:.0f}% >= 80%; 10-sigma spike shrank {100 * shrinkage:.1f}% < 10%)"
    )


def test_criterion_11_mad_calibration(mst_lg):
    """Pure N(0,1) noise on m=99: median sigma-hat within [0.85, 1.15]."""
    cfg = LiftingConfig.from_acronym("LG-Sid-p")
    shrink = ShrinkageConfig()
    _, record = forward({k: 0.0 for k in mst_lg.ids}, mst_lg, cfg)
    order = record.removal_order
    sigmas = []
    for rep in range(100):
        noise = np.random.default_rng(1100 + rep).normal(size=mst_lg.m)
        values = {k: float(v) for k, v in zip(mst_lg.ids, noise)}
        res = denoise(values, mst_lg, cfg, shrink, trajectory=order)
        sigmas.append(res.sigma_hat)
    med = float(np.median(sigmas))
    assert 0.85 <= med <= 1.15
    print(f"CRITERION 11 MAD calibration: PASS (median sigma-hat {med:.4f} in [0.85, 1.15])")


def test_criterion_12_metrics_identity(field_grid):
    """AMSE decomposes exactly into variance plus squared bias on every grid."""
    worst = 0.0
    reports = [report for _, report in field_grid.values()]
    reports.append(flow_experiment(1.0, n_replications=5, seed=0))
    reports.append(
        run_experiment(ExperimentConfig(n_vertices=20, n_graphs=2, n_replications=3))
    )
    rng = np.random.default_rng(12)
    reports.append(compute_metrics(rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5))))
    for rep in reports:
        worst = max(worst, abs(rep.amse - (rep.variance + rep.bias_sq)))
    assert worst <= 1e-10
    print(f"CRITERION 12 metrics identity: PASS (max |AMSE - Var - Bias^2| {worst:.2e} <= 1e-10)")
