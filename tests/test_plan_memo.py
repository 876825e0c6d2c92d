"""`forward` plans each (line graph, config) pair once, and `detail_gains`
replays the identity once per record (a denoiser's `forward` carries that
replay): the kept plans and gains give the same bits as planning afresh,
and they die with their line graph.  No hot path builds a record's
`stages` view, nor a coefficient or estimate dict."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from lglift import analysis, lifting, shrinkage
from lglift.graph import GraphError, LineGraph, build_line_graph
from lglift.lifting import (
    VARIANTS,
    CoefficientSet,
    LiftingConfig,
    LiftingError,
    forward,
)
from lglift.shrinkage import DenoiseResult, denoise, detail_gains, nlt_denoise
from lglift.simulation import (
    ExperimentConfig,
    condition_number_study,
    flow_experiment,
    generate_flow_fixture,
    run_experiment,
    sample_network,
)

NETWORKS = {
    "mst": lambda: sample_network(100, seed=7),
    "flow": lambda: generate_flow_fixture(0)[0],
}


def _bits(a) -> bytes:
    """The float64 bit pattern of `a` (so -0.0 differs from 0.0)."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _noisy(lg, seed):
    rng = np.random.default_rng(seed)
    return dict(zip(lg.ids, rng.normal(size=lg.m).tolist()))


# the flow fixture has no coordinates, so only the path-metric variants
@pytest.mark.parametrize(
    "net, acr",
    [("mst", acr) for acr in VARIANTS] + [("flow", acr) for acr in VARIANTS if acr.endswith("-p")],
)
def test_kept_plan_matches_fresh_line_graph(net, acr):
    lg = build_line_graph(NETWORKS[net]())
    fresh = build_line_graph(NETWORKS[net]())
    cfg = LiftingConfig.from_acronym(acr)
    values = _noisy(lg, 1)
    _, r1 = forward(_noisy(lg, 2), lg, cfg)
    c2, r2 = forward(values, lg, cfg)
    c3, r3 = forward(values, fresh, cfg)
    assert r2 is r1 and r3 is not r1
    assert r2.removal_order == r3.removal_order
    assert list(c2.details) == list(c3.details) and list(c2.scaling) == list(c3.scaling)
    assert _bits(c2.vector) == _bits(c3.vector)
    # the first denoise on lg computes r1's gains, the second reuses them
    want = denoise(values, fresh, cfg)
    for got in (denoise(values, lg, cfg), denoise(values, lg, cfg)):
        assert list(got.estimates) == list(want.estimates)
        assert _bits(list(got.estimates.values())) == _bits(list(want.estimates.values()))
        assert list(got.shrunk_details) == list(want.shrunk_details)
        assert _bits(list(got.shrunk_details.values())) == _bits(
            list(want.shrunk_details.values())
        )
        assert _bits([got.sigma_hat, got.nu_hat]) == _bits([want.sigma_hat, want.nu_hat])


def test_configs_differing_in_tau_or_seed_get_their_own_plans():
    lg = build_line_graph(sample_network(100, seed=7))
    zeros = dict.fromkeys(lg.ids, 0.0)
    base = LiftingConfig.from_acronym("LG-Dnw-c")  # all integrals tie: the seed matters
    configs = [base, dataclasses.replace(base, tau=3), dataclasses.replace(base, rng_seed=5)]
    records = [forward(zeros, lg, cfg)[1] for cfg in configs]
    assert len({id(r) for r in records}) == 3
    assert [r.config for r in records] == configs
    assert [len(r.stages) for r in records] == [lg.m - 2, lg.m - 3, lg.m - 2]
    assert records[0].removal_order != records[2].removal_order
    assert all(a is b for a, b in zip((forward(zeros, lg, c)[1] for c in configs), records))
    assert lifting._PLANS[lg] == dict(zip(configs, records))


def test_equal_configs_share_a_plan():
    # schemes given by value are the same members as by acronym
    lg = build_line_graph(sample_network(30, seed=1))
    zeros = dict.fromkeys(lg.ids, 0.0)
    by_value = LiftingConfig("sum", "moving_average", "path_length")
    _, record = forward(zeros, lg, LiftingConfig.from_acronym("LG-Snw-p"))
    assert forward(zeros, lg, by_value)[1] is record
    first = record.stages[0]
    assert first.a == (1.0 / len(first.neighbors),) * len(first.neighbors)


def test_fixed_plans_neither_read_nor_fill_the_memo():
    lg = build_line_graph(sample_network(100, seed=7))
    cfg = LiftingConfig.from_acronym("LG-Sid-p")
    values = _noisy(lg, 1)
    # the default integrals and order, planned on a twin line graph
    twin = forward(values, build_line_graph(sample_network(100, seed=7)), cfg)[1]
    integrals, order = twin.initial_integrals, twin.removal_order
    fixed = forward(values, lg, cfg, trajectory=order)[1]
    given = forward(values, lg, cfg, initial_integrals=integrals)[1]
    assert lg not in lifting._PLANS
    free = forward(values, lg, cfg)[1]
    assert lifting._PLANS[lg] == {cfg: free}
    again = (
        forward(values, lg, cfg, trajectory=order)[1],
        forward(values, lg, cfg, initial_integrals=integrals)[1],
    )
    assert all(r is not free for r in again) and again == (fixed, given) == (free, free)
    assert lifting._PLANS[lg] == {cfg: free}


def _star_of_huge_lengths():
    # the line graph of a 4-edge star is K4, and its initial integrals overflow
    ids = ["a", "b", "c", "d"]
    adj = {k: set(ids) - {k} for k in ids}
    return LineGraph(ids, adj, edge_lengths=dict.fromkeys(ids, 8e307)), "LG-Sid-p"


@pytest.mark.parametrize(
    "case, error, match",
    [
        ("tau", LiftingError, "stopping time"),
        ("disconnected", GraphError, "disconnected"),
        ("overflow", LiftingError, "non-finite initial integral"),
    ],
)
def test_planning_error_raises_on_every_call(case, error, match):
    if case == "tau":
        lg, cfg = build_line_graph(sample_network(7, seed=42)), LiftingConfig(tau=6)
    elif case == "disconnected":
        adj = {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}}
        lg = LineGraph(list(adj), adj, coords={k: (float(i), 0.0) for i, k in enumerate(adj)})
        cfg = LiftingConfig()
    else:
        lg, acr = _star_of_huge_lengths()
        cfg = LiftingConfig.from_acronym(acr)
    for _ in range(2):
        with pytest.raises(error, match=match):
            forward(dict.fromkeys(lg.ids, 1.0), lg, cfg)
    assert lg not in lifting._PLANS


def test_detail_gains_replay_the_identity_once_per_record(monkeypatch):
    lg = build_line_graph(sample_network(100, seed=7))
    assert lg.m <= lifting.GAIN_BLOCK
    cfg = LiftingConfig.from_acronym("LG-Aid-c")
    replay = lifting._replay_forward_positions
    replays = []

    def counted(record, W):
        if W.ndim > 1:  # an identity block; a signal's replay is 1-D
            replays.append(record)
        return replay(record, W)

    monkeypatch.setattr(lifting, "_replay_forward_positions", counted)
    values = _noisy(lg, 1)
    _, record = forward(values, lg, cfg)
    first = detail_gains(record)
    second = detail_gains(record)
    denoise(values, lg, cfg)
    assert replays == [record]
    assert _bits(second) == _bits(first) and second is not first  # a fresh copy every call
    second[:] = 0.0
    assert _bits(detail_gains(record)) == _bits(first)
    twin = forward(values, lg, cfg, trajectory=record.removal_order)[1]
    assert _bits(detail_gains(twin)) == _bits(first)
    assert replays == [record, twin]


@pytest.mark.parametrize("block", [None, 16])
@pytest.mark.parametrize("order", ["free", "trajectory"])
@pytest.mark.parametrize("batch", [None, 4])
@pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Sid-p", "LG-Dnw-c"])
def test_a_denoisers_forward_keeps_the_gains_of_its_replay(monkeypatch, acr, batch, order, block):
    # a denoiser's forward replays the signal beside the identity's first
    # block (with a block of 16 columns, the first of several): its
    # coefficients and the gains it keeps are those of a plain forward and
    # detail_gains on a twin line graph (plans are kept by line graph)
    if block is not None:
        monkeypatch.setattr(lifting, "GAIN_BLOCK", block)
    network = sample_network(100, seed=7)
    lg, twin = build_line_graph(network), build_line_graph(network)
    assert lg.m > lifting.GAIN_BLOCK if block else lg.m <= lifting.GAIN_BLOCK
    cfg = LiftingConfig.from_acronym(acr)
    values = np.random.default_rng(3).normal(size=(lg.m,) if batch is None else (lg.m, batch))
    trajectory = None if order == "free" else shrinkage.random_trajectories(lg, cfg, 1, seed=5)[0]
    shrunk = []
    core = shrinkage._denoise_plans

    def kept(plans, shrink_config):
        shrunk.extend(plans)
        return core(plans, shrink_config)

    monkeypatch.setattr(shrinkage, "_denoise_plans", kept)
    denoise(values, lg, cfg, trajectory=trajectory)
    [coeffs] = shrunk
    want, record = forward(values, twin, cfg, trajectory=trajectory)
    assert "_gains" not in record.__dict__  # forward alone keeps no gains
    assert coeffs.vector.shape == values.shape
    assert _bits(coeffs.vector) == _bits(want.vector)
    assert _bits(detail_gains(coeffs.record)) == _bits(detail_gains(record))


def test_kept_arrays_are_read_only():
    # one record serves every caller of its plan, so what it keeps is frozen,
    # and `detail_gains` hands out copies
    lg = build_line_graph(sample_network(100, seed=7))
    _, record = forward(_noisy(lg, 1), lg, LiftingConfig.from_acronym("LG-Aid-c"))
    gains = detail_gains(record)
    for kept in (record.levels, record._gains, record._canon, *record._level_rows):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = kept[1]
    gains[:] = -1.0
    assert np.all(detail_gains(record) > 0)
    assert _bits(detail_gains(record)) == _bits(record._gains)


@pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Sid-p"])
def test_plans_die_with_their_line_graph(acr):
    lg = build_line_graph(sample_network(100, seed=7))
    # the record alone: a coefficient set keeps its record
    record = forward(dict.fromkeys(lg.ids, 0.0), lg, LiftingConfig.from_acronym(acr))[1]
    detail_gains(record)
    assert lifting._PLANS[lg]
    lg_ref, record_ref = weakref.ref(lg), weakref.ref(record)
    # a line graph holds no reference cycle (its cached relink included), so
    # it and its plans go with the last reference, before any collection
    gc.disable()
    try:
        del lg, record
        assert lg_ref() is None and record_ref() is None
    finally:
        gc.enable()


def _flow_denoise(n_trajectories=None):
    lg = build_line_graph(generate_flow_fixture(0)[0])
    cfg = LiftingConfig.from_acronym("LG-Sid-p")
    if n_trajectories is None:
        denoise(_noisy(lg, 1), lg, cfg)
    else:
        nlt_denoise(_noisy(lg, 1), lg, cfg, n_trajectories=n_trajectories)


#: the hot paths: each plans its records through `forward`
HOT_PATHS = {
    "denoise": _flow_denoise,
    "nlt_denoise": lambda: _flow_denoise(n_trajectories=3),
    "run_experiment": lambda: run_experiment(
        ExperimentConfig(n_vertices=20, n_graphs=2, n_replications=3)),
    "flow_experiment": lambda: flow_experiment(1.0, n_replications=2),
    "flow_experiment_nlt": lambda: flow_experiment(1.0, n_replications=2, nlt_trajectories=2),
    "condition_number_study": lambda: condition_number_study("LG-Aid-c", 2, 20),
}


@pytest.mark.parametrize("path", list(HOT_PATHS))
def test_hot_paths_never_build_the_stages_view(monkeypatch, path):
    records = []

    def caught(*args, **kwargs):
        out = forward(*args, **kwargs)
        records.append(out[1])
        return out

    for module in (analysis, shrinkage):
        monkeypatch.setattr(module, "forward", caught)
    HOT_PATHS[path]()
    built = sum("stages" in vars(r) for r in records)
    assert records and not built, f"{built} of {len(records)} records built their stages view"


@pytest.mark.parametrize("path", list(HOT_PATHS))
def test_hot_paths_build_no_coefficient_or_estimate_dicts(monkeypatch, path):
    # the id-keyed views are for callers at the edges; reading one raises here
    def refuse(self):
        raise AssertionError("built an id-keyed coefficient or estimate dict")

    for cls, names in ((CoefficientSet, ("details", "scaling")),
                       (DenoiseResult, ("estimates", "shrunk_details"))):
        for name in names:
            monkeypatch.setattr(cls, name, property(refuse))
    HOT_PATHS[path]()
