"""The input contract of the public API: bad input fails with a categorized
error and never gives wrong numbers.

`test_contract_table` feeds every count, seed and float parameter of every
function and class exported by `lglift/__init__.py` a float, a bool and a
negative value (counts and seeds) or NaN, +-inf and a bool (floats).  Each
call raises its module's error category, or is listed in the table as
accepted on purpose, with the reason.  `test_signal_must_be_real_numbers`
feeds the signals that `lifting._checked` reads values that are not finite
real numbers, and `test_bool_inside_a_container_rejected` puts a bool among
the numbers of the other containers of numbers a caller passes.
"""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

import lglift
from lglift import (
    EdgeRec,
    ExperimentConfig,
    Graph,
    GraphError,
    LiftingConfig,
    LiftingError,
    LineGraph,
    PredictionScheme,
    ShrinkageConfig,
    ShrinkageError,
    SimulationError,
    add_noise,
    assign_artificial_levels,
    build_line_graph,
    denoise,
    ebayes_threshold,
    embed_edge_average,
    flow_experiment,
    forward,
    generate_flow_fixture,
    get_field,
    inverse,
    nlt_denoise,
    predict_weights,
    sample_network,
    sparsity_curve_single,
)

INTS = (2.5, True, -1)
FLOATS = (math.nan, math.inf, -math.inf, True)
NOISELESS = "sigma = 1/SNR = 0: the noiseless run, as flow_experiment's sigma = 0"

GRAPH = sample_network(7, seed=42)
LG = build_line_graph(GRAPH)
SIGNAL = np.linspace(-1.0, 2.0, LG.m)
RECORD = forward(SIGNAL, LG, LiftingConfig())[1]


def _edge_value(value):
    """`value` on the first edge of GRAPH, transformed: an edge value is a
    signal entry, checked where the transform reads it."""
    edges = [EdgeRec(e.id, e.u, e.v, value=value if i == 0 else 1.0)
             for i, e in enumerate(GRAPH.edges)]
    lg = build_line_graph(Graph(list(GRAPH.coords.items()), edges))
    return forward(lg.values, lg, LiftingConfig())


# (export, parameter): (call(value), a valid value, bad values, error,
# {bad value: why it is accepted})
TABLE = {
    ("EdgeRec", "length"): (
        lambda v: Graph([(0, (0.0, 0.0)), (1, (1.0, 0.0))], [EdgeRec("e", 0, 1, length=v)]),
        2.0, FLOATS, GraphError, {},
    ),
    ("EdgeRec", "value"): (
        _edge_value, 2.0, FLOATS, LiftingError,
        {True: "a signal entry is a number as numpy reads it, so a bool is 1.0"},
    ),
    **{
        ("ExperimentConfig", name): (
            lambda v, name=name: ExperimentConfig(**{name: v}), 3, INTS, SimulationError, {},
        )
        for name in ("n_vertices", "n_graphs", "n_replications", "master_seed")
    },
    ("ExperimentConfig", "snr"): (
        lambda v: ExperimentConfig(snr=v), 3.0, FLOATS, SimulationError, {math.inf: NOISELESS},
    ),
    **{
        ("LiftingConfig", name): (
            lambda v, name=name: LiftingConfig(**{name: v}), 3, INTS, LiftingError, {},
        )
        for name in ("tau", "rng_seed")
    },
    ("ShrinkageConfig", "keep_coarsest"): (
        lambda v: ShrinkageConfig(keep_coarsest=v), 1, INTS, ShrinkageError, {},
    ),
    ("add_noise", "snr"): (
        lambda v: add_noise({0: 1.0, 1: 2.0, 2: 4.0}, v, 0), 3.0, FLOATS, SimulationError,
        {math.inf: NOISELESS},
    ),
    ("add_noise", "seed"): (
        lambda v: add_noise({0: 1.0, 1: 2.0, 2: 4.0}, 3.0, v), 1, INTS, SimulationError, {},
    ),
    ("assign_artificial_levels", "n_levels"): (
        lambda v: assign_artificial_levels(RECORD, v), 3, INTS, LiftingError, {},
    ),
    ("ebayes_threshold", "sigma"): (
        lambda v: ebayes_threshold(np.linspace(-3.0, 3.0, 6), v, np.zeros(6, dtype=int),
                                   ShrinkageConfig(keep_coarsest=0)),
        1.0, FLOATS, ShrinkageError, {},
    ),
    ("embed_edge_average", "n_samples"): (
        lambda v: embed_edge_average(get_field("quadrants"), GRAPH, v), 2, INTS,
        SimulationError, {},
    ),
    ("flow_experiment", "sigma"): (
        lambda v: flow_experiment(v, n_replications=1), 1.0, FLOATS, SimulationError, {},
    ),
    **{
        ("flow_experiment", name): (
            lambda v, name=name: flow_experiment(**{"sigma": 1.0, "n_replications": 1, name: v}),
            1, INTS, SimulationError, {},
        )
        for name in ("n_replications", "seed", "nlt_trajectories")
    },
    ("generate_flow_fixture", "seed"): (generate_flow_fixture, 1, INTS, SimulationError, {}),
    **{
        ("nlt_denoise", name): (
            lambda v, name=name: nlt_denoise(
                SIGNAL, LG, LiftingConfig(), **{"n_trajectories": 1, name: v}
            ),
            1, INTS, ShrinkageError, {},
        )
        for name in ("n_trajectories", "seed")
    },
    **{
        ("sample_network", name): (
            lambda v, name=name: sample_network(**{"n": 5, "seed": 0, name: v}),
            5, INTS, SimulationError, {},
        )
        for name in ("n", "seed")
    },
}

#: exports whose int and float fields are results the library builds, not inputs
RESULTS = {"DenoiseResult", "LiftingStage", "MetricsReport"}


def _scalar_parameters():
    """(export, parameter) for each parameter of a public function or class
    annotated as an int or a float, alone or in a union."""
    found = set()
    for name in dir(lglift):
        obj = getattr(lglift, name)
        if name.startswith("_") or name in RESULTS or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # enums and exceptions
            continue
        for p in parameters:
            kinds = re.sub(r"^Optional\[(.*)\]$", r"\1", str(p.annotation)).split("|")
            if {"int", "float"} & {k.strip() for k in kinds}:
                found.add((name, p.name))
    return found


def test_table_lists_every_exported_count_seed_and_float():
    assert set(TABLE) == _scalar_parameters()


CASES = [
    pytest.param(key, value, id=f"{key[0]}.{key[1]}={value!r}")
    for key, (_, _, bad, _, _) in TABLE.items()
    for value in bad
]


@pytest.mark.parametrize("key, value", CASES)
def test_contract_table(key, value):
    call, valid, _, error, accepted = TABLE[key]
    call(valid)  # so the error below is the bad value's
    if value in accepted:
        call(value)
    else:
        with pytest.raises(error):
            call(value)


N = LG.m
FINITE = "non-finite (value|coefficient) at"
REAL = "must be an array of real numbers"
BAD_SIGNALS = {
    "text": (["abc"] * N, REAL),
    "ragged": ([[1.0, 2.0]] * (N - 1) + [[1.0]], REAL),
    "complex list": ([1.0 + 2.0j] * N, REAL),
    "complex array": (np.full(N, 1.0 + 2.0j), REAL),
    "objects": ([object()] * N, REAL),
    **{repr(v): ([1.0] * (N - 1) + [v], FINITE) for v in (math.nan, math.inf, -math.inf)},
}
ENTRY_POINTS = {
    "forward by id": lambda v: forward(dict(zip(LG.ids, v)), LG, LiftingConfig()),
    "forward": lambda v: forward(v, LG, LiftingConfig()),
    "inverse": lambda v: inverse(v, RECORD),
    "denoise": lambda v: denoise(v, LG, LiftingConfig()),
    "nlt_denoise": lambda v: nlt_denoise(v, LG, LiftingConfig(), n_trajectories=2),
    "sparsity_curve_single": lambda v: sparsity_curve_single(v, LG, LiftingConfig()),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", BAD_SIGNALS)
def test_signal_must_be_real_numbers(entry, kind):
    # a complex array was once transformed as its real parts, with only a
    # ComplexWarning, so warnings are errors here
    values, message = BAD_SIGNALS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LiftingError, match=message):
            ENTRY_POINTS[entry](values)


ADJACENCY = {k: {LG.ids[s] for s in row} for k, row in zip(LG.ids, LG.rows)}


def _with_first(values, value):
    """`values` by line-graph id, the first one swapped for `value`."""
    return {k: value if k == LG.ids[0] else v for k, v in values.items()}


# where: (call(value), a valid value, error); each call puts the value
# among valid numbers of one container
CONTAINERS = {
    "Graph vertex coordinate": (
        lambda v: Graph([(0, (v, 0.0)), (1, (2.0, 0.0))], [EdgeRec("e", 0, 1)]),
        1.0, GraphError,
    ),
    "LineGraph coordinates": (
        lambda v: LineGraph(LG.ids, ADJACENCY, coords=_with_first(LG.coords, (0.5, v))),
        0.5, GraphError,
    ),
    "LineGraph edge lengths": (
        lambda v: LineGraph(LG.ids, ADJACENCY, edge_lengths=_with_first(LG.edge_lengths, v)),
        1.0, GraphError,
    ),
    "predict_weights distances": (
        lambda v: predict_weights([v, 2.0], PredictionScheme.INVERSE_DISTANCE),
        1.0, LiftingError,
    ),
    "forward initial_integrals": (
        lambda v: forward(SIGNAL, LG, LiftingConfig(),
                          initial_integrals=_with_first(dict.fromkeys(LG.ids, 1.0), v)),
        1.0, LiftingError,
    ),
}


@pytest.mark.parametrize("where", CONTAINERS)
@pytest.mark.parametrize("flag", [True, False])
def test_bool_inside_a_container_rejected(where, flag):
    """A bool among the numbers of a container is rejected with the
    module's error category, not read as 1.0 or 0.0."""
    call, valid, error = CONTAINERS[where]
    call(valid)  # so the error below is the bool's
    with pytest.raises(error, match="bool|degenerate distance"):
        call(flag)
