"""The input contract of the public API: bad input fails with a categorized
error and never gives wrong numbers.

`test_contract_table` feeds every count, seed and float parameter of every
function and class exported by `lglift/__init__.py` a float, a bool and a
negative value (counts and seeds) or NaN, +-inf and a bool (floats).  Each
call raises its module's error category, or is listed in the table as
accepted on purpose, with the reason.  `test_signal_must_be_real_numbers`
feeds the signals that `lifting._checked` reads values that are not finite
real numbers, `test_details_must_be_real_numbers` feeds the details it reads
for the shrinkage functions values that are not real numbers, and
`test_bool_inside_a_container_rejected` puts a bool among the numbers of
the other containers of numbers a caller passes.
`test_coordinates_must_be_two_finite_real_numbers` feeds the readers of
a point's coordinates, `Graph`, `LineGraph` and a stations file,
coordinates that are not two finite real numbers, and
`test_lengths_must_be_one_finite_positive_real_number` feeds the readers of
an edge length, `Graph` and `LineGraph`, lengths that are not one finite,
positive real number.
`test_input_check_raises_its_category` feeds each remaining input check
one ordinary bad input and expects its category and message.
"""

import inspect
import math
import os
import re
import tempfile
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
    MetricMode,
    ShrinkageConfig,
    ShrinkageError,
    SimulationError,
    add_noise,
    build_line_graph,
    denoise,
    ebayes_threshold,
    embed_edge_average,
    estimate_sigma_mad,
    flow_experiment,
    forward,
    generate_flow_fixture,
    get_field,
    inverse,
    nlt_denoise,
    sample_network,
    sparsity_curve_single,
)
from lglift.analysis import TransformMatrices, condition_number
from lglift.cli import build_parser
from lglift.io import ParseError, parse_graph_text, serialize_line_graph
from lglift.shrinkage import weight_from_data
from lglift.simulation import compute_metrics

INTS = (2.5, True, -1)
FLOATS = (math.nan, math.inf, -math.inf, True)
NOISE_LEVELS = FLOATS + ("3", None)
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
        lambda v: ExperimentConfig(snr=v), 3.0, NOISE_LEVELS, SimulationError,
        {math.inf: NOISELESS},
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
        lambda v: add_noise({0: 1.0, 1: 2.0, 2: 4.0}, v, 0), 3.0, NOISE_LEVELS, SimulationError,
        {math.inf: NOISELESS},
    ),
    ("add_noise", "seed"): (
        lambda v: add_noise({0: 1.0, 1: 2.0, 2: 4.0}, 3.0, v), 1, INTS, SimulationError, {},
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
        lambda v: flow_experiment(v, n_replications=1), 1.0, NOISE_LEVELS, SimulationError, {},
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


LEVELS = np.arange(12) // 4
DETAIL_READERS = {
    "ebayes_threshold": lambda d: ebayes_threshold(d, 1.0, LEVELS),
    "estimate_sigma_mad": lambda d: estimate_sigma_mad(d, LEVELS),
}
BAD_DETAILS = {
    "text": (["abc"] * 12, REAL),
    "numeric text": (["1.5"] * 12, REAL),
    "complex list": ([1.0 + 2.0j] * 12, REAL),
    "complex array": (np.full(12, 1.0 + 2.0j), REAL),
    "objects": (np.array([object()] * 12), REAL),
    "three axes": (np.ones((12, 2, 3)), r"detail array \(12, 2, 3\): need \(n,\) or \(n, B\)"),
}


@pytest.mark.parametrize("reader", DETAIL_READERS)
@pytest.mark.parametrize("kind", BAD_DETAILS)
def test_details_must_be_real_numbers(reader, kind):
    # details are read by the signals' rule, with ShrinkageError, and may
    # hold NaN or inf (the shrink step's rules take those)
    values, message = BAD_DETAILS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        DETAIL_READERS[reader](np.linspace(-3.0, 3.0, 12))  # so the error below is the values'
        with pytest.raises(ShrinkageError, match=message):
            DETAIL_READERS[reader](values)


@pytest.mark.parametrize("reader", DETAIL_READERS)
def test_bool_details_read_as_numbers(reader):
    flags = np.arange(12) % 3 == 0  # 0/1, as a bool signal entry reads
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_equal(DETAIL_READERS[reader](flags),
                                DETAIL_READERS[reader](flags.astype(float)))


def test_estimate_sigma_mad_takes_one_signal():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShrinkageError, match=r"detail array \(12, 3\): need \(n,\)"):
            estimate_sigma_mad(np.ones((12, 3)), LEVELS)


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


LINKED = {"a": {"b"}, "b": {"a"}}
# the readers of a point's coordinates, each given one point `xy` among valid
# ones, and the error each raises: a stations file writes the point as text
# and wraps the GraphError of its line graph in a ParseError
COORDINATE_READERS = {
    "Graph": (
        lambda xy: list(Graph([(0, xy), (1, (2.0, 0.0))], [EdgeRec("e", 0, 1)]).coords.items()),
        GraphError,
    ),
    "LineGraph": (
        lambda xy: list(
            LineGraph(["a", "b"], LINKED, coords={"a": xy, "b": (2.0, 0.0)}).coords.items()
        ),
        GraphError,
    ),
    "stations file": (
        lambda xy: list(parse_graph_text(
            "mode stations\nstation a %s %s\nstation b 2 0\nlink a b\n" % tuple(xy)
        ).coords.items()),
        ParseError,
    ),
}
TWO_REALS = "need two real numbers"
BAD_COORDINATES = {
    "one entry": ((0.0,), TWO_REALS),
    "three entries": ((0.0, 0.0, 9.0), TWO_REALS),
    "nested": (((0.0, 1.0), 2.0), TWO_REALS),
    "a number": (1.5, TWO_REALS),
    "numeric text": (("0.5", 0.0), TWO_REALS),
    "two characters": ("12", TWO_REALS),
    "complex": ((1j, 0.0), TWO_REALS),
    "an object": ((object(), 0.0), TWO_REALS),
    "numpy bool": ((np.True_, 0.0), "bool coordinate"),
    "nan": ((math.nan, 0.0), "non-finite coordinates"),
    "inf": ((0.0, -math.inf), "non-finite coordinates"),
}


#: the bad points a line of a stations file can hold: its x and y are floats
TEXT_KINDS = ("nan", "inf")


@pytest.mark.parametrize("reader, kind", [
    pytest.param(reader, kind, id=f"{kind}-{reader}")
    for kind in BAD_COORDINATES for reader in COORDINATE_READERS
    if reader != "stations file" or kind in TEXT_KINDS
])
def test_coordinates_must_be_two_finite_real_numbers(reader, kind):
    """A coordinate of a Graph vertex, of a LineGraph vertex and of a
    station is exactly two finite real numbers."""
    xy, message = BAD_COORDINATES[kind]
    call, error = COORDINATE_READERS[reader]
    call((0.0, 0.0))  # so the error below is the coordinate's
    with pytest.raises(error, match=message):
        call(xy)


@pytest.mark.parametrize("reader", COORDINATE_READERS)
@pytest.mark.parametrize("xy", [(1, 0), (np.float32(0.5), np.int64(-1)), np.array([0.25, 0.5]), [0.5, 1.0]])
def test_coordinates_of_any_real_type_read_as_floats(reader, xy):
    call, _ = COORDINATE_READERS[reader]
    assert repr(call(xy)) == repr(call(tuple(map(float, xy))))


def test_graph_vertex_without_coordinates():
    """A Graph vertex may have no coordinates."""
    assert COORDINATE_READERS["Graph"][0](None) == [(0, None), (1, (2.0, 0.0))]


# the readers of an edge length, each given one length among valid ones; a
# Graph edge without a length takes its ends' distance, or none
LENGTH_READERS = {
    "Graph": lambda v: Graph([(0, None), (1, None)], [EdgeRec("e", 0, 1, v)]),
    "LineGraph": lambda v: LineGraph(["a", "b"], LINKED, edge_lengths={"a": v, "b": 1.0}),
}
BAD_LENGTHS = {
    "numpy bool": (np.True_, "bool length"),
    "bool": (True, "bool length"),
    "numeric text": ("1.0", "need a real number"),
    "a tuple": ((1.0,), "need a real number"),
    "complex": (1j, "need a real number"),
    "nan": (math.nan, "non-finite length"),
    "inf": (math.inf, "non-finite length"),
    "-inf": (-math.inf, "non-finite length"),
    "zero": (0.0, "non-positive length"),
    "negative": (-1.0, "non-positive length"),
    "None": (None, "need a real number"),
}


@pytest.mark.parametrize("reader, kind", [
    pytest.param(reader, kind, id=f"{kind}-{reader}")
    for kind in BAD_LENGTHS for reader in LENGTH_READERS
    if reader != "Graph" or kind != "None"
])
def test_lengths_must_be_one_finite_positive_real_number(reader, kind):
    """An edge length, given to a Graph edge or to a LineGraph vertex, is
    one finite, positive real number, not a bool."""
    value, message = BAD_LENGTHS[kind]
    LENGTH_READERS[reader](1.0)  # so the error below is the length's
    with pytest.raises(GraphError, match=message):
        LENGTH_READERS[reader](value)


# a path 0 - 1 - 2 - 3 with a leaf 4 at 2, and its line graph
TREE = [EdgeRec("u", 0, 1), EdgeRec("k", 1, 2), EdgeRec("x", 2, 3), EdgeRec("v", 2, 4)]
TREE_LG = {"u": {"k"}, "k": {"u", "x", "v"}, "x": {"k", "v"}, "v": {"k", "x"}}


@pytest.mark.parametrize("lengths", [
    pytest.param(list(map(np.float32, [0.1, 0.7, 0.3, 1.9])), id="float32"),
    pytest.param([1, 3, 2, 7], id="int"),
    pytest.param([np.int64(1), np.uint8(3), 2, np.float16(0.2)], id="mixed"),
])
@pytest.mark.parametrize("via", ["Graph", "LineGraph"])
def test_lengths_of_any_real_type_read_as_floats(lengths, via):
    """Path-metric rows are Python floats, bitwise those of the lengths
    read as floats: two float32 lengths kept as they are would average in
    float32."""
    def rows(given):
        if via == "Graph":
            edges = [EdgeRec(e.id, e.u, e.v, length) for e, length in zip(TREE, given)]
            lg = build_line_graph(Graph([(i, None) for i in range(5)], edges))
        else:
            lg = LineGraph(list(TREE_LG), TREE_LG, edge_lengths=dict(zip(TREE_LG, given)))
        return lg.metric_rows(MetricMode.PATH_LENGTH)[0]

    got, want = rows(lengths), rows([float(length) for length in lengths])
    assert all(type(w) is float for row in got for w in row.values())
    assert [{s: w.hex() for s, w in row.items()} for row in got] == \
        [{s: w.hex() for s, w in row.items()} for row in want]


GRAPH_HEAD = "mode graph\nvertex 1 0 0\nvertex 2 1 0\nvertex 3 2 1\n"
STATIONS = "mode stations\nstation a 0 0\nstation b 1 0\n"


def _cli(command, text):
    """Run subcommand `command` on an input file holding `text`, raising the
    error that `main` would print with its category."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.graph")
        with open(path, "w") as fh:
            fh.write(text)
        args = build_parser().parse_args([command, path, "-o", os.path.join(tmp, "out")])
        args.func(args)


def _trajectory_with_unknown_id():
    order = list(RECORD.removal_order)
    order[0] = "zz"
    return forward(SIGNAL, LG, LiftingConfig(), trajectory=order)


# name: (call, error, message)
CHECKS = {
    "parse: key without value": (
        lambda: parse_graph_text(GRAPH_HEAD + "edge e1 1 2 foo\n"),
        ParseError, "line 5: expected key=value, got 'foo'",
    ),
    "parse: unknown attribute": (
        lambda: parse_graph_text(GRAPH_HEAD + "edge e1 1 2 colour=3\n"),
        ParseError, "line 5: unknown attribute 'colour'",
    ),
    "parse: second mode line": (
        lambda: parse_graph_text("mode graph\nmode graph\n"),
        ParseError, "line 2: duplicate mode declaration",
    ),
    "parse: unknown mode": (
        lambda: parse_graph_text("mode lattice\n"),
        ParseError, "line 1: mode must be 'graph' or 'stations'",
    ),
    "parse: short edge": (
        lambda: parse_graph_text(GRAPH_HEAD + "edge e1 1\n"),
        ParseError, r"line 5: edge takes id u v \[length=\] \[value=\]",
    ),
    "parse: short station": (
        lambda: parse_graph_text("mode stations\nstation s 1\n"),
        ParseError, r"line 2: station takes id x y \[value=\]",
    ),
    "parse: short link": (
        lambda: parse_graph_text(STATIONS + "link a\n"),
        ParseError, "line 4: link takes two station ids",
    ),
    "parse: unknown directive": (
        lambda: parse_graph_text("mode graph\nbogus 1\n"),
        ParseError, "line 2: unknown directive 'bogus'",
    ),
    "parse: only comments": (
        lambda: parse_graph_text("# nothing\n\n# here\n"),
        ParseError, "line 1: missing 'mode graph' or 'mode stations' declaration",
    ),
    "parse: link to an unknown station": (
        lambda: parse_graph_text(STATIONS + "link a zz\n"),
        ParseError, "link references unknown station 'a' or 'zz'",
    ),
    "serialize a line graph without coordinates": (
        lambda: serialize_line_graph(LineGraph(LG.ids, ADJACENCY)),
        GraphError, "stations mode requires coordinates on every vertex",
    ),
    "cli: denoise without values": (
        lambda: _cli("denoise", GRAPH_HEAD + "edge e1 1 2\nedge e2 2 3\nedge e3 3 1\n"),
        ParseError, "input file must carry a value on every edge/station",
    ),
    "cli: linegraph of a stations file": (
        lambda: _cli("linegraph", STATIONS + "link a b\n"),
        ParseError, "linegraph expects a graph-mode file",
    ),
    "Graph: duplicate edge id": (
        lambda: Graph([(1, None), (2, None)], [EdgeRec("e", 1, 2, 1.0), EdgeRec("e", 2, 1, 1.0)]),
        GraphError, "duplicate edge id 'e'",
    ),
    "forward: trajectory with an unknown id": (
        _trajectory_with_unknown_id,
        LiftingError, r"trajectory references unknown ids \['zz'\]",
    ),
    "ShrinkageConfig: unknown rule": (
        lambda: ShrinkageConfig(rule="soft"),
        ShrinkageError, "unknown shrinkage rule 'soft'",
    ),
    "weight_from_data: no coefficients": (
        lambda: weight_from_data(np.empty(0)),
        ShrinkageError, "cannot fit mixing weight to zero coefficients",
    ),
    "ebayes_threshold: keep_coarsest at the level count": (
        lambda: ebayes_threshold(
            np.ones(4), 1.0, np.array([0, 0, 1, 1]), ShrinkageConfig(keep_coarsest=2)
        ),
        ShrinkageError, "keep_coarsest=2 must be below 2 levels",
    ),
    "condition_number: singular matrix": (
        lambda: condition_number(TransformMatrices(np.zeros((N, N)), RECORD)),
        LiftingError, "transform not invertible",
    ),
    "compute_metrics: mismatched shapes": (
        lambda: compute_metrics(np.zeros((2, 3, 4)), np.zeros((2, 5))),
        SimulationError, r"grid shapes mismatched: \(2, 3, 4\) vs \(2, 5\)",
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_input_check_raises_its_category(name):
    """Each input check that an ordinary bad input reaches raises its
    module's error category with its own message."""
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=message):
        call()
