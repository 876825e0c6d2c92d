import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglift.cli import build_parser, main
from lglift.graph import Graph, LineGraph, build_line_graph
from lglift.io import (
    ParseError,
    parse_graph,
    parse_graph_text,
    read_transform,
    record_from_dict,
    record_to_dict,
    serialize_graph,
    serialize_line_graph,
    write_transform,
)
from lglift.lifting import LiftingConfig, forward, inverse
from lglift.simulation import sample_network

MINIMAL = """\
mode graph
vertex 1 0 0
vertex 2 1 0
vertex 3 0.5 1
edge e1 1 2
edge e2 2 3 length=1.25
edge e3 1 3 value=4.5
"""

STATIONS = """\
mode stations
station s1 0 0 value=1
station s2 1 0 value=2
station s3 2 0 value=3
link s1 s2
link s2 s3
"""

#: a station whose y is infinite, and an edge whose length is infinite: the
#: transform used to divide by zero on them
INF_STATION = """\
mode stations
station a 0 0 value=1
station b 1 0 value=2
station c 2 1 value=3
station d 3 inf value=4
link a b
link b c
link c d
link a c
"""

INF_LENGTH = """\
mode graph
vertex 1 0 0
vertex 2 1 0
vertex 3 2 0
vertex 4 3 0
edge e1 1 2 value=1
edge e2 2 3 value=2 length=inf
edge e3 3 4 value=3
"""


#: finite inputs whose distances overflow: stations at x = -1e308 and 1e308
#: (the coordinate extent is inf) and a path of 1e308-long edges (the mean
#: of two lengths is inf); both used to end in a division by zero
HUGE_STATION = """\
mode stations
station a -1e308 0 value=1
station b 1 0 value=2
station c 2 1 value=3
station d 1e308 4 value=4
link a b
link b c
link c d
link a c
"""

HUGE_LENGTH = """\
mode graph
vertex 1 0 0
vertex 2 1 0
vertex 3 2 0
vertex 4 3 0
edge e1 1 2 value=1 length=1e308
edge e2 2 3 value=2 length=1e308
edge e3 3 4 value=3 length=1e308
"""


class TestParse:
    @pytest.mark.parametrize(
        "text, message",
        [(INF_STATION, r"non-finite coordinates at new vertices \['d'\]"),
         (INF_LENGTH, "edge 'e2' has non-finite length inf")],
        ids=["inf-station", "inf-length"],
    )
    def test_non_finite_input_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_graph_text(text)

    def test_minimal_graph(self):
        g = parse_graph_text(MINIMAL)
        assert isinstance(g, Graph)
        assert g.n == 3 and g.m == 3
        assert g.edge_by_id["e2"].length == 1.25
        assert g.edge_by_id["e3"].value == 4.5

    def test_round_trip_identical(self):
        g = parse_graph_text(MINIMAL)
        again = parse_graph_text(serialize_graph(g))
        assert serialize_graph(again) == serialize_graph(g)

    def test_stations_mode(self):
        lg = parse_graph_text(STATIONS)
        assert isinstance(lg, LineGraph)
        assert lg.m == 3
        assert lg.values == {"s1": 1.0, "s2": 2.0, "s3": 3.0}

    def test_duplicate_station_rejected(self):
        with pytest.raises(ParseError, match="duplicate line-graph id 's2'"):
            parse_graph_text(STATIONS + "station s2 3 0 value=4\n")

    def test_stations_round_trip(self):
        lg = parse_graph_text(STATIONS)
        text = serialize_line_graph(lg)
        again = parse_graph_text(text)
        assert serialize_line_graph(again) == text

    def test_sixty_stations(self):
        lines = ["mode stations"]
        lines += [f"station s{i} {i} 0" for i in range(60)]
        lines += [f"link s{i} s{i+1}" for i in range(59)]
        lg = parse_graph_text("\n".join(lines))
        assert lg.m == 60

    def test_unknown_vertex_names_line(self):
        bad = MINIMAL.replace("edge e1 1 2", "edge e1 1 9")
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_graph_text(bad)

    def test_malformed_row_has_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph_text("mode graph\nvertex 1 0 0\nvertex\n")

    def test_missing_mode(self):
        with pytest.raises(ParseError, match="mode"):
            parse_graph_text("vertex 1 0 0\n")

    def test_numeric_round_trip_17_digits(self):
        v = 0.1234567891234567
        text = f"mode graph\nvertex 1 {v!r} 0\nvertex 2 1 0\nvertex 3 2 0\n"
        text += "edge a 1 2\nedge b 2 3\n"
        g = parse_graph_text(serialize_graph(parse_graph_text(text)))
        assert g.coords[1][0] == v

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n" + MINIMAL + "# trailing\n"
        assert parse_graph_text(text).m == 3


class TestTransformSerialization:
    def test_record_dict_round_trip(self, small_tree_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Snw-p", rng_seed=4)
        values = {k: float(v) for k, v in zip(small_tree_lg.ids, rng.normal(size=small_tree_lg.m))}
        _, record = forward(values, small_tree_lg, cfg)
        back = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
        assert back.removal_order == record.removal_order
        assert back.config == record.config
        assert back.stages == record.stages

    def test_inverse_from_files(self, tmp_path, small_tree_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = {k: float(v) for k, v in zip(small_tree_lg.ids, rng.normal(size=small_tree_lg.m))}
        coeffs, record = forward(values, small_tree_lg, cfg)
        prefix = str(tmp_path / "t")
        write_transform(prefix, coeffs, record)
        coeffs2, record2 = read_transform(prefix)
        rec = inverse(coeffs2, record2)
        for k, v in values.items():
            assert rec[k] == pytest.approx(v, abs=1e-12)


    def test_reads_files_with_string_ids_and_edges_removed(self, small_tree_lg):
        # the format before ids were JSON-native: every id a string, an
        # "id_kind", and each stage's incident edges listed
        _, record = forward(dict.fromkeys(small_tree_lg.ids, 0.0), small_tree_lg,
                            LiftingConfig.from_acronym("LG-Sid-p"))
        d = record_to_dict(record)
        d["ids"], d["id_kind"] = [str(k) for k in d["ids"]], "int"
        for s in d["stages"]:
            s["edges_removed"] = [[s["removed"], j] for j in s["neighbors"]]
        assert record_from_dict(json.loads(json.dumps(d))) == record

    def test_garbled_scale_and_level_cells_still_invert(self, tmp_path, mst_lg, rng):
        # scale and level are written for the reader; only values are read
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        coeffs, record = forward(values, mst_lg, LiftingConfig.from_acronym("LG-Sid-p"))
        prefix = str(tmp_path / "t")
        write_transform(prefix, coeffs, record)
        path = tmp_path / "t.coeffs.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][4] != ""
        rows[1][3], rows[1][4], rows[2][3], rows[2][4] = "abc", "nan", "", "1.5"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        coeffs2, record2 = read_transform(prefix)
        assert coeffs2 == coeffs
        assert inverse(coeffs2, record2) == inverse(coeffs, record)

    @pytest.mark.parametrize("key, count, message", [
        ("initial_integrals", 3, "3 initial and 2 final integrals for 29 ids and 2 survivors"),
        ("final_integrals", 1, "29 initial and 1 final integrals for 29 ids and 2 survivors"),
    ])
    def test_integral_lists_must_match_their_ids(self, key, count, message):
        lg = build_line_graph(sample_network(30, seed=2))
        _, record = forward(dict.fromkeys(lg.ids, 0.0), lg, LiftingConfig.from_acronym("LG-Sid-p"))
        d = record_to_dict(record)
        assert record_from_dict(d) == record
        d[key] = d[key][:count]
        with pytest.raises(ParseError, match=message):
            record_from_dict(d)

    def test_survivors_in_any_order_keep_their_labels(self, tmp_path, mst_lg, rng):
        # a file may list the survivors, and their final integrals, in any
        # order; the record keeps its own, so labels and files do not move
        values = dict(zip(mst_lg.ids, rng.normal(size=mst_lg.m).tolist()))
        coeffs, record = forward(values, mst_lg, LiftingConfig.from_acronym("LG-Sid-p", tau=5))
        write_transform(str(tmp_path / "t"), coeffs, record)
        files = {s: (tmp_path / f"t.{s}").read_bytes() for s in ("record.json", "coeffs.csv")}
        d = json.loads(files["record.json"])
        assert d["surviving"] == sorted(d["surviving"])
        d["surviving"].reverse()
        d["final_integrals"].reverse()
        (tmp_path / "t.record.json").write_text(json.dumps(d))
        coeffs2, record2 = read_transform(str(tmp_path / "t"))
        assert record2.surviving == record.surviving
        assert record2.final_integrals == record.final_integrals
        assert dict(coeffs2.scaling) == dict(coeffs.scaling)
        assert coeffs2.vector.tobytes() == coeffs.vector.tobytes()
        write_transform(str(tmp_path / "u"), coeffs2, record2)
        assert {s: (tmp_path / f"u.{s}").read_bytes() for s in files} == files

    def test_ids_sharing_a_text_form_rejected(self, tmp_path):
        ids = [1, "1", "a", "b"]
        lg = LineGraph(ids, {1: {"1"}, "1": {1, "a"}, "a": {"1", "b"}, "b": {"a"}},
                       coords={k: (float(i), 0.0) for i, k in enumerate(ids)})
        coeffs, record = forward(dict.fromkeys(ids, 1.0), lg, LiftingConfig.from_acronym("LG-Sid-c"))
        prefix = str(tmp_path / "t")
        write_transform(prefix, coeffs, record)
        with pytest.raises(ParseError, match="text form"):
            read_transform(prefix)


@settings(max_examples=30, deadline=None)
@given(
    ids=st.lists(
        st.one_of(st.integers(-20, 20), st.text("ab1-", min_size=1, max_size=3)),
        min_size=4, max_size=12, unique_by=str,
    ),
    seed=st.integers(0, 1000),
)
def test_mixed_id_transform_round_trip(ids, seed):
    """Int and string ids, including strings that look like ints, come
    back from the record and coefficient files as they went in."""
    adjacency = {k: set() for k in ids}
    for k, l in zip(ids, ids[1:]):
        adjacency[k].add(l)
        adjacency[l].add(k)
    lg = LineGraph(ids, adjacency, coords={k: (float(i), float(i % 2)) for i, k in enumerate(ids)})
    values = dict(zip(ids, np.random.default_rng(seed).normal(size=len(ids)).tolist()))
    coeffs, record = forward(values, lg, LiftingConfig.from_acronym("LG-Aid-c", rng_seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "t")
        write_transform(prefix, coeffs, record)
        coeffs2, record2 = read_transform(prefix)
    assert record2 == record
    assert [type(k) for k in record2.ids] == [type(k) for k in ids]
    assert coeffs2.details == coeffs.details and coeffs2.scaling == coeffs.scaling


@pytest.fixture
def graph_file(tmp_path):
    g = sample_network(20, seed=6)
    rng = np.random.default_rng(0)
    from lglift.graph import EdgeRec

    edges = [
        EdgeRec(e.id, e.u, e.v, e.length, float(v))
        for e, v in zip(g.edges, rng.normal(size=g.m))
    ]
    g = Graph([(v, c) for v, c in g.coords.items()], edges)
    path = tmp_path / "net.graph"
    path.write_text(serialize_graph(g))
    return path


class TestCli:
    def test_linegraph_command(self, tmp_path, graph_file):
        out = tmp_path / "lg.stations"
        assert main(["linegraph", str(graph_file), "-o", str(out)]) == 0
        lg = parse_graph(str(out))
        assert isinstance(lg, LineGraph) and lg.m == 19

    def test_forward_inverse_round_trip(self, tmp_path, graph_file):
        prefix = str(tmp_path / "fw")
        assert main(["forward", str(graph_file), "--variant", "LG-Sid-c", "-o", prefix]) == 0
        out = tmp_path / "rec.csv"
        assert main(["inverse", prefix, "-o", str(out)]) == 0
        with open(out) as fh:
            rows = {r["id"]: float(r["value"]) for r in csv.DictReader(fh)}
        g = parse_graph(str(graph_file))
        for e in g.edges:
            assert rows[str(e.id)] == pytest.approx(e.value, abs=1e-10)

    def test_denoise_command(self, tmp_path, graph_file):
        out = tmp_path / "den.csv"
        assert main(["denoise", str(graph_file), "-o", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 19
        manifest = json.loads((tmp_path / "den.csv.manifest.json").read_text())
        assert "sigma_hat" in manifest

    def test_nlt_command(self, tmp_path, graph_file):
        out = tmp_path / "nlt.csv"
        code = main(
            ["nlt", str(graph_file), "--trajectories", "3", "--seed", "1", "-o", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_shrink_manifests_record_weight_and_zero_frac(self, tmp_path, graph_file):
        for cmd in (["denoise"], ["nlt", "--trajectories", "2"]):
            out = tmp_path / f"{cmd[0]}.csv"
            assert main([*cmd, str(graph_file), "-o", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{cmd[0]}.csv.manifest.json").read_text())
            assert {"sigma_hat", "nu_hat", "zero_frac", "mad_pool_level"} <= manifest.keys()
            assert manifest["sigma_hat"] > 0 and 0.0 <= manifest["zero_frac"] <= 1.0
            assert manifest["mad_pool_level"] == 0

    def test_shrink_manifests_record_fallback_frac(self, tmp_path, graph_file):
        for cmd in (["denoise"], ["nlt", "--trajectories", "2"]):
            out = tmp_path / f"{cmd[0]}.csv"
            assert main([*cmd, str(graph_file), "-o", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{cmd[0]}.csv.manifest.json").read_text())
            assert manifest["fallback_frac"] == 0.0

    def test_condnum_command(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code = main(
            ["condnum", "--variant", "LG-Dnw-c", "--graphs", "4", "--vertices", "20",
             "-o", str(out)]
        )
        assert code == 0
        assert "median" in capsys.readouterr().out
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_condnum_quartiles_ordered(self, tmp_path, capsys):
        out = str(tmp_path / "k.csv")
        assert main(["condnum", "--graphs", "2", "--vertices", "20", "-o", out]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        stats = dict(part.split("=") for part in line.split())
        order = [float(stats[k]) for k in ("min", "25%", "median", "75%", "max")]
        assert order == sorted(order)

    @pytest.mark.parametrize("graphs", ["1", "0"])
    def test_condnum_needs_two_graphs(self, tmp_path, capsys, graphs):
        out = str(tmp_path / "k.csv")
        assert main(["condnum", "--graphs", graphs, "--vertices", "20", "-o", out]) == 2
        assert "error category=simulation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["condnum", "--graphs", "2", "--vertices", "20"],
            ["simulate", "--graphs", "1", "--replications", "1", "--vertices", "12"],
            ["flowsim", "--replications", "1"],
        ],
        ids=["condnum", "simulate", "flowsim"],
    )
    def test_tau_rejected_where_unused(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--tau", "50", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tau 50" in capsys.readouterr().err

    def test_sparsity_command(self, tmp_path, graph_file):
        out = tmp_path / "sp.csv"
        assert main(["sparsity", str(graph_file), "-o", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["ise"]) <= 1e-8

    def test_simulate_command(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--graphs", "1", "--replications", "1", "--vertices", "12",
             "--snr", "3", "-o", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        assert math.isfinite(float(row["amse"]))

    def test_flowsim_command(self, tmp_path):
        out = tmp_path / "flow.csv"
        fixture = tmp_path / "flow.graph"
        code = main(
            ["flowsim", "--sigma", "1", "--replications", "2",
             "--fixture-out", str(fixture), "-o", str(out)]
        )
        assert code == 0
        g = parse_graph(str(fixture))
        assert g.m == 79

    @pytest.mark.parametrize("option", [["--sigma", "-1"], ["--replications", "0"]])
    def test_flowsim_rejects_bad_input(self, tmp_path, capsys, option):
        assert main(["flowsim", *option, "-o", str(tmp_path / "flow.csv")]) == 2
        assert "error category=simulation" in capsys.readouterr().err

    def test_unknown_variant_lists_options(self, tmp_path, graph_file, capsys):
        code = main(["forward", str(graph_file), "--variant", "LG-Zid-c", "-o", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error category=lifting" in err and "LG-Aid-c" in err

    def test_every_subcommand_writes_its_manifest(self, tmp_path, graph_file):
        g, o = str(graph_file), str(tmp_path)
        runs = {
            "linegraph": [g, "-o", f"{o}/lg.st"],
            "forward": [g, "-o", f"{o}/fw"],
            "inverse": [f"{o}/fw", "-o", f"{o}/inv.csv"],
            "denoise": [g, "-o", f"{o}/den.csv"],
            "nlt": [g, "--trajectories", "2", "-o", f"{o}/nlt.csv"],
            "condnum": ["--graphs", "2", "--vertices", "20", "-o", f"{o}/k.csv"],
            "sparsity": [g, "-o", f"{o}/sp.csv"],
            "simulate": ["--graphs", "1", "--replications", "1", "--vertices", "12",
                         "-o", f"{o}/sim.csv"],
            "flowsim": ["--replications", "1", "-o", f"{o}/flow.csv"],
        }
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        assert set(runs) == set(commands)
        for command, argv in runs.items():
            assert main([command, *argv]) == 0
            out = argv[-1]
            manifest = json.loads(open(out + ".manifest.json").read())
            assert manifest["command"] == command
            assert manifest["args"]["command"] == command and manifest["args"]["output"] == out
            assert "func" not in manifest["args"]

    @pytest.mark.parametrize("argv", [
        ["inverse", "missing", "-o"],
        ["condnum", "--graphs", "1", "--vertices", "20", "-o"],
        ["flowsim", "--sigma", "-1", "-o"],
    ], ids=["inverse", "condnum", "flowsim"])
    def test_failed_run_writes_no_manifest(self, tmp_path, capsys, argv):
        out = str(tmp_path / "x.csv")
        assert main([*argv, out]) == 2
        assert "error category=" in capsys.readouterr().err
        assert not os.path.exists(out + ".manifest.json")

    @pytest.mark.parametrize("variant", ["LG-Sidxp", "Sid-p"])
    def test_near_miss_variant_rejected(self, tmp_path, graph_file, capsys, variant):
        out = str(tmp_path / "x")
        assert main(["forward", str(graph_file), "--variant", variant, "-o", out]) == 2
        assert "error category=lifting" in capsys.readouterr().err
        assert not os.path.exists(out + ".manifest.json")

    @pytest.mark.parametrize("command", ["forward", "nlt", "simulate", "flowsim"])
    def test_negative_seed_rejected(self, tmp_path, graph_file, capsys, command):
        args = {
            "forward": [str(graph_file)],
            "nlt": [str(graph_file), "--trajectories", "2"],
            "simulate": ["--graphs", "1", "--replications", "1", "--vertices", "12"],
            "flowsim": ["--replications", "1"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--seed", "-1", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    def test_bad_seed_environment_rejected(self, tmp_path, graph_file, capsys, monkeypatch):
        monkeypatch.setenv("LGLIFT_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["forward", str(graph_file), "-o", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "got 'abc'" in capsys.readouterr().err
        monkeypatch.setenv("LGLIFT_SEED", "3")
        assert main(["forward", str(graph_file), "-o", str(tmp_path / "y")]) == 0
        assert json.loads((tmp_path / "y.manifest.json").read_text())["args"]["seed"] == 3

    def test_missing_file_error(self, tmp_path, capsys):
        code = main(["forward", str(tmp_path / "nope.graph"), "-o", str(tmp_path / "x")])
        assert code == 2
        assert "error category=io" in capsys.readouterr().err

    def test_parse_error_category(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("mode graph\nvertex 1 zero zero\n")
        code = main(["forward", str(bad), "-o", str(tmp_path / "x")])
        assert code == 2
        assert "error category=parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, variant",
        [(INF_STATION, "LG-Aid-c"), (INF_LENGTH, "LG-Sid-p")],
        ids=["inf-station", "inf-length"],
    )
    @pytest.mark.parametrize("command", ["forward", "denoise"])
    def test_non_finite_input_is_a_parse_error(self, tmp_path, capsys, text, variant, command):
        bad = tmp_path / "inf.graph"
        bad.write_text(text)
        code = main([command, str(bad), "--variant", variant, "-o", str(tmp_path / "x")])
        assert code == 2
        assert "error category=parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, variant, named",
        [(HUGE_STATION, "LG-Aid-c", "a"), (HUGE_LENGTH, "LG-Sid-p", "e1")],
        ids=["huge-station", "huge-length"],
    )
    @pytest.mark.parametrize("command", ["forward", "denoise"])
    def test_overflowing_metric_is_a_graph_error(
        self, tmp_path, capsys, text, variant, named, command
    ):
        bad = tmp_path / "huge.graph"
        bad.write_text(text)
        code = main([command, str(bad), "--variant", variant, "-o", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error category=graph: non-finite metric distance at new vertex '{named}'" in err

    def test_fewer_details_than_levels(self, tmp_path, graph_file, capsys):
        # m = 19 and tau = 16 leave 3 details, fewer than floor(log2 19) = 4
        # levels: the transform and its inverse run, denoising cannot
        prefix = str(tmp_path / "fw")
        args = [str(graph_file), "--variant", "LG-Sid-p", "--tau", "16"]
        assert main(["forward", *args, "-o", prefix]) == 0
        with open(prefix + ".coeffs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["level"] for r in rows if r["kind"] == "detail"] == ["", "", ""]
        out = tmp_path / "rec.csv"
        assert main(["inverse", prefix, "-o", str(out)]) == 0
        with open(out) as fh:
            back = {r["id"]: float(r["value"]) for r in csv.DictReader(fh)}
        for e in parse_graph(str(graph_file)).edges:
            assert back[str(e.id)] == pytest.approx(e.value, abs=1e-12)
        assert main(["sparsity", *args, "-o", str(tmp_path / "sp.csv")]) == 0
        capsys.readouterr()
        assert main(["denoise", *args, "-o", str(tmp_path / "den.csv")]) == 2
        assert "error category=shrinkage" in capsys.readouterr().err
        assert not (tmp_path / "den.csv").exists()

    def test_deterministic_outputs(self, tmp_path, graph_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["denoise", str(graph_file), "--seed", "3", "-o", str(out)]) == 0
        assert a.read_text() == b.read_text()


def _neighbour_removed_earlier(d):
    # a later stage that lists stage 0's removed id, which the replay
    # would read after it became a detail
    d["stages"][1]["neighbors"][0] = d["stages"][0]["removed"]


def _first_relink(edit):
    """A corruption that calls `edit(edge, stage)` on the record's first
    relink edge [u, v, distance] and its stage."""
    def corrupt(d):
        stage = next(s for s in d["stages"] if s["edges_added"])
        edit(stage["edges_added"][0], stage)
    return corrupt


#: hand edits of a record file that replay wrongly or not at all
RECORD_CORRUPTIONS = {
    "position-out-of-range": lambda d: d["stages"][0]["neighbors"].__setitem__(0, len(d["ids"])),
    "negative-position": lambda d: d["stages"][0].__setitem__("removed", -1),
    "removed-twice": lambda d: d["stages"][1].__setitem__("removed", d["stages"][0]["removed"]),
    "neighbour-is-itself": lambda d: d["stages"][0]["neighbors"].__setitem__(
        0, d["stages"][0]["removed"]),
    "neighbour-removed-earlier": _neighbour_removed_earlier,
    "a-too-short": lambda d: d["stages"][0]["a"].pop(),
    "b-too-long": lambda d: d["stages"][0]["b"].append(0.5),
    "surviving-missing-one": lambda d: d["surviving"].pop(),
    "surviving-removed-id": lambda d: d["surviving"].append(d["stages"][0]["removed"]),
    "surviving-repeated": lambda d: d["surviving"].append(d["surviving"][0]),
    "stage-without-integral": lambda d: d["stages"][0].pop("integral"),
    "no-surviving": lambda d: d.pop("surviving"),
    "bogus-integral-scheme": lambda d: d["config"].__setitem__("integral_scheme", "bogus"),
    "tau-not-a-number": lambda d: d["config"].__setitem__("tau", "x"),
    "stages-null": lambda d: d.__setitem__("stages", None),
    "filter-entry-nan": lambda d: d["stages"][0]["a"].__setitem__(0, math.nan),
    "initial-integrals-truncated": lambda d: d.__setitem__(
        "initial_integrals", d["initial_integrals"][:3]),
    "final-integral-extra": lambda d: d["final_integrals"].append(1.0),
    "initial-integral-text": lambda d: d["initial_integrals"].__setitem__(0, "1.5"),
    "final-integral-infinite": lambda d: d["final_integrals"].__setitem__(0, math.inf),
    "stage-integral-nan": lambda d: d["stages"][0].__setitem__("integral", math.nan),
    "tau-fraction": lambda d: d["config"].__setitem__("tau", 2.7),
    "stage-misnumbered": lambda d: d["stages"][0].__setitem__("stage", d["stages"][0]["stage"] + 1),
    "relink-distance-text": _first_relink(lambda e, s: e.__setitem__(2, "abc")),
    "relink-distance-zero": _first_relink(lambda e, s: e.__setitem__(2, 0.0)),
    "relink-endpoint-removed": _first_relink(lambda e, s: e.__setitem__(1, s["removed"])),
    "relink-two-items": _first_relink(lambda e, s: e.pop()),
}


@pytest.mark.parametrize("corruption", [c for c in RECORD_CORRUPTIONS if c.startswith("relink-")])
def test_corrupt_relink_edge_is_a_parse_error(corruption):
    """Each relink edge is checked when read, as a ParseError of its own."""
    lg = build_line_graph(sample_network(20, seed=6))
    _, record = forward(dict.fromkeys(lg.ids, 0.0), lg, LiftingConfig.from_acronym("LG-Sid-p"))
    d = json.loads(json.dumps(record_to_dict(record)))
    RECORD_CORRUPTIONS[corruption](d)
    with pytest.raises(ParseError, match="relink"):
        record_from_dict(d)


@pytest.mark.parametrize("corruption", list(RECORD_CORRUPTIONS))
def test_inverse_rejects_corrupt_record(tmp_path, graph_file, capsys, corruption):
    prefix = str(tmp_path / "t")
    assert main(["forward", str(graph_file), "--variant", "LG-Sid-p", "-o", prefix]) == 0
    path = tmp_path / "t.record.json"
    d = json.loads(path.read_text())
    RECORD_CORRUPTIONS[corruption](d)
    path.write_text(json.dumps(d))
    assert main(["inverse", prefix, "-o", str(tmp_path / "back.csv")]) == 2
    err = capsys.readouterr().err
    assert "error category=parse" in err and "t.record.json" in err
    assert not (tmp_path / "back.csv").exists()


def _set_first_detail(text, column=2):
    """An edit writing `text` into the first detail row's cell `column`
    (by default its value)."""
    def edit(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][column] = text
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return edit


def _repeat_first_detail(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + lines[1:]))


#: hand edits of the transform files that are not records or coefficients
FILE_CORRUPTIONS = {
    "truncated-record": ("t.record.json", lambda p: p.write_text(p.read_text()[:200])),
    "header-without-value": ("t.coeffs.csv",
                             lambda p: p.write_text(p.read_text().replace("value", "val", 1))),
    "value-not-a-number": ("t.coeffs.csv", _set_first_detail("abc")),
    "value-nan": ("t.coeffs.csv", _set_first_detail("nan")),
    "value-infinite": ("t.coeffs.csv", _set_first_detail("-inf")),
    "repeated-id": ("t.coeffs.csv", _repeat_first_detail),
    "kind-typo": ("t.coeffs.csv", _set_first_detail("typo", column=0)),
    "kind-capitalised": ("t.coeffs.csv", _set_first_detail("Scaling", column=0)),
    "kind-empty": ("t.coeffs.csv", _set_first_detail("", column=0)),
}


@pytest.mark.parametrize("corruption", list(FILE_CORRUPTIONS))
def test_inverse_rejects_corrupt_files(tmp_path, graph_file, capsys, corruption):
    prefix = str(tmp_path / "t")
    assert main(["forward", str(graph_file), "--variant", "LG-Sid-p", "-o", prefix]) == 0
    name, edit = FILE_CORRUPTIONS[corruption]
    edit(tmp_path / name)
    assert main(["inverse", prefix, "-o", str(tmp_path / "back.csv")]) == 2
    err = capsys.readouterr().err
    assert "error category=parse" in err and name in err
    assert not (tmp_path / "back.csv").exists()
