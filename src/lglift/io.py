"""File formats: graph files, transform serialization, run manifests.

The graph file is a line-oriented text format with two modes.  `graph`
mode declares source vertices and edges; `stations` mode declares the
transform-domain vertices directly (monitoring stations with their own
coordinates) plus adjacency links, bypassing the line-graph construction.
Numeric fields round-trip bit-exactly at 17 significant digits.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Dict, List, Optional, Set, Tuple, Union

from .graph import EdgeRec, Graph, GraphError, Id, LineGraph
from .lifting import CoefficientSet, LiftingConfig, LiftingRecord


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_id(token: str) -> Id:
    try:
        return int(token)
    except ValueError:
        return token


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what} {token!r}") from None


def _split_kv(tokens: List[str], lineno: int, allowed: Set[str]) -> Dict[str, float]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"line {lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in allowed:
            raise ParseError(f"line {lineno}: unknown attribute {key!r}")
        out[key] = _parse_float(val, lineno, key)
    return out


#: the mode each directive belongs to
_DIRECTIVE_MODE = {"vertex": "graph", "edge": "graph", "station": "stations", "link": "stations"}


def parse_graph_text(text: str) -> Union[Graph, LineGraph]:
    """Parse a graph file; the `mode` line selects the returned type."""
    mode: Optional[str] = None
    vertices: List[Tuple[Id, Optional[Tuple[float, float]]]] = []
    edges: List[EdgeRec] = []
    stations: List[Tuple[Id, Tuple[float, float], Optional[float]]] = []
    links: List[Tuple[Id, Id]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if _DIRECTIVE_MODE.get(kind, mode) != mode:
            raise ParseError(f"line {lineno}: {kind!r} outside {_DIRECTIVE_MODE[kind]} mode")
        if kind == "mode":
            if mode is not None:
                raise ParseError(f"line {lineno}: duplicate mode declaration")
            if len(tokens) != 2 or tokens[1] not in ("graph", "stations"):
                raise ParseError(f"line {lineno}: mode must be 'graph' or 'stations'")
            mode = tokens[1]
        elif kind == "vertex":
            if len(tokens) not in (2, 4):
                raise ParseError(f"line {lineno}: vertex takes id or id x y")
            coord = None
            if len(tokens) == 4:
                coord = (
                    _parse_float(tokens[2], lineno, "x"),
                    _parse_float(tokens[3], lineno, "y"),
                )
            vertices.append((_parse_id(tokens[1]), coord))
        elif kind == "edge":
            if len(tokens) < 4:
                raise ParseError(f"line {lineno}: edge takes id u v [length=] [value=]")
            attrs = _split_kv(tokens[4:], lineno, {"length", "value"})
            edges.append(
                EdgeRec(
                    id=_parse_id(tokens[1]),
                    u=_parse_id(tokens[2]),
                    v=_parse_id(tokens[3]),
                    length=attrs.get("length"),
                    value=attrs.get("value"),
                )
            )
        elif kind == "station":
            if len(tokens) < 4:
                raise ParseError(f"line {lineno}: station takes id x y [value=]")
            attrs = _split_kv(tokens[4:], lineno, {"value"})
            stations.append(
                (
                    _parse_id(tokens[1]),
                    (
                        _parse_float(tokens[2], lineno, "x"),
                        _parse_float(tokens[3], lineno, "y"),
                    ),
                    attrs.get("value"),
                )
            )
        elif kind == "link":
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: link takes two station ids")
            links.append((_parse_id(tokens[1]), _parse_id(tokens[2])))
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")

    if mode is None:
        raise ParseError("line 1: missing 'mode graph' or 'mode stations' declaration")
    try:
        if mode == "graph":
            return Graph(vertices, edges)
        ids = [s[0] for s in stations]
        known = set(ids)  # a duplicate id is LineGraph's GraphError
        adjacency: Dict[Id, Set[Id]] = {k: set() for k in ids}
        for a, b in links:
            if a not in known or b not in known:
                raise GraphError(f"link references unknown station {a!r} or {b!r}")
            adjacency[a].add(b)
            adjacency[b].add(a)
        coords = {s[0]: s[1] for s in stations}
        values = {s[0]: s[2] for s in stations if s[2] is not None} or None
        return LineGraph(ids, adjacency, coords=coords, values=values)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph(path: str) -> Union[Graph, LineGraph]:
    with open(path) as fh:
        return parse_graph_text(fh.read())


def serialize_graph(graph: Graph) -> str:
    lines = ["mode graph"]
    for vid, coord in graph.coords.items():
        if coord is None:
            lines.append(f"vertex {vid}")
        else:
            lines.append(f"vertex {vid} {_fmt(coord[0])} {_fmt(coord[1])}")
    for e in graph.edges:
        parts = [f"edge {e.id} {e.u} {e.v}"]
        if e.length is not None:
            parts.append(f"length={_fmt(e.length)}")
        if e.value is not None:
            parts.append(f"value={_fmt(e.value)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def serialize_line_graph(lg: LineGraph) -> str:
    if lg.coords is None:
        raise GraphError("stations mode requires coordinates on every vertex")
    lines = ["mode stations"]
    for k in lg.ids:
        x, y = lg.coords[k]
        row = f"station {k} {_fmt(x)} {_fmt(y)}"
        if lg.values and k in lg.values:
            row += f" value={_fmt(lg.values[k])}"
        lines.append(row)
    for u, row in enumerate(lg.rows):
        lines.extend(f"link {lg.ids[u]} {lg.ids[s]}" for s in row if u < s)
    return "\n".join(lines) + "\n"


def write_graph(path: str, obj: Union[Graph, LineGraph]) -> None:
    text = serialize_graph(obj) if isinstance(obj, Graph) else serialize_line_graph(obj)
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# transform serialization: JSON record + CSV coefficients
#
# Ids are written once, as JSON ints or strings, and every other mention of
# an id inside the record is its position in that "ids" list.

def record_to_dict(record: LiftingRecord) -> dict:
    m = len(record.ids)
    return {
        "ids": list(record.ids),
        "config": record.config.to_dict(),
        "surviving": record._canon[len(record.steps):].tolist(),
        "initial_integrals": [record.initial_integrals[k] for k in record.ids],
        "final_integrals": [record.final_integrals[k] for k in record.surviving],
        "stages": [
            {
                "stage": m - i,
                "removed": k,
                "neighbors": [s for s, _, _ in trip],
                "a": [a for _, a, _ in trip],
                "b": [b for _, _, b in trip],
                "integral": integral,
                "edges_added": [list(e) for e in edges],
            }
            for i, ((k, trip), integral, edges)
            in enumerate(zip(record.steps, record.step_integrals, record.step_edges))
        ],
    }


def record_from_dict(d: dict) -> LiftingRecord:
    """The record of `record_to_dict`; also reads older files, which wrote
    every id as a string with an "id_kind" and listed "edges_removed".

    Raises ParseError unless the stages can be replayed: stage i numbered
    m - i, every position in range, each id removed at most once, a stage's
    neighbours neither the removed id nor one removed earlier, one finite
    `a` and one finite `b` entry per neighbour and a finite `integral`,
    each relink edge [u, v, distance] with u < v two of the stage's
    neighbours and a finite positive distance, `surviving` exactly the ids
    never removed (in any order, which `final_integrals` follows), and
    finite integrals: one initial per id, one final per survivor.
    """
    ids = tuple(int(k) if d.get("id_kind") == "int" else k for k in d["ids"])
    m = len(ids)

    def positions(what, ps):
        for i in ps:
            if type(i) is not int or not 0 <= i < m:
                raise ParseError(f"record: {what} position {i!r} is not in 0..{m - 1}")
        return ps

    def finite(what, values):
        for v in values:
            if not (isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)):
                raise ParseError(f"record: {what} {v!r} is not a finite number")

    removed = set()
    for n, s in enumerate(d["stages"]):
        if type(s["stage"]) is not int or s["stage"] != m - n:
            raise ParseError(f"record: stage {n} is numbered {s['stage']!r}, not {m - n}")
        k, nbrs = s["removed"], positions(f"stage {n} neighbour", s["neighbors"])
        positions(f"stage {n}", [k])
        for e in s["edges_added"]:
            if len(e) != 3:
                raise ParseError(f"record: stage {n} relink edge {e!r} is not [u, v, distance]")
            u, v, w = positions(f"stage {n} relink", e[:2]) + e[2:]
            if not (u < v and u in nbrs and v in nbrs):
                raise ParseError(f"record: stage {n} relink edge {e!r} does not join two "
                                 "of its neighbours, the earlier first")
            finite(f"stage {n} relink distance", [w])
            if not w > 0:
                raise ParseError(f"record: stage {n} relink distance {w!r} is not positive")
        if k in removed:
            raise ParseError(f"record: stage {n} removes position {k} a second time")
        if k in nbrs or removed.intersection(nbrs):
            raise ParseError(f"record: stage {n} has a removed id among its neighbours")
        if not len(s["a"]) == len(s["b"]) == len(nbrs):
            raise ParseError(f"record: stage {n} needs one a and one b per neighbour")
        finite(f"stage {n} filter entry or integral", [*s["a"], *s["b"], s["integral"]])
        removed.add(k)
    if sorted(positions("surviving", d["surviving"])) != sorted(set(range(m)) - removed):
        raise ParseError("record: surviving ids are not exactly the ids never removed")
    initial, final = d["initial_integrals"], d["final_integrals"]
    if (len(initial), len(final)) != (m, len(d["surviving"])):
        raise ParseError(f"record: {len(initial)} initial and {len(final)} final integrals "
                         f"for {m} ids and {len(d['surviving'])} survivors")
    finite("initial or final integral", [*initial, *final])
    stages = d["stages"]
    return LiftingRecord(
        steps=tuple([(s["removed"], tuple(zip(s["neighbors"], s["a"], s["b"]))) for s in stages]),
        step_integrals=tuple([s["integral"] for s in stages]),
        step_edges=tuple([tuple([(u, v, w) for u, v, w in s["edges_added"]]) for s in stages]),
        initial_integrals=dict(zip(ids, initial)),
        final_integrals=dict(zip([ids[i] for i in d["surviving"]], final)),
        config=LiftingConfig.from_dict(d["config"]),
        ids=ids,
    )


def write_transform(prefix: str, coeffs: CoefficientSet, record: LiftingRecord) -> Tuple[str, str]:
    """Write <prefix>.record.json and <prefix>.coeffs.csv; returns the paths.
    A detail's scale (`step_integrals`) and level (`levels`) are written from
    the record, for the reader."""
    record_path = f"{prefix}.record.json"
    coeffs_path = f"{prefix}.coeffs.csv"
    with open(record_path, "w") as fh:
        json.dump(record_to_dict(record), fh, indent=1)
    values, n = coeffs.on(record).vector.tolist(), len(record.steps)
    levels = [""] * n if record.levels is None else record.levels.tolist()
    with open(coeffs_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "id", "value", "scale", "level"])
        for k, v, scale, level in zip(record.removal_order, values, record.step_integrals, levels):
            writer.writerow(["detail", k, _fmt(v), _fmt(scale), level])
        for k, v in zip(record.surviving, values[n:]):
            writer.writerow(["scaling", k, _fmt(v), "", ""])
    return record_path, coeffs_path


def read_transform(prefix: str) -> Tuple[CoefficientSet, LiftingRecord]:
    """The coefficients and record of `write_transform`.  Raises ParseError,
    naming the file, for a record that is not valid JSON or not a
    replayable record, and for a coefficients file without a kind, id or
    value column, with a kind other than detail or scaling, with a value
    that is not a finite number, or with an id on two rows; LiftingError
    for ids that are not the record's (`CoefficientSet.from_dicts`)."""
    record_path, coeffs_path = f"{prefix}.record.json", f"{prefix}.coeffs.csv"
    with open(record_path) as fh:
        try:
            record = record_from_dict(json.load(fh))
        except (LookupError, TypeError, AttributeError, ValueError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ParseError(f"{record_path}: {what}") from exc
    by_text = {str(k): k for k in record.ids}
    if len(by_text) != len(record.ids):
        raise ParseError(f"{record_path}: two ids share a text form, so "
                         f"{coeffs_path} cannot tell them apart")
    details, scaling = {}, {}
    with open(coeffs_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"kind", "id", "value"} <= set(reader.fieldnames or ()):
            raise ParseError(f"{coeffs_path}: header lacks a kind, id or value column")
        for row in reader:
            if row["kind"] not in ("detail", "scaling"):
                raise ParseError(f"{coeffs_path} line {reader.line_num}: kind "
                                 f"{row['kind']!r} is not detail or scaling")
            # an id the record lacks stays text; `from_dicts` rejects the mismatch
            k = by_text.get(row["id"], row["id"])
            try:
                value = float(row["value"])
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(f"{coeffs_path} line {reader.line_num}: value "
                                 f"{row['value']!r} is not a finite number")
            if k in details or k in scaling:
                raise ParseError(f"{coeffs_path} line {reader.line_num}: id {k!r} repeated")
            (details if row["kind"] == "detail" else scaling)[k] = value
    return CoefficientSet.from_dicts(details, scaling, record), record


# ---------------------------------------------------------------------------
# run manifests

def write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
