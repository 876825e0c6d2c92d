"""The committed plan corpus: every record field the planner decides, for a
fixed set of graphs, variants and removal orders, with floats as hex.

`cases()` lists the plans: all 12 variants on the m = 99 MST of
`sample_network(100, seed=7)`, and the 6 path-metric variants on two flow
fixtures and on a 6 x 6 lattice with string ids (the lattice of the CI
smoke step, whose line graph has many cycles and tied lengths); each in
free order and on 2 `random_trajectories`.  `summarize(record)` turns a
record into plain JSON: the removal order, neighbours, survivors and
relink edges as line-graph positions, and the filters, integrals and
relink distances as `float.hex()`.

`record_files()` gives the `write_transform` record JSON of three plans,
which `records.json.gz` pins byte for byte: the record file format and
the plan it holds.

Re-record the corpus only in a change of its own, or in one that fixes a
numeric defect and says which entries moved:

    PYTHONPATH=src python tests/golden_corpus.py
"""

import gzip
import json
import os
import tempfile

from lglift.graph import build_line_graph
from lglift.io import parse_graph_text, write_transform
from lglift.lifting import VARIANTS, LiftingConfig, forward
from lglift.shrinkage import random_trajectories
from lglift.simulation import generate_flow_fixture, sample_network

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PATH = os.path.join(GOLDEN, "plans.json.gz")
RECORDS_PATH = os.path.join(GOLDEN, "records.json.gz")

#: removal orders per graph besides the free one (`random_trajectories` seed 0)
TRAJECTORIES = 2

PATH_VARIANTS = tuple(acr for acr in VARIANTS if acr.endswith("-p"))


def lattice_text(n: int = 6) -> str:
    """The CI smoke step's n x n lattice graph file: string ids, unit
    lengths from the coordinates, integer values."""
    lines = ["mode graph"]
    for i in range(n):
        for j in range(n):
            lines.append(f"vertex v{i}.{j} {i} {j}")
            if i < n - 1:
                lines.append(f"edge x{i}.{j} v{i}.{j} v{i + 1}.{j} value={(7 * i + 3 * j) % 5}")
            if j < n - 1:
                lines.append(f"edge y{i}.{j} v{i}.{j} v{i}.{j + 1} value={(2 * i + 5 * j) % 7}")
    return "\n".join(lines) + "\n"


def graphs():
    """The corpus graphs by name, with the variants planned on each."""
    return {
        "mst100-7": (sample_network(100, seed=7), VARIANTS),
        "flow-0": (generate_flow_fixture(0)[0], PATH_VARIANTS),
        "flow-1": (generate_flow_fixture(1)[0], PATH_VARIANTS),
        "lattice6": (parse_graph_text(lattice_text()), PATH_VARIANTS),
    }


def cases():
    """(graph name, line graph, variant, trajectory index or None, record)
    for every plan of the corpus, in corpus order."""
    for name, (graph, variants) in graphs().items():
        lg = build_line_graph(graph)
        zeros = dict.fromkeys(lg.ids, 0.0)
        for acr in variants:
            config = LiftingConfig.from_acronym(acr)
            orders = [None] + random_trajectories(lg, config, TRAJECTORIES, 0)
            for t, traj in enumerate(orders):
                yield name, lg, acr, (None if traj is None else t - 1), forward(
                    zeros, lg, config, trajectory=traj
                )[1]


def summarize(record) -> dict:
    """The record as plain JSON: positions for ids, hex for floats."""
    pos = {k: i for i, k in enumerate(record.ids)}.__getitem__
    stages = record.stages
    return {
        "order": [pos(st.removed) for st in stages],
        "neighbors": [list(map(pos, st.neighbors)) for st in stages],
        "surviving": list(map(pos, record.surviving)),
        "edges": [[[pos(u), pos(v)] for u, v, _ in st.edges_added] for st in stages],
        "floats": {
            "a": [[w.hex() for w in st.a] for st in stages],
            "b": [[w.hex() for w in st.b] for st in stages],
            "integral": [st.integral.hex() for st in stages],
            "dist": [[w.hex() for _, _, w in st.edges_added] for st in stages],
            "initial": [record.initial_integrals[k].hex() for k in record.ids],
            "final": [record.final_integrals[k].hex() for k in record.surviving],
        },
    }


def flat_floats(summary: dict):
    """Every hex float of a summary, in a fixed order."""
    for values in summary["floats"].values():
        for v in values:
            yield from ([v] if isinstance(v, str) else v)


def corpus() -> dict:
    """The corpus of the current code: each graph's ids (`repr`), and one
    entry per plan."""
    ids, plans = {}, []
    for name, lg, acr, traj, record in cases():
        ids[name] = [repr(k) for k in lg.ids]
        plans.append({"graph": name, "variant": acr, "trajectory": traj, **summarize(record)})
    return {"ids": ids, "plans": plans}


def record_files() -> dict:
    """The `write_transform` record file of three plans, by name: `LG-Sid-p`
    on the flow fixture of seed 0, in free order and on one random
    trajectory, and `LG-Aid-c` on the m = 99 MST in free order."""
    flow = build_line_graph(generate_flow_fixture(0)[0])
    mst = build_line_graph(sample_network(100, seed=7))
    sid, aid = LiftingConfig.from_acronym("LG-Sid-p"), LiftingConfig.from_acronym("LG-Aid-c")
    plans = {
        "flow-0 LG-Sid-p free": (flow, sid, None),
        "flow-0 LG-Sid-p trajectory 0": (flow, sid, random_trajectories(flow, sid, 1, 0)[0]),
        "mst100-7 LG-Aid-c free": (mst, aid, None),
    }
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "t")
        for name, (lg, config, traj) in plans.items():
            zeros = dict.fromkeys(lg.ids, 0.0)
            record_path, _ = write_transform(prefix, *forward(zeros, lg, config, trajectory=traj))
            with open(record_path, "rb") as fh:
                files[name] = fh.read().decode("ascii")
    return files


def load(path: str = PATH) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def _dump(path: str, data) -> None:
    # mtime 0: the same data gives the same bytes
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(data, separators=(",", ":")).encode())


def main() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    data = corpus()
    _dump(PATH, data)
    n = sum(1 for plan in data["plans"] for _ in flat_floats(plan))
    print(f"{len(data['plans'])} plans, {n} floats, {os.path.getsize(PATH)} bytes: {PATH}")
    files = record_files()
    _dump(RECORDS_PATH, files)
    print(f"{len(files)} record files, {os.path.getsize(RECORDS_PATH)} bytes: {RECORDS_PATH}")


if __name__ == "__main__":
    main()
