"""The committed equivalence corpus: every record field the planner decides,
and the outputs of the transform and the denoiser on each plan, for a fixed
set of graphs, variants and removal orders, with floats as hex.

`cases()` lists the plans: all 12 variants on the m = 99 MST of
`sample_network(100, seed=7)`, and the 6 path-metric variants on two flow
fixtures and on a 6 x 6 lattice with string ids (the lattice of the CI
smoke step, whose line graph has many cycles and tied lengths); each in
free order and on 2 `random_trajectories`.  `summarize(record)` turns a
record into plain JSON: the removal order, neighbours, survivors and
relink edges as line-graph positions, and the filters, integrals and
relink distances as `float.hex()`.

`outputs()` gives, for the same cases and one fixed seeded noisy signal
per graph (`noisy`), the coefficients in canonical order, the detail
gains, the inverse of the coefficients, and `denoise` with the median rule
and with the hard rule and `keep_coarsest` 0: its estimates, shrunk
details and diagnostics.  It reads only the id-keyed public results
(`details`, `scaling`, `inverse`'s dict, the `DenoiseResult` fields).

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

import numpy as np

from lglift.graph import build_line_graph
from lglift.io import parse_graph_text, write_transform
from lglift.lifting import VARIANTS, LiftingConfig, forward, inverse
from lglift.shrinkage import ShrinkageConfig, denoise, detail_gains, random_trajectories
from lglift.simulation import embed_pointwise, generate_flow_fixture, get_field, sample_network

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PATH = os.path.join(GOLDEN, "plans.json.gz")
RECORDS_PATH = os.path.join(GOLDEN, "records.json.gz")
OUTPUTS_PATH = os.path.join(GOLDEN, "outputs.json.gz")

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


def orders():
    """(graph name, graph, line graph, variant, config, trajectory index or
    None, trajectory or None) for every plan of the corpus, in corpus order."""
    for name, (graph, variants) in graphs().items():
        lg = build_line_graph(graph)
        for acr in variants:
            config = LiftingConfig.from_acronym(acr)
            trajs = [None] + random_trajectories(lg, config, TRAJECTORIES, 0)
            for t, traj in enumerate(trajs):
                yield name, graph, lg, acr, config, (None if traj is None else t - 1), traj


def cases():
    """(graph name, line graph, variant, trajectory index or None, record)
    for every plan of the corpus, in corpus order."""
    for name, _, lg, acr, config, t, traj in orders():
        zeros = dict.fromkeys(lg.ids, 0.0)
        yield name, lg, acr, t, forward(zeros, lg, config, trajectory=traj)[1]


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


def noisy(name: str, graph, lg) -> dict:
    """The corpus graph's noisy signal by id: its truth (the quadrants field
    at the edge midpoints of the MST, the fixture's flows, the lattice
    file's values) plus N(0, 1) noise drawn in line-graph id order."""
    if name.startswith("flow-"):
        truth = generate_flow_fixture(int(name[5:]))[1]
    elif name == "mst100-7":
        truth = embed_pointwise(get_field("quadrants"), graph)
    else:
        truth = lg.values
    noise = np.random.default_rng(0).normal(0.0, 1.0, lg.m)
    return {k: truth[k] + float(e) for k, e in zip(lg.ids, noise)}


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _denoised(values, lg, config, traj, shrink) -> dict:
    res = denoise(values, lg, config, shrink, trajectory=traj)
    return {
        "estimates": _hex(res.estimates[k] for k in lg.ids),
        "shrunk": _hex(res.shrunk_details.values()),
        "diagnostics": _hex([res.sigma_hat, res.nu_hat, res.zero_frac, res.fallback_frac]),
        "mad_pool_level": res.mad_pool_level,
    }


def outputs() -> dict:
    """The outputs of the current code: one entry per corpus plan, on its
    graph's `noisy` signal.  Coefficients are in canonical order (details
    in removal order, then the scaling coefficients), gains in removal
    order, estimates and the inverse in line-graph id order."""
    out, signals = [], {}
    median = ShrinkageConfig()
    hard = ShrinkageConfig(rule="hard", keep_coarsest=0)
    for name, graph, lg, acr, config, t, traj in orders():
        if name not in signals:
            signals[name] = noisy(name, graph, lg)
        values = signals[name]
        coeffs, record = forward(values, lg, config, trajectory=traj)
        back = inverse(coeffs, record)
        out.append({
            "graph": name, "variant": acr, "trajectory": t,
            "floats": {
                "coefficients": _hex([*(coeffs.details[k] for k in record.removal_order),
                                      *(coeffs.scaling[k] for k in record.surviving)]),
                "gains": _hex(detail_gains(record)),
                "inverse": _hex(back[k] for k in lg.ids),
            },
            "median": _denoised(values, lg, config, traj, median),
            "hard": _denoised(values, lg, config, traj, hard),
        })
    return {"outputs": out}


def output_floats(entry: dict):
    """(kind, hex float) for every float of an outputs entry, in a fixed
    order; kind "shrunk" marks the shrunk details, whose zero pattern the
    test requires exactly."""
    for key, values in entry["floats"].items():
        yield from ((key, v) for v in values)
    for rule in ("median", "hard"):
        for key in ("estimates", "shrunk", "diagnostics"):
            yield from ((key, v) for v in entry[rule][key])


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
    data = outputs()
    _dump(OUTPUTS_PATH, data)
    n = sum(1 for entry in data["outputs"] for _ in output_floats(entry))
    print(f"{len(data['outputs'])} outputs, {n} floats, "
          f"{os.path.getsize(OUTPUTS_PATH)} bytes: {OUTPUTS_PATH}")


if __name__ == "__main__":
    main()
