"""Plans match the committed corpus (`golden_corpus`): removal orders,
neighbours, survivors and relink edges exactly, every filter entry,
integral and relink distance within 1e-12 relative.  The outputs on those
plans match theirs: every float within 1e-12 relative, the zero pattern of
the shrunk details and the MAD pooling level exactly.  Both tests print
how many of the floats are bitwise equal and the largest relative
deviation.  Three record files (`golden_corpus.record_files`) match theirs
byte for byte."""

import math

import golden_corpus


def _deviation(a: str, b: str) -> float:
    """Relative deviation of hex float a from hex float b."""
    x, y = float.fromhex(a), float.fromhex(b)
    return abs(x - y) / max(abs(y), math.ulp(0.0))


def test_plans_match_the_committed_corpus():
    want = golden_corpus.load()
    got = golden_corpus.corpus()
    assert got["ids"] == want["ids"]
    assert len(got["plans"]) == len(want["plans"])
    total = equal = 0
    worst = 0.0
    for g, w in zip(got["plans"], want["plans"]):
        where = (w["graph"], w["variant"], w["trajectory"])
        assert (g["graph"], g["variant"], g["trajectory"]) == where
        for key in ("order", "neighbors", "surviving", "edges"):
            assert g[key] == w[key], f"{key} differs in {where}"
        gf, wf = list(golden_corpus.flat_floats(g)), list(golden_corpus.flat_floats(w))
        assert len(gf) == len(wf), f"float count differs in {where}"
        for a, b in zip(gf, wf):
            total += 1
            if a == b:
                equal += 1
                continue
            dev = _deviation(a, b)
            worst = max(worst, dev)
            assert dev <= 1e-12, f"{a} != {b} (relative {dev:.3g}) in {where}"
    print(f"golden corpus: {equal} of {total} floats bitwise equal; "
          f"largest relative deviation {worst:.3g}")


def test_outputs_match_the_committed_corpus():
    want = golden_corpus.load(golden_corpus.OUTPUTS_PATH)["outputs"]
    got = golden_corpus.outputs()["outputs"]
    assert len(got) == len(want)
    total = equal = 0
    worst = 0.0
    for g, w in zip(got, want):
        where = (w["graph"], w["variant"], w["trajectory"])
        assert (g["graph"], g["variant"], g["trajectory"]) == where
        for rule in ("median", "hard"):
            assert g[rule]["mad_pool_level"] == w[rule]["mad_pool_level"], f"{rule} in {where}"
        gf, wf = list(golden_corpus.output_floats(g)), list(golden_corpus.output_floats(w))
        assert [k for k, _ in gf] == [k for k, _ in wf], f"float count differs in {where}"
        for (kind, a), (_, b) in zip(gf, wf):
            total += 1
            if a == b:
                equal += 1
                continue
            if kind == "shrunk":
                assert (float.fromhex(a) == 0.0) == (float.fromhex(b) == 0.0), (
                    f"shrunk-detail zero pattern differs in {where}"
                )
            dev = _deviation(a, b)
            worst = max(worst, dev)
            assert dev <= 1e-12, f"{kind} {a} != {b} (relative {dev:.3g}) in {where}"
    print(f"golden outputs: {equal} of {total} floats bitwise equal; "
          f"largest relative deviation {worst:.3g}")


def test_record_files_match_the_committed_records():
    want = golden_corpus.load(golden_corpus.RECORDS_PATH)
    got = golden_corpus.record_files()
    assert got.keys() == want.keys()
    for name, text in want.items():
        assert got[name] == text, f"the record file of {name} differs"
