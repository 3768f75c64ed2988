"""Command line behaviour: exit codes, file round-trips, determinism."""

import json
import pathlib
import time

import pytest

import latbel as lb
from latbel.cli import main

from conftest import chain_diamond, chain_diamond_negation


def write(path, doc):
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return str(path)


@pytest.fixture
def three_chain(tmp_path):
    return write(tmp_path / "chain.json",
                 {"v": 1, "elements": ["⊥", "a", "⊤"], "covers": [["⊥", "a"], ["a", "⊤"]]})


@pytest.fixture
def b2(tmp_path):
    return write(tmp_path / "b2.json", {
        "v": 1,
        "elements": ["{}", "{1}", "{2}", "{1,2}"],
        "covers": [["{}", "{1}"], ["{}", "{2}"], ["{1}", "{1,2}"], ["{2}", "{1,2}"]],
    })


@pytest.fixture
def diamond_bundle(tmp_path):
    dl = chain_diamond()
    lattice = write(tmp_path / "lat18.json", {
        "v": 1,
        "elements": list(dl.lattice.elements),
        "covers": [list(c) for c in dl.lattice.covers],
    })
    n = chain_diamond_negation()
    negation = write(tmp_path / "neg.json", {"v": 1, "map": dict(n.map)})
    pr = dl.principal
    pi = write(tmp_path / "pi.json", {"v": 1, "pi": {
        pr["c"]: 0.1, pr["d"]: 0.2, pr["e"]: 0.4, pr["a"]: 0.6, pr["f"]: 0.9, pr["b"]: 1,
    }})
    return lattice, negation, pi


def test_check_three_chain(three_chain, capsys):
    assert main(["check", three_chain]) == 0
    out = capsys.readouterr().out
    assert "is_lattice: true" in out
    assert "is_linear: true" in out


def test_check_diamond_bundle_lattice(diamond_bundle, capsys):
    lattice, _, _ = diamond_bundle
    assert main(["check", lattice]) == 0
    out = capsys.readouterr().out
    assert "is_distributive: true" in out
    assert "is_autodual: true" in out


def test_check_m3_reports_witness(tmp_path, capsys):
    path = write(tmp_path / "m3.json", {
        "v": 1, "elements": ["0", "a", "b", "c", "1"],
        "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
    })
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "is_distributive: false" in out
    assert "witness=" in out


def test_check_cycle_exits_2(tmp_path, capsys):
    path = write(tmp_path / "cyc.json",
                 {"v": 1, "elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})
    assert main(["check", path]) == 2
    assert "CycleDetected" in capsys.readouterr().err


def test_check_non_lattice_exits_1(tmp_path, capsys):
    path = write(tmp_path / "anti.json", {"v": 1, "elements": ["a", "b"], "covers": []})
    assert main(["check", path]) == 1
    assert "is_lattice: false" in capsys.readouterr().out


def test_transform_zeta_running_sum(three_chain, tmp_path, capsys):
    fn = write(tmp_path / "m.json", {"v": 1, "values": {"⊥": 0, "a": 0.5, "⊤": 0.5}})
    assert main(["transform", "zeta", "--lattice", three_chain, fn]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["⊥\t0.0", "a\t0.5", "⊤\t1.0"]


def test_transform_round_trip_is_byte_stable(three_chain, tmp_path, capsys):
    fn = write(tmp_path / "f.json", {"v": 1, "values": {"⊥": 0, "a": 0.25, "⊤": 1}})
    out1 = str(tmp_path / "m.json")
    assert main(["transform", "mobius", "--lattice", three_chain, fn, "--out", out1]) == 0
    out2 = str(tmp_path / "f2.json")
    assert main(["transform", "zeta", "--lattice", three_chain, out1, "--out", out2]) == 0
    capsys.readouterr()
    first = json.loads(open(out2, encoding="utf-8").read())
    assert first == {"v": 1, "values": {"⊥": 0.0, "a": 0.25, "⊤": 1.0}}
    # running the same pipeline twice produces identical bytes
    assert main(["transform", "zeta", "--lattice", three_chain, out1, "--out", out2]) == 0
    assert json.loads(open(out2, encoding="utf-8").read()) == first


def test_transform_boolean_mobius_masses(b2, tmp_path, capsys):
    bel = write(tmp_path / "bel.json",
                {"v": 1, "values": {"{}": 0, "{1}": 0.2, "{2}": 0.3, "{1,2}": 1}})
    assert main(["transform", "mobius", "--lattice", b2, bel, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["{1,2}"] == pytest.approx(0.5)


def test_transform_missing_value_exit_2(b2, tmp_path, capsys):
    fn = write(tmp_path / "partial.json", {"v": 1, "values": {"{}": 0}})
    assert main(["transform", "zeta", "--lattice", b2, fn]) == 2
    err = capsys.readouterr().err
    assert "{1,2}" in err


def test_mobius_command(three_chain, capsys):
    assert main(["mobius", three_chain, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"]["⊥"]["a"] == -1
    assert doc["mu"]["⊥"]["⊤"] == 0


def test_birkhoff_counts(tmp_path, capsys):
    poset = write(tmp_path / "anti.json", {"v": 1, "elements": ["a", "b"], "covers": []})
    assert main(["birkhoff", poset]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 4


def test_negations_exit_codes(tmp_path, capsys):
    bad = write(tmp_path / "na5.json", {
        "v": 1, "elements": ["0", "p", "q", "r", "1"],
        "covers": [["0", "p"], ["0", "q"], ["p", "r"], ["q", "r"], ["r", "1"]],
    })
    assert main(["negations", bad]) == 1
    a8 = write(tmp_path / "a8.json", {
        "v": 1, "elements": ["0", "a", "b", "c", "d", "e", "f", "1"],
        "covers": [["0", "a"], ["0", "b"], ["a", "c"], ["b", "c"], ["b", "d"],
                   ["c", "e"], ["c", "f"], ["d", "f"], ["e", "1"], ["f", "1"]],
    })
    assert main(["negations", a8, "--all", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["negations"] == [{"0": "1", "a": "e", "b": "f", "c": "c",
                                 "d": "d", "e": "a", "f": "b", "1": "0"}]


def test_negations_limit_flag(tmp_path, capsys):
    b3 = write(tmp_path / "b3.json", {
        "v": 1,
        "elements": ["{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}", "{1,2,3}"],
        "covers": [["{}", "{1}"], ["{}", "{2}"], ["{}", "{3}"],
                   ["{1}", "{1,2}"], ["{1}", "{1,3}"], ["{2}", "{1,2}"],
                   ["{2}", "{2,3}"], ["{3}", "{1,3}"], ["{3}", "{2,3}"],
                   ["{1,2}", "{1,2,3}"], ["{1,3}", "{1,2,3}"], ["{2,3}", "{1,2,3}"]],
    })
    assert main(["negations", b3, "--limit", "3", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["negations"]) == 3
    assert main(["negations", b3, "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["negations"]) == 1


def test_env_var_overrides_element_cap(tmp_path, capsys, monkeypatch):
    path = write(tmp_path / "c.json",
                 {"v": 1, "elements": ["a", "b"], "covers": [["a", "b"]]})
    monkeypatch.setenv("LATBEL_MAX_ELEMENTS", "1")
    assert main(["check", path]) == 2
    assert "SizeLimitExceeded" in capsys.readouterr().err
    monkeypatch.setenv("LATBEL_MAX_ELEMENTS", "junk")
    assert main(["check", path]) == 2


def test_birkhoff_honours_the_element_cap(tmp_path, capsys, monkeypatch):
    path = write(tmp_path / "antichain5.json",
                 {"v": 1, "elements": list("abcde"), "covers": []})
    monkeypatch.setenv("LATBEL_MAX_ELEMENTS", "8")
    assert main(["birkhoff", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("SizeLimitExceeded") and "Traceback" not in captured.err


def test_chains_command(b2, capsys):
    assert main(["chains", b2]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["{} < {1} < {1,2}", "{} < {2} < {1,2}"]


def test_dot_export(three_chain, b2, diamond_bundle, tmp_path, capsys):
    assert main(["dot", three_chain]) == 0
    dot = capsys.readouterr().out
    assert dot.count(" -> ") == 2
    assert main(["dot", b2]) == 0
    dot = capsys.readouterr().out
    assert dot.count(" -> ") == 4
    b3 = lb.boolean_lattice(["1", "2", "3"])
    b3_path = write(tmp_path / "b3dot.json", {
        "v": 1, "elements": list(b3.elements), "covers": [list(c) for c in b3.covers]})
    assert main(["dot", b3_path]) == 0
    dot = capsys.readouterr().out
    assert dot.count(" -> ") == 12
    assert dot.count("style=filled") == 3
    lattice, _, _ = diamond_bundle
    assert main(["dot", lattice]) == 0
    dot = capsys.readouterr().out
    assert dot.count(" -> ") == 30
    assert dot.count("style=filled") == 6


def test_dot_export_escapes_quotes_and_backslashes(tmp_path, capsys):
    path = write(tmp_path / "odd.json",
                 {"v": 1, "elements": ['a"b', "c\\"], "covers": [['a"b', "c\\"]]})
    assert main(["dot", path]) == 0
    dot = capsys.readouterr().out
    assert '  "a\\"b" -> "c\\\\";' in dot
    assert '{ rank=same; "c\\\\"; }' in dot


def test_bel_check_accepts_chain_capacity(three_chain, tmp_path, capsys):
    cap = write(tmp_path / "cap.json", {"v": 1, "values": {"⊥": 0, "a": 0.7, "⊤": 1}})
    assert main(["bel", "check", "--lattice", three_chain, cap]) == 0
    out = capsys.readouterr().out
    assert "is_belief: holds" in out


def test_bel_check_rejects_non_belief(b2, tmp_path, capsys):
    f = write(tmp_path / "f.json",
              {"v": 1, "values": {"{}": 0, "{1}": 1, "{2}": 1, "{1,2}": 1}})
    assert main(["bel", "check", "--lattice", b2, f]) == 1
    out = capsys.readouterr().out
    assert "is_belief: fails" in out
    assert "{1,2}" in out


def test_bel_kmono_and_valuation(b2, tmp_path, capsys):
    prob = write(tmp_path / "p.json",
                 {"v": 1, "values": {"{}": 0, "{1}": 0.4, "{2}": 0.6, "{1,2}": 1}})
    assert main(["bel", "kmono", "2", "--lattice", b2, prob]) == 0
    assert main(["bel", "kmono", "total", "--lattice", b2, prob]) == 0
    assert main(["bel", "valuation", "2", "--lattice", b2, prob]) == 0
    capsys.readouterr()
    f = write(tmp_path / "f.json",
              {"v": 1, "values": {"{}": 0, "{1}": 1, "{2}": 1, "{1,2}": 1}})
    assert main(["bel", "kmono", "2", "--lattice", b2, f]) == 1
    assert "witness" in capsys.readouterr().out


def test_bel_check_max_k_stops_at_the_first_failing_size(tmp_path, capsys):
    b3 = lb.boolean_lattice(["1", "2", "3"])
    lattice = write(tmp_path / "b3.json", {
        "v": 1, "elements": list(b3.elements), "covers": [list(c) for c in b3.covers]})
    f = write(tmp_path / "f.json", {"v": 1, "values": {
        x: 0 if x == b3.bottom else 1 for x in b3.elements}})
    assert main(["bel", "check", "--lattice", lattice, f, "--max-k"]) == 1
    assert "max_k_monotone: 1" in capsys.readouterr().out


def signed_additive_bundle(tmp_path, k):
    """B_k and its additive function with mass -0.5 on {1}, the rest of a
    total mass of 1 spread evenly over the other atoms: no family fails, but
    the negative mass makes the sweep build every antichain."""
    l = lb.boolean_lattice([str(i + 1) for i in range(k)])
    lattice = write(tmp_path / f"b{k}.json", {
        "v": 1, "elements": list(l.elements), "covers": [list(c) for c in l.covers]})
    mass = {"1": -0.5, **{str(i + 1): 1.5 / (k - 1) for i in range(1, k)}}
    f = write(tmp_path / "f.json", {"v": 1, "values": {
        x: sum(mass[a] for a in x[1:-1].split(",") if a) for x in l.elements}})
    return lattice, f


@pytest.mark.parametrize("k", ["9", "total"])
def test_bel_kmono_refuses_work_over_the_meet_cap(diamond_bundle, tmp_path, capsys, k):
    # constant 1 has all its Moebius mass at bottom, which lies under every
    # member: every family passes without being built
    lattice, _, _ = diamond_bundle
    elements = chain_diamond().lattice.elements
    f = write(tmp_path / "f.json", {"v": 1, "values": {x: 1 for x in elements}})
    start = time.perf_counter()
    assert main(["bel", "kmono", k, "--lattice", lattice, f]) == 0
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out.endswith(": holds\n") and err == ""


def test_bel_kmono_and_valuation_honour_limit(tmp_path, capsys):
    lattice, f = signed_additive_bundle(tmp_path, 4)
    assert main(["bel", "kmono", "3", "--lattice", lattice, f, "--limit", "205"]) == 2
    assert main(["bel", "valuation", "2", "--lattice", lattice, f, "--limit", "70"]) == 2
    err = capsys.readouterr().err
    assert err.count("SizeLimitExceeded") == 2
    assert "206 families exceed the cap of 205; raise it with --limit" in err
    assert main(["bel", "kmono", "3", "--lattice", lattice, f, "--limit", "206"]) == 0
    assert main(["bel", "valuation", "2", "--lattice", lattice, f, "--limit", "71"]) == 0


def test_bel_combine_against_commonality_product(b2, tmp_path, capsys):
    m1 = write(tmp_path / "m1.json",
               {"v": 1, "values": {"{}": 0, "{1}": 0.6, "{2}": 0, "{1,2}": 0.4}})
    m2 = write(tmp_path / "m2.json",
               {"v": 1, "values": {"{}": 0, "{1}": 0, "{2}": 0.5, "{1,2}": 0.5}})
    out = str(tmp_path / "c.json")
    assert main(["bel", "combine", "--policy", "raw", "--lattice", b2, m1, m2,
                 "--out", out]) == 0
    capsys.readouterr()
    combined = json.loads(open(out, encoding="utf-8").read())["values"]
    # commonality of the combination is the product of the commonalities
    l = lb.lattice_from_poset(lb.build_poset(
        ["{}", "{1}", "{2}", "{1,2}"],
        [("{}", "{1}"), ("{}", "{2}"), ("{1}", "{1,2}"), ("{2}", "{1,2}")]))
    q = lb.comobius_transform(lb.SetFunction(l, combined))
    q1 = lb.comobius_transform(lb.SetFunction(l, json.loads(open(m1).read())["values"]))
    q2 = lb.comobius_transform(lb.SetFunction(l, json.loads(open(m2).read())["values"]))
    for x in l.elements:
        assert q[x] == pytest.approx(q1[x] * q2[x], abs=1e-9)


def test_bel_decompose_recombine_files(b2, tmp_path, capsys):
    bel = write(tmp_path / "bel.json",
                {"v": 1, "values": {"{}": 0, "{1}": 0.3, "{2}": 0.3, "{1,2}": 1}})
    weights_path = str(tmp_path / "w.json")
    assert main(["bel", "decompose", "--lattice", b2, bel, "--out", weights_path]) == 0
    mass_path = str(tmp_path / "m.json")
    assert main(["bel", "recombine", "--lattice", b2, weights_path,
                 "--out", mass_path]) == 0
    capsys.readouterr()
    masses = json.loads(open(mass_path, encoding="utf-8").read())["values"]
    assert masses["{1}"] == pytest.approx(0.3, abs=1e-8)
    assert masses["{1,2}"] == pytest.approx(0.4, abs=1e-8)


def test_bel_decompose_requires_top_mass(b2, tmp_path, capsys):
    bel = write(tmp_path / "bel.json",
                {"v": 1, "values": {"{}": 0, "{1}": 1, "{2}": 0, "{1,2}": 1}})
    assert main(["bel", "decompose", "--lattice", b2, bel]) == 1
    assert "TopMassZero" in capsys.readouterr().err


def test_bel_necessity_possibility(b2, tmp_path, capsys):
    nec = write(tmp_path / "n.json",
                {"v": 1, "values": {"{}": 0, "{1}": 0.5, "{2}": 0, "{1,2}": 1}})
    assert main(["bel", "necessity", "--lattice", b2, nec]) == 0
    split = write(tmp_path / "s.json",
                  {"v": 1, "values": {"{}": 0, "{1}": 0.5, "{2}": 0.5, "{1,2}": 1}})
    assert main(["bel", "necessity", "--lattice", b2, split]) == 1
    capsys.readouterr()
    poss = write(tmp_path / "pi.json",
                 {"v": 1, "values": {"{}": 0, "{1}": 1, "{2}": 0.5, "{1,2}": 1}})
    assert main(["bel", "possibility", "--lattice", b2, poss]) == 0


def test_bel_reconstruct_table(diamond_bundle, capsys):
    lattice, negation, pi = diamond_bundle
    assert main(["bel", "reconstruct", "--lattice", lattice,
                 "--negation", negation, "--pi", pi]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "step\tx\tn(x)\teta(n(x))\tiota\tchain"
    assert "{a,b,c,d,e}\t0.1" in out
    # deterministic: a second run prints the same bytes
    assert main(["bel", "reconstruct", "--lattice", lattice,
                 "--negation", negation, "--pi", pi]) == 0
    assert capsys.readouterr().out == out


def test_bel_reconstruct_finds_negation_when_omitted(b2, tmp_path, capsys):
    pi = write(tmp_path / "pi.json", {"v": 1, "pi": {"{1}": 0.4, "{2}": 1}})
    assert main(["bel", "reconstruct", "--lattice", b2, "--pi", pi, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chain"][-1] == "{1,2}"


def test_bel_reconstruct_rejects_ties(diamond_bundle, tmp_path, capsys):
    lattice, negation, _ = diamond_bundle
    dl = chain_diamond()
    pr = dl.principal
    pi = write(tmp_path / "tied.json", {"v": 1, "pi": {
        pr["c"]: 0.1, pr["d"]: 0.1, pr["e"]: 0.4, pr["a"]: 0.6, pr["f"]: 0.9, pr["b"]: 1,
    }})
    assert main(["bel", "reconstruct", "--lattice", lattice,
                 "--negation", negation, "--pi", pi]) == 1
    assert "TiesInDistribution" in capsys.readouterr().err


def test_bel_conjugate(b2, tmp_path, capsys):
    neg = write(tmp_path / "neg.json", {"v": 1, "map": {
        "{}": "{1,2}", "{1}": "{2}", "{2}": "{1}", "{1,2}": "{}"}})
    bel = write(tmp_path / "bel.json",
                {"v": 1, "values": {"{}": 0, "{1}": 0.3, "{2}": 0.2, "{1,2}": 1}})
    assert main(["bel", "conjugate", "--lattice", b2, "--negation", neg,
                 "--variant", "vee", bel, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["{1}"] == pytest.approx(0.8)


def test_invalid_negation_file_exits_2(b2, tmp_path, capsys):
    neg = write(tmp_path / "neg.json", {"v": 1, "map": {
        "{}": "{}", "{1}": "{1}", "{2}": "{2}", "{1,2}": "{1,2}"}})
    bel = write(tmp_path / "bel.json",
                {"v": 1, "values": {"{}": 0, "{1}": 0.3, "{2}": 0.2, "{1,2}": 1}})
    assert main(["bel", "conjugate", "--lattice", b2, "--negation", neg, bel]) == 2
    assert "InvalidNegation" in capsys.readouterr().err


def test_unsupported_format_version(tmp_path, capsys):
    path = write(tmp_path / "v9.json", {"v": 9, "elements": ["a"], "covers": []})
    assert main(["check", path]) == 2
    assert "version" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check", str(path)]) == 2


def test_deeply_nested_json_exits_2(b2, tmp_path, capsys):
    path = tmp_path / "deep.json"  # deep enough to exhaust any recursion limit
    path.write_text('{"v": 1, "values": ' + "[" * 100_000 + "]" * 100_000 + "}",
                    encoding="utf-8")
    for argv in (["check", str(path)], ["bel", "check", "--lattice", b2, str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"FormatError: {path}: JSON nested too deeply\n"


def test_bel_recombine_refuses_weights_beyond_the_float_range(b2, tmp_path, capsys):
    weights = write(tmp_path / "w.json",
                    {"v": 1, "values": {"{}": 1e300, "{1}": 1e300, "{2}": 1e300}})
    assert main(["bel", "recombine", "--lattice", b2, weights]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValueError") and err.count("\n") == 1 and "Traceback" not in err


def test_check_json_output_is_deterministic(diamond_bundle, capsys):
    lattice, _, _ = diamond_bundle
    assert main(["check", lattice, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", lattice, "--json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["is_distributive"] is True


B2_BEL = '{"{}": 0, "{1}": 0.3, "{2}": 0.2, "{1,2}": %s}'


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "null", "\"1\""])
def test_bel_check_refuses_malformed_numbers(b2, tmp_path, capsys, literal):
    path = tmp_path / "f.json"
    path.write_text('{"v": 1, "values": ' + B2_BEL % literal + "}", encoding="utf-8")
    assert main(["bel", "check", "--lattice", b2, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FormatError") and "Traceback" not in err


@pytest.mark.parametrize("version", ["true", "1.0", "\"1\"", "2"])
def test_files_refuse_any_version_but_the_integer_one(b2, tmp_path, capsys, version):
    # True == 1 == 1.0 in Python, so an equality test alone lets these through
    lattice = tmp_path / "lat.json"
    lattice.write_text(open(b2, encoding="utf-8").read().replace('"v": 1', '"v": ' + version),
                       encoding="utf-8")
    f = tmp_path / "f.json"
    f.write_text('{"v": %s, "values": %s}' % (version, B2_BEL % 1), encoding="utf-8")
    for argv in (["check", str(lattice)], ["bel", "check", "--lattice", b2, str(f)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("FormatError")
        assert f"unsupported format version {json.loads(version)!r}" in err
    assert main(["check", b2]) == 0


@pytest.mark.parametrize("literal", ["null", "NaN", "1e400"])
def test_bel_reconstruct_refuses_malformed_pi(b2, tmp_path, capsys, literal):
    path = tmp_path / "pi.json"
    path.write_text('{"v": 1, "pi": {"{1}": %s, "{2}": 1}}' % literal, encoding="utf-8")
    assert main(["bel", "reconstruct", "--lattice", b2, "--pi", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FormatError") and "Traceback" not in err


def test_bel_reconstruct_refuses_non_isotone_pi(diamond_bundle, tmp_path, capsys):
    lattice, _, _ = diamond_bundle
    pr = chain_diamond().principal
    pi = write(tmp_path / "pi.json", {"v": 1, "pi": {
        pr["c"]: 0.1, pr["d"]: 0.2, pr["e"]: 0.4, pr["b"]: 0.6, pr["f"]: 0.9, pr["a"]: 1,
    }})
    assert main(["bel", "reconstruct", "--lattice", lattice, "--pi", pi]) == 2
    assert capsys.readouterr().err.startswith("InvalidDistribution")


def test_check_refuses_a_dict_cover_endpoint(tmp_path, capsys):
    path = write(tmp_path / "bad.json",
                 {"v": 1, "elements": ["a", "b"], "covers": [["a", {"b": 1}]]})
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith("InvalidElementName")


def test_bel_conjugate_refuses_a_list_image(b2, tmp_path, capsys):
    neg = write(tmp_path / "neg.json", {"v": 1, "map": {
        "{}": "{1,2}", "{1}": ["{2}"], "{2}": "{1}", "{1,2}": "{}"}})
    bel = write(tmp_path / "bel.json",
                {"v": 1, "values": {"{}": 0, "{1}": 0.3, "{2}": 0.2, "{1,2}": 1}})
    assert main(["bel", "conjugate", "--lattice", b2, "--negation", neg, bel]) == 2
    assert capsys.readouterr().err.startswith("NotABijection")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "abc"])
def test_tolerance_must_be_finite_and_nonnegative(b2, tmp_path, capsys, tolerance):
    """Against NaN or infinity every `> tol` comparison is false, so each
    check would report that it holds."""
    f = write(tmp_path / "f.json",
              {"v": 1, "values": {"{}": 0.5, "{1}": 0.9, "{2}": 0.1, "{1,2}": 0.2}})
    with pytest.raises(SystemExit) as exc:
        main(["bel", "check", "--lattice", b2, f, f"--tolerance={tolerance}"])
    assert exc.value.code == 2
    assert "argument --tolerance: expected a finite number >= 0" in capsys.readouterr().err
    assert main(["bel", "check", "--lattice", b2, f, "--tolerance", "0"]) == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_bel_check_max_k_says_when_the_meet_cap_stopped_it(tmp_path, capsys, json_flag):
    # not a belief (exit 1), but totally monotone: 55 families decide it
    lattice, f = signed_additive_bundle(tmp_path, 3)
    argv = ["bel", "check", "--lattice", lattice, f, "--max-k", *json_flag]
    assert main([*argv, "--limit", "55"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "total" in out
    assert main([*argv, "--limit", "54"]) == 1
    out, err = capsys.readouterr()
    assert err == ("max_k_monotone: not decided, 55 families exceed the cap "
                   "of 54; raise it with --limit\n")
    if json_flag:
        assert json.loads(out)["max_k_monotone"] is None
    else:
        assert out.endswith("max_k_monotone: None\n")


# -- recorded output ---------------------------------------------------------------

GOLDEN = json.loads(pathlib.Path(__file__).with_name("cli_golden.json").read_text("utf-8"))


def golden_commands(tmp_path, b2, diamond_bundle):
    """Label -> argv for the function-layer commands whose output is recorded
    in cli_golden.json, byte for byte, text and --json alike."""
    lattice, negation, pi = diamond_bundle
    names = chain_diamond().lattice.elements

    def values(name, given):
        return write(tmp_path / name, {"v": 1, "values": {x: given.get(x, 0) for x in names}})

    m1 = {"{a}": 0.1, "{c,d}": 0.2, "{a,b,c}": 0.3, "{a,b,c,d,e,f}": 0.4}
    m2 = {"{c}": 0.25, "{a,b}": 0.35, "{c,d,e,f}": 0.15, "{a,b,c,d,e,f}": 0.25}
    subset = {x: set(x[1:-1].split(",")) - {""} for x in names}
    bel = {x: sum(v for y, v in m1.items() if subset[y] <= subset[x]) for x in names}
    f = {x: (3 * i % 7 - 2) / 10 for i, x in enumerate(names)}
    files = {
        "f": values("f.json", f),
        "g": values("g.json", {**f, "{}": 0, "{a,b,c,d,e,f}": 1}),
        "m1": values("m1.json", m1),
        "m2": values("m2.json", m2),
        "bel": values("bel.json", bel),
        "w": write(tmp_path / "w.json",
                   {"v": 1, "values": {"{a}": 0.5, "{c,d}": 0.8, "{a,b,c}": 2.0}}),
        "left": write(tmp_path / "left.json",
                      {"v": 1, "values": {"{}": 0, "{1}": 1, "{2}": 0, "{1,2}": 0}}),
        "right": write(tmp_path / "right.json",
                       {"v": 1, "values": {"{}": 0, "{1}": 0, "{2}": 1, "{1,2}": 0}}),
    }

    def bel(command, *rest, on=lattice):
        return ["bel", command, "--lattice", on, *rest]

    cases = {f"transform {d}": ["transform", d, "--lattice", lattice, files["f"]]
             for d in ("mobius", "zeta", "comobius", "inverse-comobius")}
    for policy in ("raw", "zero-bottom", "normalize"):
        cases[f"combine {policy}"] = bel("combine", files["m1"], files["m2"], "--policy", policy)
        cases[f"combine {policy} conflict"] = bel("combine", files["left"], files["right"],
                                                  "--policy", policy, on=b2)
    cases["decompose"] = bel("decompose", files["bel"])
    cases["recombine"] = bel("recombine", files["w"])
    for variant in ("vee", "wedge"):
        cases[f"conjugate {variant}"] = bel("conjugate", files["bel"], "--negation", negation,
                                            "--variant", variant)
    cases["reconstruct"] = bel("reconstruct", "--negation", negation, "--pi", pi)
    cases["check"] = bel("check", files["bel"], "--max-k")
    cases["check g"] = bel("check", files["g"])
    cases["kmono"] = bel("kmono", "3", files["g"])
    cases["valuation"] = bel("valuation", "2", files["bel"])
    return {**cases, **{label + " --json": [*argv, "--json"] for label, argv in cases.items()}}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_function_commands_print_the_recorded_bytes(label, b2, diamond_bundle, tmp_path, capsys):
    commands = golden_commands(tmp_path, b2, diamond_bundle)
    assert sorted(commands) == sorted(GOLDEN)
    code = main(commands[label])
    assert {"code": code, "out": capsys.readouterr().out} == GOLDEN[label]
