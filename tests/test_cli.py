import json
import subprocess
import sys
import textwrap
import types
from fractions import Fraction

import pytest
from test_growth import _child_env

import amalgrowth
from amalgrowth import amalgam, cli, growth
from amalgrowth.pingpong import PingPongCertificate, replay
from amalgrowth.catalog import catalog_load, catalog_names
from amalgrowth.growth import MIN_FIT_TERMS
from amalgrowth.verify import CriterionResult


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_every_public_name_resolves():
    assert [n for n in amalgrowth.__all__ if not hasattr(amalgrowth, n)] == []
    # the submodules and `importlib` are attributes, not public names
    assert [n for n in amalgrowth.__all__
            if isinstance(getattr(amalgrowth, n), types.ModuleType)] == []
    star: dict = {}
    exec("from amalgrowth import *", star)
    assert all(star[n] is getattr(amalgrowth, n) for n in amalgrowth.__all__)
    assert set(amalgrowth.__all__) <= set(dir(amalgrowth))
    assert not hasattr(amalgrowth, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        amalgrowth.no_such_name
    assert growth.GenSet is amalgrowth.GenSet
    assert growth.make_genset is amalgrowth.make_genset
    assert growth.GenSetError is amalgam.GenSetError


def test_cold_start_loads_only_the_layers_a_call_uses():
    # hashlib and json are looked up before the script imports json itself
    code = textwrap.dedent("""
        import contextlib, io, sys
        def layers():
            return sorted(m.split(".")[1] for m in sys.modules
                          if m.startswith("amalgrowth."))
        def stdlib():
            return sorted({"hashlib", "json"} & set(sys.modules))
        import amalgrowth
        after_import = layers()
        for name in amalgrowth.catalog_names():
            amalgrowth.catalog_load(name)
        after_load = layers()
        entry = amalgrowth.catalog_load("c2*c3")
        amalgrowth.enumerate_balls(entry.spec, entry.default_genset, 4)
        after_balls = stdlib()
        entry.spec.spec_hash()
        after_hash = stdlib()
        from amalgrowth import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["root", "--lengths", "2", "3"]) == 0
        import json
        print(json.dumps([after_import, after_load, layers(), after_balls,
                          after_hash]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    after_import, after_load, after_root, after_balls, after_hash = map(
        set, json.loads(proc.stdout))
    assert after_import == after_load == {"amalgam", "groups", "catalog"}
    assert "spectral" in after_root
    assert not {"pingpong", "tree", "verify"} & after_root
    # loading the catalog and counting balls hash nothing
    assert after_balls == set()
    assert "hashlib" in after_hash


def test_no_layer_imports_dataclasses():
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        import amalgrowth
        for m in pkgutil.iter_modules(amalgrowth.__path__):
            if m.name != "__main__":
                importlib.import_module("amalgrowth." + m.name)
        from amalgrowth import (catalog_load, certify_free_monoid,
                                enumerate_balls, parse_word, replay)
        entry = catalog_load("c2*c3")
        assert enumerate_balls(entry.spec, entry.default_genset, 4).sphere \\
            == (1, 3, 6, 10, 16)
        cert = certify_free_monoid(
            entry.spec, [parse_word(entry, "a b"), parse_word(entry, "b a")])
        assert replay(entry.spec, cert)
        print("dataclasses" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


def test_python_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "amalgrowth", "catalog"],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = [e["name"] for e in json.loads(proc.stdout)["catalog"]]
    assert names == catalog_names() and len(names) == 7


def test_unknown_entry_is_an_error(capsys):
    assert cli.main(["growth", "nope", "--nmax", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown catalog entry 'nope'; available: c2*c2, c2*c3, "
        "c2*c4, c2*c5, c2*c2xc2, pgl2z, gl2z\n")


def test_unknown_generator_is_an_error(capsys):
    assert cli.main(["classify", "c2*c3", "z q"]) == 1
    err = capsys.readouterr().err
    assert "alphabet" in err


def test_growth_csv_stdout(capsys):
    assert cli.main(["growth", "c2*c2", "--nmax", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "n,sphere,ball,root_estimate,ratio_estimate"
    assert len(lines) == 6


def test_growth_out_file_and_provenance(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    assert cli.main(["growth", "pgl2z", "--nmax", "8", "--format", "json",
                     "--out", str(csv)]) == 0
    assert csv.exists()
    report = json.loads((tmp_path / "t.csv.json").read_text())
    entry = catalog_load("pgl2z")
    assert report["spec_hash"] == entry.spec.spec_hash()
    assert report["version"]
    assert report["parameters"]["nmax"] == 8
    assert report["sphere"][:3] == [1, 3, 5]
    assert not report["truncated"]
    assert len(report["level_seconds"]) == 8 + 1
    assert report["peak_rss_mb"] > 0
    assert capsys.readouterr().out == ""


def test_growth_report_level_counters(tmp_path, capsys):
    # one entry per level like level_seconds; the identity is level 0's one
    # candidate, and a plain BFS tries sphere[n-1] * 3 products at level n
    # (pgl2z's three involutions a, b, c); the engine's shortlex filter
    # forms only the products that are new here; it builds a prefix int
    # only where whole blocks of pending syllables are packed into a base,
    # or where a product shorter than the tail is placed element by element;
    # dedupe tests no base against an older sphere this shallow
    csv = tmp_path / "t.csv"
    assert cli.main(["growth", "pgl2z", "--nmax", "5", "--format", "json",
                     "--out", str(csv)]) == 0
    report = json.loads((tmp_path / "t.csv.json").read_text())
    assert report["sphere"] == [1, 3, 5, 7, 9, 12]
    assert report["level_candidates"] == [1, 3, 9, 15, 21, 27]
    assert report["level_new"] == report["sphere"]
    assert report["level_duplicates"] == [0, 0, 4, 8, 12, 15]
    assert report["level_products"] == [1, 3, 5, 7, 9, 12]
    assert report["level_packed"] == [1, 1, 0, 0, 0, 2]
    assert report["level_compared"] == [0] * 6
    assert len(report["level_seconds"]) == 6
    # the CSV carries none of the counters
    assert csv.read_text().splitlines()[0] == (
        "n,sphere,ball,root_estimate,ratio_estimate")
    # a truncated run reports only the levels it built
    assert cli.main(["growth", "pgl2z", "--nmax", "30", "--budget", "200",
                     "--format", "json", "--out", str(csv)]) == 3
    report = json.loads((tmp_path / "t.csv.json").read_text())
    n = len(report["sphere"])
    assert n < 31
    assert [len(report[k]) for k in ("level_candidates", "level_new",
                                     "level_duplicates", "level_products",
                                     "level_packed", "level_compared",
                                     "level_seconds")] == [n] * 7
    # on a deeper ball most elements step without a new prefix int; c2*c4's
    # one-syllable letters make the dedupe key carry the word length, so no
    # key of a new sphere is a key of an older one
    assert cli.main(["growth", "c2*c4", "--nmax", "16", "--format", "json",
                     "--out", str(csv)]) == 0
    report = json.loads((tmp_path / "t.csv.json").read_text())
    assert sum(report["level_packed"]) < sum(report["level_new"])
    assert report["level_compared"] == [0] * 17
    # pgl2z's letters are factor-generated over C = C2, so its key carries
    # the word length as well
    assert cli.main(["growth", "pgl2z", "--nmax", "16", "--format", "json",
                     "--out", str(csv)]) == 0
    report = json.loads((tmp_path / "t.csv.json").read_text())
    assert report["level_compared"] == [0] * 17
    assert report["level_products"] == report["level_new"]
    assert capsys.readouterr().out == ""


def test_growth_report_bisection_steps(tmp_path, capsys):
    # pgl2z's spheres fit s(n) = s(n-2) + s(n-3), whose root is isolated
    # by 41 halvings of [0, 2] down to width 10^-12
    csv = tmp_path / "t.csv"
    assert cli.main(["growth", "pgl2z", "--nmax", "14", "--format", "json",
                     "--out", str(csv)]) == 0
    report = json.loads((tmp_path / "t.csv.json").read_text())
    assert report["dominant_root"]["bisection_steps"] == 41
    # a plain fit: guard 4 held-out terms, no skipped prefix
    assert {k: report["dominant_root"][k] for k in ("basis", "guard", "skip")} == {
        "basis": "fitted", "guard": 4, "skip": 0}
    assert capsys.readouterr().out == ""


def _documented(entry, quantity):
    return next((q["value"] for q in entry.expected
                 if q["quantity"] == quantity), None)


@pytest.mark.parametrize("name", catalog_names())
def test_growth_prints_no_enclosure_that_misses_the_rate(name, capsys):
    # a fit from fewer than MIN_FIT_TERMS counts is not reported; every
    # printed enclosure holds the documented rate (gl2z documents only the
    # least rate over generating sets, a lower bound)
    entry = catalog_load(name)
    rate = _documented(entry, "growth_rate")
    least = _documented(entry, "minimal_growth_rate")
    for nmax in range(21):
        assert cli.main(["growth", name, "--nmax", str(nmax),
                         "--format", "json"]) == 0
        report = _json_out(capsys)
        root = report.get("dominant_root")
        if len(report["sphere"]) < MIN_FIT_TERMS:
            assert "recurrence" not in report and root is None, nmax
        if root is None:
            continue
        lo, hi = Fraction(root["lo"]), Fraction(root["hi"])
        if rate is not None:
            assert lo <= Fraction(rate) <= hi, (nmax, root)
        else:
            assert Fraction(least) <= hi, (nmax, root)


def test_growth_budget_exit_code(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    code = cli.main(["growth", "pgl2z", "--nmax", "30", "--budget", "200",
                     "--out", str(csv)])
    assert code == 3
    # with --out, the CSV goes to the file and nothing to stdout
    assert capsys.readouterr().out == ""
    assert csv.read_text().startswith("n,sphere,ball,")


def test_classify_json(capsys):
    assert cli.main(["classify", "c2*c3", "a b"]) == 0
    report = _json_out(capsys)
    assert report["verdict"] == "hyperbolic"
    assert report["tau"] == 2
    # the verdict is proved by two actions on the witness, not a ball scan
    assert "cross_checked" not in report and "radius" not in report


def test_classify_scans_no_ball(capsys, monkeypatch):
    # a ball scan about the base to radius 2 * 12 would not finish
    def no_ball(*args):
        raise AssertionError("classify scanned a ball")

    monkeypatch.setattr("amalgrowth.tree.ball", no_ball)
    word = " ".join(["a b"] * 6)
    assert cli.main(["classify", "c2*c5", word]) == 0
    report = _json_out(capsys)
    assert (report["verdict"], report["tau"]) == ("hyperbolic", 12)
    assert "cross_checked" not in report and "radius" not in report


def test_classify_refuses_a_verdict_its_witness_does_not_prove(
        capsys, monkeypatch):
    from amalgrowth import tree

    real = tree.classify

    def wrong_tau(spec, g):
        cls = real(spec, g)
        return cls._replace(tau=cls.tau + 2)

    monkeypatch.setattr(tree, "classify", wrong_tau)
    assert cli.main(["classify", "c2*c3", "a b"]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_certify_monoid_round_trip(tmp_path):
    out = tmp_path / "cert.json"
    code = cli.main(["certify", "pgl2z", "--mode", "monoid",
                     "--elements", "b c", "a b c", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"] == "certified"
    assert payload["replay_ok"]
    assert payload["report"]["lengths"] == [2, 3]
    assert abs(payload["report"]["bound"] - 1.3247179572447460) < 1e-9
    cert = PingPongCertificate.from_json(payload["certificate"])
    assert replay(catalog_load("pgl2z").spec, cert)


def test_certify_inconclusive_exit_code(capsys):
    code = cli.main(["certify", "pgl2z", "--mode", "split",
                     "--left", "a", "--right", "b"])
    assert code == 2
    report = _json_out(capsys)
    assert report["result"] == "inconclusive"
    assert report["diagnostics"]


def test_certify_split(capsys):
    code = cli.main(["certify", "c2*c3", "--mode", "split",
                     "--left", "a", "--right", "b"])
    assert code == 0
    payload = _json_out(capsys)
    assert payload["replay_ok"]


def test_certify_report_search_counters(capsys):
    # `search` holds the search's own counters, certified or not: the monoid
    # search's inversion patterns and tested anchors, and the split's powers
    # l >= 1 of the power search
    runs = [
        (["pgl2z", "--mode", "monoid", "--elements", "b c", "a b c"],
         "certified", {"patterns_tried": 1, "anchors_tested": 20}),
        (["c2*c3", "--mode", "monoid", "--elements", "a b", "a b a b"],
         "inconclusive", {"patterns_tried": 4, "anchors_tested": 144}),
        (["pgl2z", "--mode", "monoid", "--elements", "a", "b c"],
         "inconclusive", {"patterns_tried": 0, "anchors_tested": 0}),
        (["pgl2z", "--mode", "split", "--left", "b", "--right", "b c"],
         "certified", {"powers_tried": 1}),
        (["pgl2z", "--mode", "split", "--left", "a", "--right", "b c"],
         "inconclusive", {"powers_tried": 1}),
        (["pgl2z", "--mode", "split", "--left", "a", "--right", "b"],
         "inconclusive", {"powers_tried": 0}),
    ]
    for argv, result, search in runs:
        cli.main(["certify"] + argv)
        report = _json_out(capsys)
        assert report["result"] == result, argv
        assert report["search"] == search, argv


def test_fixedset_and_axis(capsys):
    assert cli.main(["fixedset", "c2*c3", "a"]) == 0
    report = _json_out(capsys)
    assert report["fixed"]
    assert cli.main(["axis", "c2*c3", "a b"]) == 0
    report = _json_out(capsys)
    assert report["tau"] == 2
    assert len(report["axis"]) >= 3
    # hyperbolic input to fixedset is an error, not a crash
    assert cli.main(["fixedset", "c2*c3", "a b"]) == 1


def test_catalog_listing(capsys):
    assert cli.main(["catalog"]) == 0
    report = _json_out(capsys)
    names = [e["name"] for e in report["catalog"]]
    assert "pgl2z" in names and "c2*c3" in names


def test_root_lengths_and_poly(capsys):
    assert cli.main(["root", "--lengths", "1", "2"]) == 0
    report = _json_out(capsys)
    assert abs(report["root"]["mid"] - 1.618033988749895) < 1e-9
    assert report["root"]["bisection_steps"] == 41
    assert cli.main(["root", "--poly", "-1", "-1", "0", "1"]) == 0
    report = _json_out(capsys)
    assert abs(report["root"]["mid"] - 1.3247179572447460) < 1e-9
    assert report["root"]["bisection_steps"] == 41
    # (z - 1)(z - 3): the Sturm path, pinned from its Fraction version
    assert cli.main(["root", "--poly", "3", "-4", "1"]) == 0
    report = _json_out(capsys)
    assert report["root"] == {
        "lo": "6597069766655/2199023255552",
        "hi": "26388279066625/8796093022208",
        "mid": 2.9999999999998295, "width": "5/8796093022208",
        "unique_positive": False, "bisection_steps": 43}
    assert cli.main(["root"]) == 1


@pytest.mark.parametrize("argv", [
    ["root", "--lengths", "0"],
    ["root", "--lengths", "2", "-1"],
    ["growth", "c2*c3", "--nmax", "-1"],
    ["growth", "c2*c3", "--budget", "-5", "--nmax", "3"],
    ["fixedset", "c2*c3", "a", "--radius", "-1"],
    ["axis", "c2*c3", "a b", "--radius", "-1"],
    # classify takes no --radius: an unknown option is a usage error
    ["classify", "c2*c3", "a b", "--radius", "-1"],
    ["certify", "c2*c3", "--mode", "monoid", "--radius", "-1",
     "--elements", "a b", "b a b"],
    # usage errors, which argparse alone would end with exit code 2
    ["certify", "pgl2z", "--elements", "b c", "a b c"],
    ["growth", "pgl2z", "--nmax", "x"],
    ["no-such-command"],
    # options that contradict each other
    ["root", "--lengths", "1", "2", "--poly", "-2", "0", "1"],
    ["certify", "pgl2z", "--mode", "monoid", "--elements", "b c", "a b c",
     "--left", "a"],
    ["certify", "pgl2z", "--mode", "split", "--left", "a", "--right", "c",
     "--elements", "a b"],
    ["certify", "pgl2z", "--mode", "monoid", "--elements", "b c", "a b c",
     "--radius", "3"],
    # incomplete certify command lines: not a failed search
    ["certify", "pgl2z", "--mode", "monoid"],
    ["certify", "pgl2z", "--mode", "monoid", "--elements", "b c"],
    ["certify", "pgl2z", "--mode", "split", "--left", "a"],
    ["certify", "pgl2z", "--mode", "split", "--right", "b"],
])
def test_invalid_input_is_an_error(argv, capsys):
    assert cli.main(argv) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_version_flag(capsys):
    # --version and help are not usage errors
    for argv in (["--version"], ["-h"], ["root", "-h"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    assert capsys.readouterr().err == ""


def test_verify_paper_prints_lines_only_without_out(tmp_path, capsys,
                                                    monkeypatch):
    stub = [CriterionResult("criterion-a", True, "first"),
            CriterionResult("criterion-b", False, "second")]
    # the handler imports run_all when it runs, so the stub goes on verify
    monkeypatch.setattr("amalgrowth.verify.run_all", lambda seed: stub)
    out = tmp_path / "paper.json"
    assert cli.main(["verify-paper", "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert [r["name"] for r in report["results"]] == ["criterion-a",
                                                      "criterion-b"]
    assert cli.main(["verify-paper"]) == 1
    assert capsys.readouterr().out.splitlines() == [r.line() for r in stub]


def test_verify_paper_result_schema(tmp_path, capsys, monkeypatch):
    # run_all times each criterion; every result carries exactly these fields
    from amalgrowth import verify
    monkeypatch.setattr(verify, "ALL_CRITERIA", (
        lambda: CriterionResult("criterion-a", True, "first"),
        lambda: CriterionResult("criterion-b", False, "second")))
    out = tmp_path / "paper.json"
    assert cli.main(["verify-paper", "--out", str(out)]) == 1
    results = json.loads(out.read_text())["results"]
    assert [r["name"] for r in results] == ["criterion-a", "criterion-b"]
    for r in results:
        assert set(r) == {"name", "passed", "details", "elapsed_s"}
        assert type(r["passed"]) is bool and type(r["details"]) is str
        assert type(r["elapsed_s"]) is float and r["elapsed_s"] >= 0
