import json

import pytest

from amalgrowth import cli
from amalgrowth.pingpong import PingPongCertificate, replay
from amalgrowth.catalog import catalog_load
from amalgrowth.verify import CriterionResult


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_unknown_entry_is_an_error(capsys):
    assert cli.main(["growth", "nope", "--nmax", "3"]) == 1
    assert "error:" in capsys.readouterr().err


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
    # forms only the products that are new here
    csv = tmp_path / "t.csv"
    assert cli.main(["growth", "pgl2z", "--nmax", "5", "--format", "json",
                     "--out", str(csv)]) == 0
    report = json.loads((tmp_path / "t.csv.json").read_text())
    assert report["sphere"] == [1, 3, 5, 7, 9, 12]
    assert report["level_candidates"] == [1, 3, 9, 15, 21, 27]
    assert report["level_new"] == report["sphere"]
    assert report["level_duplicates"] == [0, 0, 4, 8, 12, 15]
    assert report["level_products"] == [1, 3, 5, 7, 9, 12]
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
                                     "level_seconds")] == [n] * 5
    assert capsys.readouterr().out == ""


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
    assert report["cross_checked"]


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
    assert cli.main(["root", "--poly", "-1", "-1", "0", "1"]) == 0
    report = _json_out(capsys)
    assert abs(report["root"]["mid"] - 1.3247179572447460) < 1e-9
    assert cli.main(["root"]) == 1


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_verify_paper_prints_lines_only_without_out(tmp_path, capsys,
                                                    monkeypatch):
    stub = [CriterionResult("criterion-a", True, "first"),
            CriterionResult("criterion-b", False, "second")]
    monkeypatch.setattr(cli, "run_all", lambda seed: stub)
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
