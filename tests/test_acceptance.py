"""Acceptance suite: each test runs one end-to-end criterion, prints a single
[PASS]/[FAIL] line with the checked quantities and tolerances, and asserts the
verdict.  Run with `pytest -s tests/test_acceptance.py` to see the lines."""
import tempfile

from amalgrowth import verify


def _run(fn, **kw):
    result = fn(**kw)
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_01_golden_ratio_rate():
    # char poly of the sphere recurrence equals z^2 - z - 1 exactly;
    # dominant root within 1e-9 of the golden ratio
    _run(verify.criterion_1)


def test_criterion_02_plastic_count_identities():
    # normal-form census vs ball enumeration, segment-count recurrence, the
    # stated sphere relation, and a root enclosure of width <= 1e-9
    _run(verify.criterion_2)


def test_criterion_03_root_enclosures_for_length_data():
    # enclosures of width <= 1e-12 with exact sign-change endpoints
    _run(verify.criterion_3)


def test_criterion_04_forbidden_factor_transfer_matrix():
    # exact recurrence for pattern-avoiding counts plus root enclosure
    _run(verify.criterion_4)


def test_criterion_05_weighted_alphabet_recurrences():
    # weighted length census matches its predicted recurrences and
    # factorization, root within 1e-9 of the golden ratio
    _run(verify.criterion_5)


def test_criterion_06_classification_cross_checks():
    # 200 random elements: reduction verdict vs ball-minimum displacement,
    # collinearity of witnesses, even translation lengths, and 200
    # disjoint-fixed-set product checks
    _run(verify.criterion_6, seed=0)


def test_criterion_07_random_genset_rate_lower_bounds():
    # 30 seeded random generating sets: fitted sphere recurrences give
    # dominant roots >= golden - 1e-9
    _run(verify.criterion_7, seed=7)


def test_criterion_08_certificate_pipeline():
    # CLI certify round trip: lengths, root bound, certificate replay
    _run(verify.criterion_8)


def test_criterion_09_rate_vs_index_bound():
    # exact lower-bound formula vs computed rate enclosures
    _run(verify.criterion_9)


def test_criterion_10_deterministic_enumeration():
    # pgl2z CSV byte-identical across all 6 orderings of the generators, the
    # CLI --out file byte-identical to growth_table_csv of the library call,
    # and for every catalog entry the BFS engine's spheres to n=10 equal a
    # plain multiply BFS's as sets, each element yielded once
    _run(verify.criterion_10)


def test_criteria_08_and_10_leave_no_temp_directory(tmp_path, monkeypatch):
    # both write their CLI output under tempfile.gettempdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    for fn in (verify.criterion_8, verify.criterion_10):
        assert fn().passed
    assert list(tmp_path.iterdir()) == []
