"""CLI behaviour: reports, filters, exit codes, determinism."""
import gc
import io
import json
import os
import random
import subprocess
import sys
import textwrap
import warnings
from math import comb
from pathlib import Path

import pytest

from bottclass import bottmatrix, catalog, cohomology, rigidity, spin
from bottclass.bottmatrix import format_matrix_text, op1, parse_matrix, to_json_dict
from bottclass.cli import main
from bottclass.gf2 import rank_masks
from bottclass.spin import SpinLift

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_enumerate_dim2(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "2")
    assert code == 0
    lines = out.strip().splitlines()
    report = json.loads(lines[-1])
    assert report["results"]["count"] == 2
    assert len(lines) == 3


def test_enumerate_dim5_ghw_count(capsys):
    # rank n-1 filter keeps exactly the 2^6 matrices with full superdiagonal
    code, out, _ = run(capsys, "enumerate", "--dim", "5", "--ghw")
    assert code == 0
    assert last_json(out)["results"]["count"] == 64


def test_enumerate_dim5_orientable_contains_catalog(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "5", "--orientable")
    assert code == 0
    lines = out.strip().splitlines()
    report = json.loads(lines[-1])
    assert report["results"]["count"] == 64
    streamed = [json.loads(l) for l in lines[:-1]]
    for m in catalog.DIM5_ORIENTED.values():
        assert to_json_dict(m) in streamed


def test_classify_dim3(capsys):
    code, out, _ = run(capsys, "classify", "--dim", "3")
    assert code == 0
    report = last_json(out)
    assert report["results"] == {"classes": 4, "oriented_classes": 2, "ghw_classes": 1}


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--max-dim", "4")
    assert code == 0
    rows = last_json(out)["results"]["rows"]
    assert [(r["rbm_classes"], r["oriented_classes"], r["ghw_rbm_classes"]) for r in rows] == [
        (1, 1, 0),
        (2, 1, 1),
        (4, 2, 1),
        (12, 3, 2),
    ]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--max-dim", "3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,rbm_classes,oriented_classes,ghw_rbm_classes,ghw_rbm_formula"
    assert lines[1] == "1,1,1,0,"
    assert lines[3] == "3,4,2,1,1"


def test_table_csv_output_is_unchanged(capsys):
    code, out, _ = run(capsys, "table", "--max-dim", "6", "--csv")
    assert code == 0
    assert out == (
        "dim,rbm_classes,oriented_classes,ghw_rbm_classes,ghw_rbm_formula\n"
        "1,1,1,0,\n"
        "2,2,1,1,1\n"
        "3,4,2,1,1\n"
        "4,12,3,2,2\n"
        "5,54,8,8,8\n"
        "6,472,29,64,64\n"
    )


@pytest.mark.parametrize("argv", [
    ("enumerate", "--dim", "3"),
    ("classify", "--dim", "3"),
    ("table", "--max-dim", "3"),
    ("invariants", "--matrix", str(FIXTURES / "a4.txt")),
    ("spin", "--matrix", str(FIXTURES / "a4.txt")),
    ("prop1", "--dim", "3"),
    ("rigidity", "--dim", "3"),
])
def test_json_flag_is_a_usage_error(capsys, argv):
    # JSON is the only report format (table also has --csv): no --json flag
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --json" in captured.err and not captured.out


@pytest.mark.parametrize("option", ["--sample", "--seed"])
def test_rigidity_takes_only_dim(capsys, option):
    # the experiment is deterministic: it draws no sample and takes no seed
    with pytest.raises(SystemExit) as exc:
        main(["rigidity", "--dim", "5", option, "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {option} 3" in captured.err and not captured.out


def test_invariants_a4(capsys):
    code, out, _ = run(capsys, "invariants", "--matrix", str(FIXTURES / "a4.txt"))
    assert code == 0
    res = last_json(out)["results"]
    assert res["orientable"] is True
    assert res["rank"] == 3
    assert res["ghw"] is False
    assert res["w2"] == "x1*x2 + x1*x3"


def test_matrix_file_is_closed_after_reading(capsys):
    # an unclosed file emits ResourceWarning when it is collected
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _, _ = run(capsys, "invariants", "--matrix", str(FIXTURES / "a4.txt"))
        gc.collect()
    assert code == 0
    assert [str(w.message) for w in caught] == []


def test_spin_a23(capsys):
    code, out, _ = run(capsys, "spin", "--matrix", str(FIXTURES / "a23.txt"))
    assert code == 0
    res = last_json(out)["results"]
    assert res["spin"] is False
    assert res["witnesses"] == [{"kind": "Part II", "i": 1, "j": 3, "data": [2, 2]}]


def test_spin_torus(capsys, tmp_path):
    f = tmp_path / "torus.txt"
    f.write_text("5\n" + "00000\n" * 5)
    code, out, _ = run(capsys, "spin", "--matrix", str(f))
    assert code == 0
    res = last_json(out)["results"]
    assert res["spin"] is True and res["witnesses"] == []


def test_spin_a4_reports_spinc_obstruction(capsys):
    code, out, _ = run(capsys, "spin", "--matrix", str(FIXTURES / "a4.txt"))
    assert code == 0
    res = last_json(out)["results"]
    assert res["spinc_obstructed"] is True
    assert res["spin"] is False


def test_spin_non_orientable(capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("2\n01\n00\n")
    code, out, _ = run(capsys, "spin", "--matrix", str(f))
    assert code == 0
    res = last_json(out)["results"]
    assert res["orientable"] is False and res["spin"] is None


@pytest.mark.parametrize("fixture, lift", [("a29.txt", None), ("a4.txt", SpinLift(0, 0))],
                         ids=["spin-a29", "not-spin-a4"])
def test_spin_routes_that_disagree_exit_3_with_the_matrix(monkeypatch, capsys, fixture, lift):
    # a29 is Spin and a4 is not; a lift search broken to answer the other
    # way must stop the report, with the matrix on stderr
    monkeypatch.setattr(spin, "spin_lift_search", lambda m: lift)
    path = FIXTURES / fixture
    code, out, err = run(capsys, "spin", "--matrix", str(path))
    assert code == 3 and out == ""
    assert json.loads(err[err.index('{"n"'):]) == to_json_dict(parse_matrix(path.read_text()))


@pytest.mark.parametrize("fixture, w2", [("a29.txt", frozenset({0b11})), ("a4.txt", frozenset())],
                         ids=["spin-a29", "not-spin-a4"])
def test_spin_w2_routes_that_disagree_exit_3_with_the_matrix(monkeypatch, capsys, fixture, w2):
    # a29 is Spin and a4 is not; a rows' w2 route broken to answer the
    # other way disagrees with the lift search, which solves its own
    # GF(2) system from the rows
    monkeypatch.setattr(cohomology, "w2_of_rows", lambda n, rows: w2)
    path = FIXTURES / fixture
    code, out, err = run(capsys, "spin", "--matrix", str(path))
    assert code == 3 and out == ""
    assert f"spin from w2 is {not w2} but lift_found is {bool(w2)}" in err
    assert json.loads(err[err.index('{"n"'):]) == to_json_dict(parse_matrix(path.read_text()))


def test_spin_w2_routes_that_disagree_exit_3_under_python_O():
    # the lift-vs-w2 guard raises InvariantViolation, not assert, so a
    # disagreement still exits 3 with the matrix under `python -O`
    path = FIXTURES / "a29.txt"
    code = textwrap.dedent(f"""
        import sys
        from bottclass import cli, cohomology
        assert not __debug__
        cohomology.w2_of_rows = lambda n, rows: frozenset({{0b11}})
        sys.exit(cli.main(["spin", "--matrix", {str(path)!r}]))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    err = proc.stderr
    assert json.loads(err[err.index('{"n"'):]) == to_json_dict(parse_matrix(path.read_text()))


def _report_sorting_once(monkeypatch, capsys, tmp_path, command, m):
    # the parse sorts the input's digraph once and keeps the order; the
    # strictly upper form read from it is built without sorting again
    moved = op1(m, (4, 2, 0, 3, 1))
    assert not moved.is_strictly_upper
    f = tmp_path / "moved.txt"
    f.write_text(format_matrix_text(moved))
    calls = []
    real = bottmatrix._topo_order
    monkeypatch.setattr(bottmatrix, "_topo_order",
                        lambda n, rows: calls.append(rows) or real(n, rows))
    code, out, _ = run(capsys, command, "--matrix", str(f))
    assert code == 0 and calls == [moved.rows]
    return moved, last_json(out)["results"]


@pytest.mark.parametrize("name", ["A29", "A4"])
def test_spin_relabels_once(monkeypatch, capsys, tmp_path, name):
    # the report builds the strictly upper form once, reads w1 and w2 from
    # its rows and hands it to the lift search; the verdicts are those of
    # the form the catalog gives
    m = catalog.DIM5_ORIENTED[name]
    _, res = _report_sorting_once(monkeypatch, capsys, tmp_path, "spin", m)
    assert res["spin"] is spin.has_spin(m) and res["lift_found"] is res["spin"]


@pytest.mark.parametrize("name", ["A29", "A4"])
def test_invariants_relabels_once(monkeypatch, capsys, tmp_path, name):
    m = catalog.DIM5_ORIENTED[name]
    # the normalization block is the relabelling the parse kept, and the
    # relabelling-invariant fields are those of the catalog form
    moved, res = _report_sorting_once(monkeypatch, capsys, tmp_path, "invariants", m)
    perm = [p - 1 for p in res["normalization"]["permutation"]]
    assert tuple(perm) == moved._perm
    assert res["normalization"]["matrix"] == to_json_dict(op1(moved, perm))
    assert (res["orientable"], res["rank"]) == (True, rank_masks(m.rows))


def test_prop1(capsys):
    code, out, _ = run(capsys, "prop1", "--dim", "4")
    assert code == 0
    res = last_json(out)["results"]
    assert res["ok"] is True
    assert len(res["checks"]) == 8


def test_rigidity(capsys):
    code, out, _ = run(capsys, "rigidity", "--dim", "3")
    assert code == 0
    res = last_json(out)["results"]
    assert res["violations"] == []


def test_rigidity_violation_exits_3_with_both_matrices(capsys, monkeypatch):
    # hide the first isomorphism the experiment expects: the report names
    # the pair in the {"n", "rows"} form and the exit code is 3
    hidden = []
    original = rigidity.ring_isomorphic

    def hide_first(a, b):
        found = original(a, b)
        if hidden or found is None:
            return found
        hidden.append((a, b))
        return None

    monkeypatch.setattr(rigidity, "ring_isomorphic", hide_first)
    code, out, _ = run(capsys, "rigidity", "--dim", "3")
    assert code == 3
    (a, b), = hidden
    assert last_json(out)["results"]["violations"] == [
        {"kind": "missing-isomorphism", "a": to_json_dict(a), "b": to_json_dict(b)}]


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("content", [
    b"2\n01\n10\n",  # a 2-cycle
    b'{"n": "x", "rows": []}',
    b'{"n": null, "rows": []}',
    b'{"n": 2, "rows": [1, 2]}',
    b'{"n": 2, "rows": null}',
    b'{"n": 2.5, "rows": ["01", "00"]}',  # not read as n = 2
    b'{"n": true, "rows": ["0"]}',  # not read as n = 1
    b"2\n0\xff\n00\n",  # not UTF-8
], ids=["2-cycle", "n-str", "n-null", "rows-ints", "rows-null", "n-float", "n-bool", "not-utf8"])
def test_parse_failure_exits_2(capsys, monkeypatch, tmp_path, content, source):
    if source == "file":
        f = tmp_path / "bad.txt"
        f.write_bytes(content)
        path = str(f)
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content), encoding="utf-8"))
        path = "-"
    code, out, err = run(capsys, "spin", "--matrix", path)
    assert code == 2
    assert err.startswith("error: ") and not out


@pytest.mark.parametrize("command", ["invariants", "spin"])
@pytest.mark.parametrize("content, n", [
    ('{"n": 0, "rows": []}', 0),
    ('{"n": -2, "rows": []}', -2),
    ("0\n", 0),
    ("-1\n", -1),
], ids=["json-0", "json-neg", "text-0", "text-neg"])
def test_dimension_below_one_is_named(capsys, tmp_path, command, content, n):
    f = tmp_path / "m.txt"
    f.write_text(content)
    code, out, err = run(capsys, command, "--matrix", str(f))
    assert code == 2 and not out
    assert err == f"error: dimension must be at least 1, got {n}\n"


@pytest.mark.parametrize("command", ["invariants", "spin"])
def test_matrix_above_the_report_bound_exits_2(capsys, tmp_path, command):
    from bottclass.cli import REPORT_BOUND

    n = REPORT_BOUND + 1
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"n": n, "rows": ["0" * n] * n}))
    code, out, err = run(capsys, command, "--matrix", str(f))
    assert code == 2 and not out
    assert err == f"error: report at n={n} exceeds the configured bound {REPORT_BOUND}\n"


MATRIX_FIXTURES = sorted(p for p in FIXTURES.glob("*.txt") if p.name != "star_family_7.txt")


def report_of(monkeypatch, capsys, command, m):
    """The results of one report on m, read from stdin."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(to_json_dict(m))))
    code, out, err = run(capsys, command, "--matrix", "-")
    assert code == 0, err
    return last_json(out)["results"]


def _random_strict_upper(rng, n):
    return bottmatrix.BottMatrix(n, tuple(rng.getrandbits(n) & -(2 << i) & ((1 << n) - 1)
                                          for i in range(n)))


def _random_oriented(rng, n):
    """A strictly upper matrix with even rows: bit n-1 evens each row."""
    rows = _random_strict_upper(rng, n).rows
    return bottmatrix.BottMatrix(n, tuple(r ^ (r.bit_count() & 1) << (n - 1) for r in rows))


def _check_reports_against_the_ring(monkeypatch, capsys, m):
    # the reports read w1, w2 and betti from the rows; the ring is the oracle
    ring = cohomology.ring_of(m)
    expected = {"w1": cohomology.format_poly(ring.stiefel_whitney(1)),
                "w2": cohomology.format_poly(ring.stiefel_whitney(2))}
    res = report_of(monkeypatch, capsys, "invariants", m)
    assert {k: res[k] for k in expected} == expected, m.rows
    assert res["betti"] == [ring.betti_z2(k) for k in range(m.n + 1)], m.rows
    res = report_of(monkeypatch, capsys, "spin", m)
    assert {k: res[k] for k in expected} == expected, m.rows
    if res["orientable"]:
        assert res["spin"] is ring.stiefel_whitney(2).is_zero(), m.rows


def test_reports_equal_the_ring_on_fixtures_and_every_strict_n_le_5(monkeypatch, capsys):
    mats = [parse_matrix(p.read_text()) for p in MATRIX_FIXTURES] + list(catalog.star_family())
    mats += [m for n in range(1, 6) for m in bottmatrix.enumerate_strict_upper(n)]
    assert len(mats) == 8 + 512 + 1 + 2 + 8 + 64 + 1024
    for m in mats:
        _check_reports_against_the_ring(monkeypatch, capsys, m)


def test_reports_equal_the_ring_on_seeded_permuted_n6_to_12(monkeypatch, capsys):
    # the n = 12 ring holds about 100 MiB, with its lane masks cached
    rng = random.Random(612)
    try:
        for n in range(6, 13):
            for k in range(4 if n < 12 else 2):
                m = _random_oriented(rng, n) if k % 2 else _random_strict_upper(rng, n)
                moved = op1(m, rng.sample(range(n), n))
                _check_reports_against_the_ring(monkeypatch, capsys, moved)
    finally:
        cohomology._lane_masks.cache_clear()


@pytest.mark.parametrize("command", ["invariants", "spin"])
def test_reports_build_no_ring(monkeypatch, capsys, command):
    def refuse(ring, matrix):
        raise AssertionError("a report built a CohomRing")

    monkeypatch.setattr(cohomology.CohomRing, "__init__", refuse)
    for path in MATRIX_FIXTURES:
        code, out, err = run(capsys, command, "--matrix", str(path))
        assert code == 0 and "w2" in last_json(out)["results"], (path.name, err)


@pytest.mark.parametrize("command", ["invariants", "spin"])
def test_matrix_above_the_ring_bound_is_reported(monkeypatch, capsys, command):
    # n = 13 was refused while the reports built the ring
    rng = random.Random(13)
    res = report_of(monkeypatch, capsys, command, op1(_random_oriented(rng, 13), rng.sample(range(13), 13)))
    assert res["orientable"] is True and res["w1"] == "0" and "normalization" in res
    if command == "spin":
        assert res["lift_found"] is res["spin"] is (res["w2"] == "0")


def _spin_factor_product():
    """Twelve copies of the Spin n = 5 factor with rows 18, 0, 0, 0, 0 (x2
    and x5 in row 1), then four zero rows: n = 64."""
    rows = sum(((18 << 5 * k, 0, 0, 0, 0) for k in range(12)), ()) + (0,) * 4
    return bottmatrix.BottMatrix(64, rows)


@pytest.mark.parametrize("is_spin", [True, False], ids=["spin", "not-spin"])
def test_reports_at_n64(monkeypatch, capsys, is_spin):
    factor = bottmatrix.BottMatrix(5, (18, 0, 0, 0, 0))
    assert cohomology.ring_of(factor).stiefel_whitney(2).is_zero()
    rng = random.Random(64)
    m = _spin_factor_product() if is_spin else _random_oriented(rng, 64)
    moved = op1(m, rng.sample(range(64), 64))
    res = report_of(monkeypatch, capsys, "invariants", moved)
    assert res["normalization"]["matrix"] == to_json_dict(bottmatrix.to_strict_upper(moved)[1])
    assert res["orientable"] is True and res["w1"] == "0"
    assert (res["w2"] == "0") is is_spin
    assert res["betti"] == [comb(64, k) for k in range(65)]
    w2 = res["w2"]
    res = report_of(monkeypatch, capsys, "spin", moved)
    assert res["w2"] == w2
    assert res["spin"] is res["lift_found"] is spin.has_spin(moved) is is_spin


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "invariants", "--matrix", "/nonexistent/m.txt")
    assert code == 2


def test_bad_dim_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "9")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("classify", "--dim", "0"),
    ("enumerate", "--dim", "0"),
    ("prop1", "--dim", "1"),
    ("prop1", "--dim", "9"),
    ("rigidity", "--dim", "0"),
    ("table", "--max-dim", "0"),
    ("table", "--max-dim", "-3"),
    ("table", "--max-dim", "0", "--csv"),
])
def test_out_of_range_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and not out


def test_table_above_the_classify_bound_exits_2_before_classifying(monkeypatch, capsys):
    # the bound is checked on --max-dim itself, so no dimension below it is
    # classified first
    from bottclass import cli
    from bottclass.bottmatrix import CLASSIFY_BOUND

    classified = []
    monkeypatch.setattr(cli, "diffeo_classes", classified.append)
    for extra in ((), ("--csv",)):
        code, out, err = run(capsys, "table", "--max-dim", str(CLASSIFY_BOUND + 1), *extra)
        assert code == 2 and not out
        assert err == (f"error: max dimension {CLASSIFY_BOUND + 1} exceeds the configured "
                       f"bound {CLASSIFY_BOUND}\n")
    assert classified == []


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    # only UsageError (and parse/file errors) exit 2; a stray ValueError
    # from inside the package is a bug and propagates
    from bottclass import cli

    def broken(dim):
        raise ValueError("internal slip")

    monkeypatch.setattr(cli, "diffeo_classes", broken)
    with pytest.raises(ValueError, match="internal slip"):
        main(["classify", "--dim", "3"])


def test_assertion_error_propagates(monkeypatch, capsys):
    # the package raises InvariantViolation, never assert; an AssertionError
    # is a bug like any other exception and is not mapped to an exit code
    from bottclass import cli

    def broken(dim):
        raise AssertionError("stray assert")

    monkeypatch.setattr(cli, "diffeo_classes", broken)
    with pytest.raises(AssertionError, match="stray assert"):
        main(["classify", "--dim", "3"])
    assert capsys.readouterr().err == ""


def test_invariant_violation_exits_3(monkeypatch, capsys):
    from bottclass import cli
    from bottclass.gf2 import InvariantViolation

    def broken(dim):
        raise InvariantViolation("orbit check failed")

    monkeypatch.setattr(cli, "diffeo_classes", broken)
    code, _, err = run(capsys, "classify", "--dim", "3")
    assert code == 3
    assert "orbit check failed" in err


def test_matrix_from_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(format_matrix_text(catalog.DIM5_ORIENTED["A49"])))
    code, out, _ = run(capsys, "invariants", "--matrix", "-")
    assert code == 0
    assert last_json(out)["results"]["w2"] == "0"


def test_json_matrix_input(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text(json.dumps(to_json_dict(catalog.DIM5_ORIENTED["A37"])))
    code, out, _ = run(capsys, "spin", "--matrix", str(f))
    assert code == 0
    assert last_json(out)["results"]["spin"] is True


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "classify", "--dim", "4")
    _, out2, _ = run(capsys, "classify", "--dim", "4")
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bottclass.cli", "table", "--max-dim", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rows = json.loads(proc.stdout.strip().splitlines()[-1])["results"]["rows"]
    assert rows[0]["rbm_classes"] == 1
