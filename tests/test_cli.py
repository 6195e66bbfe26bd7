import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from sextic import resolvents
from sextic.cli import main
from sextic.exact import RatPoly
from sextic.resolvents import ResolventKind

EXPECTED_REPORT_FIELDS = [
    "input",
    "irreducible",
    "f_roots",
    "g_roots",
    "discriminant",
    "sqrt_discriminant",
    "bound",
    "solvable",
    "notes",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_scaled_family_sextic(capsys):
    code, out, _ = run(capsys, "classify", "--coeffs", "36,0,0,0,36,18,5")
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == EXPECTED_REPORT_FIELDS
    assert doc["solvable"] == "Yes"
    assert doc["bound"] == "SubgroupOfJ"
    assert doc["f_roots"] == ["0"]
    assert doc["irreducible"] is True


def test_classify_not_solvable_still_exit_zero(capsys):
    code, out, _ = run(capsys, "classify", "--coeffs", "1,0,0,0,0,1,1")
    assert code == 0
    assert json.loads(out)["solvable"] == "No"


def test_classify_degenerate_exit_two(capsys):
    code, _, err = run(capsys, "classify", "--d", "0", "--e", "0")
    assert code == 2
    assert "DegenerateSextic" in err


def test_classify_parametric_family_member(capsys):
    code, out, _ = run(capsys, "classify", "--coeffs", "1,0,-5,0,10,6,1")
    assert code == 0
    assert json.loads(out)["bound"] == "SubgroupOfK"


def test_classify_near_miss_of_family_member(capsys):
    # with c3 = -2 this is NOT in the t-family (2t-2 = 0 forces c3 = 0 when
    # c4 = t-6 = -5); pinned so nobody mistakes it for the member above
    code, out, _ = run(capsys, "classify", "--coeffs", "1,0,-5,-2,10,6,1")
    assert code == 0
    assert json.loads(out)["bound"] == "NotSolvableBound"


@pytest.mark.parametrize("d, e", [("1", "35/144"), ("2", "515/576"), ("3", "2595/1296")])
def test_classify_vanishing_constant_family_member(capsys, d, e):
    # e = (32d^4 + 3)/(144d^2) past d = 1/2: resolvent constants too big to factor
    code, out, err = run(capsys, "classify", "--d", d, "--e", e)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["solvable"] == "Yes"
    assert "0" in doc["f_roots"]


def test_parse_errors_exit_one(capsys):
    assert run(capsys, "classify")[0] == 1
    assert run(capsys, "classify", "--coeffs", "0,1,2")[0] == 1
    assert run(capsys, "classify", "--coeffs", "1,2,bad")[0] == 1
    assert run(capsys, "resolvent", "--kind", "j", "--method", "closed")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_resolvent_closed_partition(capsys):
    code, out, _ = run(capsys, "resolvent", "--d", "2", "--e", "1", "--kind", "k",
                       "--method", "closed", "--roots")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed"][-1] == "0"  # constant term vanishes
    assert len(doc["closed"]) == 11
    assert doc["rational_roots"] == ["0"]


def test_resolvent_both_reports_transcription_diff(capsys):
    code, out, _ = run(capsys, "resolvent", "--d", "1", "--e", "2", "--kind", "j",
                       "--method", "both")
    assert code == 0
    doc = json.loads(out)
    powers = {entry["x_power"] for entry in doc["diff"]}
    assert powers == {0, 7, 9, 12}


def test_resolvent_both_clean_for_partition(capsys):
    code, out, _ = run(capsys, "resolvent", "--d", "3", "--e", "2", "--kind", "k",
                       "--method", "both")
    doc = json.loads(out)
    assert doc["diff"] == []
    assert doc["closed"] == doc["numeric"]


def test_resolvent_numeric_on_huge_coefficients(capsys):
    # x^6 - a has partition resolvent z^10 - 66a^2 z^7 + 129a^4 z^4 - 64a^6 z.
    # For a = 10^400 complex root finding does not converge below 4096 bits;
    # the lifted roots need no precision
    from oracles import resolvent_by_complex_roots

    def expected(a):
        return [1, 0, 0, -66 * a**2, 0, 0, 129 * a**4, 0, 0, -64 * a**6, 0]

    small = resolvent_by_complex_roots(RatPoly([-2, 0, 0, 0, 0, 0, 1]), ResolventKind.PARTITION)
    assert list(reversed(small.coeffs)) == expected(2)
    code, out, err = run(capsys, "resolvent", f"--coeffs=1,0,0,0,0,0,{-10**400}", "--kind", "k",
                         "--method", "numeric")
    assert (code, err) == (0, "")
    assert json.loads(out)["numeric"] == [str(c) for c in expected(10**400)]


def test_numeric_resolvent_and_audit_never_find_roots(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complex root finding called")

    for name in ("sextic.roots", "sextic.resolvents", "sextic.cli"):
        module = importlib.import_module(name)
        if hasattr(module, "find_roots"):
            monkeypatch.setattr(module, "find_roots", refuse)
    # bypass the reconstruction cache, so that the audit is recomputed here
    uncached = resolvents._reconstruct_reduced.__wrapped__
    monkeypatch.setattr(resolvents, "_reconstruct_reduced", uncached)
    code, out, _ = run(capsys, "audit", "--kind", "k")
    assert code == 0 and json.loads(out)[0]["matches_reference"] is True
    points = [("--d", "1", "--e", "2"), ("--d", "1/2", "--e=-1/3")]
    for kind in ("j", "k"):
        for poly in points + [("--coeffs", "1,1,1,1,1,1,1")]:
            code, out, _ = run(capsys, "resolvent", *poly, "--kind", kind, "--method", "numeric")
            assert code == 0 and json.loads(out)["numeric"], (kind, poly)
        for poly in points:
            code, out, _ = run(capsys, "resolvent", *poly, "--kind", kind, "--method", "both")
            assert code == 0 and "diff" in json.loads(out), (kind, poly)


def test_discriminant_command(capsys):
    code, out, _ = run(capsys, "discriminant", "--d", "0", "--e", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == "-61504"
    assert doc["reduced_formula"] == "61504"


def test_rationals_round_trip(capsys):
    _, out, _ = run(capsys, "classify", "--coeffs", "36,0,0,0,36,18,5")
    doc = json.loads(out)
    assert F(doc["discriminant"]) == F(-289379, 5184)
    assert [F(c) for c in doc["input"]] == [36, 0, 0, 0, 36, 18, 5]


def test_byte_identical_output(capsys):
    a = run(capsys, "classify", "--d", "1", "--e", "1")
    b = run(capsys, "classify", "--d", "1", "--e", "1")
    assert a == b


def test_quintic_command(capsys):
    code, out, _ = run(capsys, "quintic", "--a", "20", "--b", "32")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["params"] == {"epsilon": -1, "c": "1/2", "e": "1"}
    assert len(doc["roots"]) == 5
    assert float(doc["residual"]) < 1e-30


def test_quintic_not_found(capsys):
    code, out, _ = run(capsys, "quintic", "--a", "1", "--b", "1")
    assert code == 0
    assert json.loads(out) == {"a": "1", "b": "1", "found": False}


def test_quintic_finds_parameters_above_the_old_height_bound(capsys):
    code, out, _ = run(capsys, "quintic", "--a=-9981458465/210769738",
                       "--b=-358811732994/3056161201")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["params"] == {"epsilon": 1, "c": "37/11", "e": "53/29"}
    assert float(doc["residual"]) < 1e-30


def test_quintic_with_c_zero(capsys):
    # x^5 + 15x + 44 has group F20 and parameters c = 0, e = -1
    code, out, _ = run(capsys, "quintic", "--a", "15", "--b", "44")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["params"] == {"epsilon": 1, "c": "0", "e": "-1"}
    assert float(doc["residual"]) < 1e-30
    code, out, err = run(capsys, "quintic", "--params=1,-1,1")
    assert code == 1 and out == "" and "nonnegative" in err


def test_quintic_explicit_params(capsys):
    code, out, _ = run(capsys, "quintic", "--params=-1,1/2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == "20" and doc["b"] == "32"


def test_search_quintic_box(capsys):
    code, out, _ = run(capsys, "search", "--quintic", "--box", "12")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(line["a"], line["b"]) for line in lines] == [("-5", "-12"), ("-5", "12")]
    assert lines[0]["params"]["c"] == "2"


def test_search_reduced_grid(capsys):
    code, out, err = run(capsys, "search", "--d-range", "0:2:2", "--e-range", "0:1")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(line["d"], line["e"]) for line in lines] == [("0", "1"), ("2", "1")]
    assert "DegenerateSextic" in err  # the (0, 0) grid point


def test_search_jobs_parallel_matches_serial(capsys):
    serial = run(capsys, "search", "--d-range", "0:2", "--e-range=-2:2")
    parallel = run(capsys, "search", "--d-range", "0:2", "--e-range=-2:2", "--jobs", "2")
    assert serial == parallel


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_grid_matches_golden_output(capsys, jobs):
    # stdout and stderr of the 7x7 grid, captured before the scan was merged
    # into classify.scan_point; hits and errors keep grid order at any --jobs
    golden = Path(__file__).parent / "golden" / "search_d-3_3_e-3_3"
    code, out, err = run(capsys, "search", "--d-range=-3:3", "--e-range=-3:3", "--jobs", jobs)
    assert code == 0
    assert out == golden.with_suffix(".out").read_text()
    assert err == golden.with_suffix(".err").read_text()


def test_search_jobs_pulls_a_bounded_window_of_points(monkeypatch):
    # the pool is fed a few chunks at a time instead of the whole grid up front
    import sextic.cli as cli

    pulled = 0
    real_range = cli._range_values

    def counting_range(lo, hi, step):
        nonlocal pulled
        for value in real_range(lo, hi, step):
            pulled += 1
            yield value

    class Enough(Exception):
        pass

    ahead = []

    def print_first_hundred(results):
        for printed, _ in enumerate(results, 1):
            ahead.append(pulled - 1 - printed)  # the 1 is the single d value
            if printed == 100:
                raise Enough

    monkeypatch.setattr(cli, "_range_values", counting_range)
    monkeypatch.setattr(cli, "_print_scan", print_first_hundred)
    with pytest.raises(Enough):
        main(["search", "--d-range=1:1", "--e-range=1:2000", "--jobs", "2"])
    assert len(ahead) == 100
    assert max(ahead) < 100  # a few chunks, not the 2000-point grid
    assert max(ahead) <= 2 * cli.SEARCH_AHEAD * cli.SEARCH_CHUNK


def test_search_negative_range_equals_form(capsys):
    code, out, _ = run(capsys, "search", "--d-range=-1:1", "--e-range=-2:2")
    assert code == 0
    hits = [json.loads(line) for line in out.splitlines()]
    assert ("0", "1") in {(h["d"], h["e"]) for h in hits}


def test_height_bound_flag_is_gone(capsys):
    # parameter recovery is exact, so there is no bound left to set
    for argv in (("search", "--quintic", "--box", "3"), ("quintic", "--a", "1/2", "--b", "3")):
        code, out, err = run(capsys, *argv, "--height-bound", "24")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --height-bound 24" in err


def test_search_rejects_jobs_below_one(capsys):
    # used to run serially
    code, out, err = run(capsys, "search", "--d-range=0:1", "--e-range=0:1", "--jobs", "-3")
    assert code == 1 and out == ""
    assert "--jobs: must be an integer >= 1" in err


def test_bad_range_step_exits_before_any_point_is_built():
    # the d range used to be built in full inside argparse before the bad e
    # step was reached; a child process keeps a regression from eating memory
    script = (
        "import sys, time\n"
        "from sextic.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['search', '--d-range=0:100000000', '--e-range=0:0:0'])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=20)
    assert done.returncode == 1
    assert "range step must be positive" in done.stderr
    assert float(done.stdout) < 1


def test_precision_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SEXTIC_PRECISION_BITS", "320")
    code, out, _ = run(capsys, "classify", "--d", "1", "--e", "1")
    assert code == 0


def test_precision_env_out_of_range_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("SEXTIC_PRECISION_BITS", "abc")
    code, out, err = run(capsys, "classify", "--d", "1", "--e", "2")
    assert code == 1 and out == ""
    assert "1..4096" in err and "Traceback" not in err


def test_negative_precision_classify_exits_one(capsys):
    code, out, err = run(capsys, "classify", "--d", "1", "--e", "2", "--precision-bits=-64")
    assert code == 1 and out == ""
    assert "1..4096" in err


def test_negative_precision_quintic_exits_one(capsys):
    # used to print five non-roots with residual 64.0 and exit 0
    code, out, err = run(capsys, "quintic", "--a", "20", "--b", "32", "--precision-bits=-64")
    assert code == 1 and out == ""
    assert "1..4096" in err


def test_precision_above_cap_exits_one(capsys):
    code, out, err = run(capsys, "classify", "--d", "1", "--e", "2", "--precision-bits=8192")
    assert code == 1 and out == ""
    assert "1..4096" in err and "PrecisionExhausted" not in err


def test_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--d", "2", "--e", "1", "--format", "text")
    assert code == 0
    assert "solvable: Yes" in out
    assert "bound: SubgroupOfK" in out


def test_quintic_text_format_renders_root_list(capsys):
    code, out, _ = run(capsys, "quintic", "--a", "20", "--b", "32", "--format", "text")
    assert code == 0
    assert "roots:" in out
    assert out.count("re=") == 5


def test_audit_partition_cli(capsys):
    code, out, _ = run(capsys, "audit", "--kind", "k")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 1
    assert docs[0]["matches_reference"] is True
    assert docs[0]["discrepancy_count"] == 0
    assert all(term["match"] for term in docs[0]["terms"])


@pytest.mark.slow
def test_audit_matching_cli_reports_the_four_defects(capsys):
    code, out, _ = run(capsys, "audit", "--kind", "j")
    assert code == 0
    doc = json.loads(out)[0]
    assert doc["matches_reference"] is False
    mismatched_powers = {t["x_power"] for t in doc["terms"] if not t["match"]}
    assert mismatched_powers == {0, 7, 9, 12}
    assert {"x_power", "d_power", "e_power", "reference", "fitted", "match"} <= set(doc["terms"][0])
    assert len(doc["holdout_points"]) == 20
