import importlib
import json
import os
import shlex
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
    uncached = resolvents.reconstruct_reduced.__wrapped__
    monkeypatch.setattr(importlib.import_module("sextic.cli"), "reconstruct_reduced", uncached)
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


@pytest.mark.parametrize(
    "stem, argv",
    [
        # the 7x7 grid, captured before the scan was merged into
        # classify.scan_point; --jobs is accepted and changes nothing
        ("search_d-3_3_e-3_3", ["--d-range=-3:3", "--e-range=-3:3", "--jobs", "1"]),
        ("search_d-3_3_e-3_3", ["--d-range=-3:3", "--e-range=-3:3", "--jobs", "2"]),
        # captured before scan_point sieved points by resolvent roots mod
        # small primes: 1701 integer points, and 323 halves by thirds
        ("search_d-40_40_e-10_10", ["--d-range=-40:40", "--e-range=-10:10"]),
        ("search_d-4_4_halves_e-3_3_thirds", ["--d-range=-4:4:1/2", "--e-range=-3:3:1/3"]),
        # the benchmark grid, captured before the sieve went from the primes
        # 3..41 to all odd primes below 100 and gained its zero-constant exit
        ("search_d-50_50_e-2_2", ["--d-range=-50:50", "--e-range=-2:2"]),
    ],
    ids=["1", "2", "d-40_40_e-10_10", "d-4_4_halves_e-3_3_thirds", "d-50_50_e-2_2"],
)
def test_search_grid_matches_golden_output(capsys, stem, argv):
    golden = Path(__file__).parent / "golden" / stem
    code, out, err = run(capsys, "search", *argv)
    assert code == 0
    assert out == golden.with_suffix(".out").read_text()
    assert err == golden.with_suffix(".err").read_text()


def test_search_fractional_grid_matches_golden_output(capsys):
    # stdout and stderr captured before the closed-form tables moved to integer
    # arithmetic; 136 of the 171 points have a non-integer d or e
    golden = Path(__file__).parent / "golden" / "search_d-3_3_thirds_e-2_2_halves"
    code, out, err = run(capsys, "search", "--d-range=-3:3:1/3", "--e-range=-2:2:1/2")
    assert code == 0
    assert out == golden.with_suffix(".out").read_text()
    assert err == golden.with_suffix(".err").read_text()


# golden stem of each command line in README's "Command line" section; stdout
# and stderr were captured before search lost its process pool
README_GOLDENS = {
    "sextic classify --coeffs 36,0,0,0,36,18,5": "readme_classify_36_0_0_0_36_18_5",
    "sextic classify --d 1/2 --e 5/36 --format text": "readme_classify_d_1over2_e_5over36_text",
    "sextic resolvent --d 1 --e 2 --kind j --method both": "readme_resolvent_d_1_e_2_j_both",
    "sextic discriminant --d 0 --e 1": "readme_discriminant_d_0_e_1",
    "sextic audit --kind k": "readme_audit_k",
    "sextic search --d-range=-3:3 --e-range=-3:3": "search_d-3_3_e-3_3",
    "sextic search --quintic --box 40": "readme_search_quintic_box_40",
    "sextic quintic --a 20 --b 32": "readme_quintic_a_20_b_32",
}


def _readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("## Library", 1)[0]
    return [line.split("#")[0].strip() for line in section.splitlines() if line.startswith("sextic ")]


def test_readme_lists_the_command_lines_with_goldens():
    assert _readme_command_lines() == list(README_GOLDENS)


@pytest.mark.parametrize("line", list(README_GOLDENS), ids=list(README_GOLDENS.values()))
def test_readme_command_line_matches_golden_output(capsys, monkeypatch, line):
    monkeypatch.delenv("SEXTIC_PRECISION_BITS", raising=False)
    golden = Path(__file__).parent / "golden" / README_GOLDENS[line]
    code, out, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0
    assert out == golden.with_suffix(".out").read_text()
    assert err == golden.with_suffix(".err").read_text()


@pytest.mark.parametrize("stem", ["audit", "audit_text"])
def test_audit_matches_golden_output(capsys, stem):
    # both kinds, captured before the reconstruction paired each reference
    # cell with its fitted cell itself
    argv = ["audit"] + (["--format", "text"] if stem == "audit_text" else [])
    golden = Path(__file__).parent / "golden" / stem
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == golden.with_suffix(".out").read_text()
    assert err == golden.with_suffix(".err").read_text()


def test_search_pulls_no_point_ahead_of_the_printed_one(monkeypatch):
    # the grid is never materialized, so memory stays flat however large it is
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
        main(["search", "--d-range=1:1", "--e-range=1:2000"])
    assert ahead == [0] * 100


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


@pytest.mark.parametrize("d_range", ["1/0:2", "0:2:1/0"])
def test_search_range_with_zero_denominator_is_a_usage_error(capsys, d_range):
    # used to end in a ZeroDivisionError traceback
    code, out, err = run(capsys, "search", f"--d-range={d_range}", "--e-range=0:1")
    assert (code, out) == (1, "")
    assert err.endswith("argument --d-range: not a rational number: '1/0'\n")


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("quintic", "--a", "1", "--b", "2", "--params=-1,1/2,1"), ("--params", "--a/--b")),
        (("search", "--box", "3", "--d-range=0:1", "--e-range=0:1"),
         ("--box", "--d-range/--e-range")),
        (("search", "--quintic", "--box", "3", "--d-range=0:1", "--e-range=0:1"),
         ("--quintic", "--d-range/--e-range")),
    ],
)
def test_contradictory_flags_exit_one(capsys, argv, flags):
    # each used to exit 0 and silently drop one of the two flags
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"{flags[0]} and {flags[1]} are mutually exclusive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify",), "provide either --coeffs or both --d and --e"),  # _poly_from_args
        (("resolvent", "--coeffs", "1,0,0,0,0,1,1", "--kind", "j", "--method", "closed"),
         "--method closed needs the reduced --d/--e form"),
        (("search", "--quintic", "--box", "3", "--d-range=0:1", "--e-range=0:1"),
         "--quintic and --d-range/--e-range are mutually exclusive"),
        (("quintic", "--a", "0", "--b", "1"), "--a must be nonzero"),
    ],
    ids=["poly_from_args", "resolvent", "search", "quintic"],
)
def test_subcommand_usage_errors_name_the_subcommand(capsys, argv, message):
    # as argparse's own errors for the subcommand do, e.g. search --jobs 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: sextic {argv[0]} [-h] ")
    assert err.endswith(f"\nsextic {argv[0]}: error: {message}\n")


def test_search_rejects_jobs_below_one(capsys):
    # used to run serially
    code, out, err = run(capsys, "search", "--d-range=0:1", "--e-range=0:1", "--jobs", "-3")
    assert code == 1 and out == ""
    assert "--jobs: must be an integer >= 1" in err


@pytest.mark.parametrize("box", ["0", "-3", "x"])
def test_search_rejects_box_below_one_through_the_search_parser(capsys, box):
    # 0 and -3 used to print a bare "error: box must be >= 1"
    code, out, err = run(capsys, "search", "--quintic", f"--box={box}")
    assert (code, out) == (1, "")
    assert err.startswith("usage: sextic search [-h] ")
    message = f"argument --box: must be an integer >= 1, got {box!r}"
    assert err.endswith(f"\nsextic search: error: {message}\n")


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


def test_main_builds_its_parser_once_and_reads_the_env_per_call(capsys, monkeypatch):
    cli = importlib.import_module("sextic.cli")
    builds, bits = [], []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    def recording_radical_roots(params, precision_bits):
        bits.append(precision_bits)
        return radical_roots(params, precision_bits)

    build_parser, radical_roots = cli.build_parser, cli.radical_roots
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "radical_roots", recording_radical_roots)
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.delenv("SEXTIC_PRECISION_BITS", raising=False)
    golden = Path(__file__).parent / "golden" / "search_d-3_3_e-3_3"
    assert run(capsys, "search", "--d-range=-3:3")[0] == 1  # usage error first
    code, out, err = run(capsys, "search", "--d-range=-3:3", "--e-range=-3:3")
    assert code == 0
    assert out == golden.with_suffix(".out").read_text()
    assert err == golden.with_suffix(".err").read_text()
    monkeypatch.setenv("SEXTIC_PRECISION_BITS", "320")
    assert run(capsys, "quintic", "--a", "20", "--b", "32")[0] == 0
    monkeypatch.setenv("SEXTIC_PRECISION_BITS", "abc")
    code, out, err = run(capsys, "classify", "--d", "1", "--e", "2")
    assert code == 1 and out == ""
    assert "1..4096" in err and "Traceback" not in err
    monkeypatch.delenv("SEXTIC_PRECISION_BITS")
    assert run(capsys, "quintic", "--a", "20", "--b", "32")[0] == 0
    assert bits == [320, 256]
    assert len(builds) == 1


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


@pytest.mark.parametrize("kind", ["j", "k"])
@pytest.mark.parametrize(
    "coeffs", ["1,2,3,4,5,6,7", "36,0,0,0,36,18,5", "1,0,3/7,0,0,1,-2/9", "2,0,-3,1/5,0,0,7"]
)
def test_numeric_resolvent_matches_golden_output(capsys, coeffs, kind):
    # stdout captured before the p-adic engine shared its orbit products and
    # reused x^r in the lifting-prime sieve; three inputs have a non-integer
    # monic form, so the lift runs on a rescaled model (m > 1)
    name = f"resolvent_{kind}_" + coeffs.replace(",", "_").replace("/", "over")
    golden = Path(__file__).parent / "golden" / f"{name}.out"
    code, out, err = run(capsys, "resolvent", "--method", "numeric", "--kind", kind, f"--coeffs={coeffs}")
    assert (code, err) == (0, "")
    assert out == golden.read_text()
