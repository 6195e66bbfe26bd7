"""The benchmark's own checks: wrapped names, call patterns, metric lists.

    python3 -m pytest -q perfbench/test_perfbench.py

A rename inside sextic that drops a traced name, or an import site the
tracer no longer reaches, fails here instead of reading as zero calls.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

NUMERIC_PATH = (
    "resolvents.resolvent_numeric_in_frame",
    "resolvents.monic_integer_rescale",
    "groups.orbit",
    "groups.eval_monomial_sum",
    "roots.expand_from_roots",
    "roots.round_to_int_poly",
)
CLOSED_PATH = ("resolvents.f_verified", "resolvents.g_verified")
QUINTIC = ("quintic.params_from_ab", "quintic.radical_roots")

# workload -> (spans that must be called, spans that must not be)
PATTERN = {
    "reduced": (
        ("classify.classify", "classify.is_irreducible", "exact.rational_roots",
         "exact.resultant", "resolvents.discriminant_exact") + CLOSED_PATH,
        NUMERIC_PATH + QUINTIC + ("cli.main",),
    ),
    "grid": (
        ("cli.main", "classify.classify", "classify.is_irreducible") + CLOSED_PATH,
        NUMERIC_PATH + QUINTIC,
    ),
    "general": (
        ("classify.classify", "classify.is_irreducible") + NUMERIC_PATH,
        CLOSED_PATH + QUINTIC + ("cli.main",),
    ),
    "quintic": (
        QUINTIC + ("classify.is_irreducible",),
        ("classify.classify", "cli.main", "resolvents.discriminant_exact")
        + CLOSED_PATH + NUMERIC_PATH,
    ),
}

# enough ops from the start of seed 0's corpus to reach every span named above
FIRST_OPS = {"reduced": 10, "grid": 2, "general": 6, "quintic": 10}


def test_every_required_site_is_wrapped_and_restored():
    import sextic.classify  # noqa: F401

    cls_mod = sys.modules["sextic.classify"]
    original = cls_mod.is_irreducible
    tracer = spans.Tracer()
    sites = tracer.install()
    try:
        for key, modules in spans.REQUIRED_SITES.items():
            for mod in modules:
                assert f"{mod}.{key.split('.')[1]}" in sites
        assert sys.modules["sextic.quintic"].is_irreducible is cls_mod.is_irreducible
        assert cls_mod.is_irreducible is not original
    finally:
        tracer.uninstall()
    assert cls_mod.is_irreducible is original


def test_missing_name_fails_loudly(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "exact", spans.TARGETS["exact"] + ("no_such_function",))
    with pytest.raises(LookupError):
        spans.Tracer().install()


@pytest.mark.parametrize("workload", sorted(PATTERN))
def test_call_pattern(workload):
    ops = corpus.make(workload, 0)[: FIRST_OPS[workload]]
    calls = [worker._prepare(workload, op) for op in ops]
    from sextic.errors import SexticError

    tracer = spans.Tracer()
    with tracer:
        for call in calls:
            try:
                call()
            except SexticError:
                pass
    called, not_called = PATTERN[workload]
    for key in called:
        assert tracer.stats[key].calls > 0, key
    for key in not_called:
        assert tracer.stats[key].calls == 0, key
    metrics = spans.layer_metrics(tracer, len(ops))
    expected = {k for k in run.per_layer_units() if not k.startswith(("trace.", "ops."))}
    assert set(metrics) == expected


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_corpus_is_a_function_of_the_seed():
    for workload in corpus.WORKLOADS:
        assert corpus.make(workload, 3) == corpus.make(workload, 3)
        assert corpus.make(workload, 3) != corpus.make(workload, 4)


def test_corpus_mix_is_the_same_for_every_seed():
    # a run attempts every op of its corpus once, so attempted, and failed on
    # code that fails the same inputs, must not depend on the seed
    for workload in corpus.WORKLOADS:
        mixes = {tuple(sorted(Counter(op["class"] for op in corpus.make(workload, s)).items()))
                 for s in range(4)}
        assert len(mixes) == 1, workload
        assert len(corpus.make(workload, 0)) >= run.MIN_OPS
    family = [op for op in corpus.make("reduced", 5) if op["class"] == "family"]
    assert sorted(Fraction(op["coeffs"][1]) for op in family) == corpus._family_ds()


def test_checks_catch_a_wrong_verdict():
    op = {"coeffs": ["5/36", "1/2", "1", "0", "0", "0", "1"]}
    disc = str(reference.polynomial_reference(tuple(op["coeffs"]))["discriminant"])
    right = {"discriminant": disc, "irreducible": True, "square": False, "solvable": "Yes"}
    assert reference.check_sextic(op, right) == [(reference.OK, "")]
    assert reference.check_sextic(op, {**right, "solvable": "No"})[0][0] == reference.WRONG
    assert reference.check_sextic(op, {**right, "discriminant": "1"})[0][0] == reference.WRONG
    assert reference.check_sextic(op, {"error": "FactoringExhausted"})[0][0] == reference.FAILED
    built = next(op for op in corpus.make("quintic", 0) if op["class"] == "built")
    box = {"class": "box", "a": "1", "b": "1"}
    assert reference.check_quintic(built, {"found": False})[0][0] == reference.WRONG
    assert reference.check_quintic(box, {"found": False}) == [(reference.OK, "")]


def test_degenerate_refusal_is_correct_only_with_repeated_roots():
    row = {"d": 0, "e_lo": 0, "e_hi": 0}
    refusal = {"rc": 0, "stdout": "", "stderr": "d=0 e=0: DegenerateSextic: repeated roots\n"}
    assert reference.check_grid_row(row, refusal)[0][0] == reference.OK
    silent = {"rc": 0, "stdout": "", "stderr": ""}
    assert reference.check_grid_row(row, silent)[0][0] == reference.WRONG
    row1 = {"d": 1, "e_lo": 1, "e_hi": 1}
    refusal1 = {"rc": 0, "stdout": "", "stderr": "d=1 e=1: DegenerateSextic: repeated roots\n"}
    assert reference.check_grid_row(row1, refusal1)[0][0] == reference.FAILED


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduced", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
