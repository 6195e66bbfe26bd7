"""The measured process: one thread, one client, closed loop.

Started by run.py with the monotonic time taken just before the spawn, so
set-up time runs from process start. Reads the job from stdin, imports
sextic from the checkout's src/, prepares the corpus, runs one warm-up op
and then times whole passes over the corpus for about the job's seconds.
Writes one JSON object to stdout. It never imports sympy.

    python3 perfbench/worker.py <t0-monotonic> < job.json
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The host's speed drifts over seconds, by a factor of up to 2.5 within one
# run. A fixed stdlib workload timed between ops tracks that drift; each
# op's latency is scaled by CALIBRATION_NOMINAL_S over the median of the
# calibrations around it.
CALIBRATION_PERIOD_S = 0.2
CALIBRATION_NOMINAL_S = 0.0025


def calibrate(rounds: int = 400) -> float:
    """Seconds taken by Fraction and big-integer arithmetic sharing no code
    with sextic."""
    start = time.perf_counter()
    acc, x = Fraction(0), 3**200
    for i in range(1, rounds):
        acc += Fraction(i, i + 7)
        x = (x * 1234567 + i) % (10**120 + 7)
    return time.perf_counter() - start


def _prepare(workload: str, op: dict):
    """Turn one corpus op into a zero-argument callable into sextic's API."""
    import sextic

    if workload in ("reduced", "general"):
        poly = sextic.RatPoly([Fraction(c) for c in op["coeffs"]])
        return lambda: sextic.classify(poly)
    if workload == "grid":
        cli = importlib.import_module("sextic.cli")  # the attribute is looked up per call
        argv = ["search", f"--d-range={op['d']}:{op['d']}", f"--e-range={op['e_lo']}:{op['e_hi']}"]

        def row():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return row
    a, b = Fraction(op["a"]), Fraction(op["b"])
    quintic = sextic.RatPoly([b, a, 0, 0, 0, 1])

    def query():
        # as `search --quintic` and `sextic quintic` do
        params = sextic.params_from_ab(a, b)
        if params is None:
            return None
        return params, sextic.is_irreducible(quintic), sextic.radical_roots(params)

    return query


def _summary(workload: str, result) -> dict:
    """JSON-able outcome of one op, built outside the timed region."""
    if workload in ("reduced", "general"):
        return {
            "discriminant": str(result.discriminant),
            "irreducible": result.irreducible,
            "square": result.sqrt_discriminant is not None,
            "solvable": result.solvable.value,
        }
    if workload == "grid":
        rc, out, err = result
        return {"rc": rc, "stdout": out, "stderr": err}
    if result is None:
        return {"found": False}
    params, irreducible, tower = result
    return {
        "found": True,
        "params": [params.epsilon, str(params.c), str(params.e)],
        "irreducible": irreducible,
        "roots": [[str(z.real), str(z.imag)] for z in tower.roots],
    }


def _run_passes(workload, calls, seconds, outcomes):
    """Time whole passes over the corpus, in corpus order, until the end of
    the pass nearest to `seconds`, and at least one.

    Returns (indices, raw latencies, latencies scaled by the calibration)."""
    from sextic.errors import SexticError

    indices, latencies, cal_before = [], [], []
    cal = [calibrate()]
    last_cal = started = time.perf_counter()
    passes = 0
    while True:
        for i, call in enumerate(calls):
            if time.perf_counter() - last_cal >= CALIBRATION_PERIOD_S:
                cal.append(calibrate())
                last_cal = time.perf_counter()
            cal_before.append(len(cal) - 1)
            t = time.perf_counter()
            try:
                result = call()
                error = None
            except SexticError as exc:
                error = type(exc).__name__
            latencies.append(time.perf_counter() - t)
            indices.append(i)
            outcome = {"error": error} if error else _summary(workload, result)
            if i not in outcomes:
                outcomes[i] = outcome
            elif outcomes[i] != outcome:
                outcomes[i] = {"error": "InconsistentRepeat", "first": outcomes[i], "again": outcome}
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    cal.append(calibrate())
    # the median of the calibrations within about half a second of the op
    scaled = [
        lat * CALIBRATION_NOMINAL_S / statistics.median(cal[max(j - 2, 0) : j + 4])
        for lat, j in zip(latencies, cal_before)
    ]
    return indices, latencies, scaled


def main() -> int:
    t0 = float(sys.argv[1])
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import mpmath
    import sextic  # noqa: F401  (set-up cost: the import)

    workload = job["workload"]
    calls = [_prepare(workload, op) for op in job["ops"]]
    _prepare(workload, job["warmup"])()
    setup_s = time.monotonic() - t0
    out = {"setup_s": setup_s}
    if job["seconds"] > 0:
        outcomes: dict = {}
        passes = []
        indices, raw, lat = _run_passes(workload, calls, job["seconds"], outcomes)
        passes.append({"indices": indices, "raw": raw, "latencies": lat})
        if job["trace"]:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            with tracer:
                indices2, raw2, lat2 = _run_passes(workload, calls, 0, outcomes)
            passes.append({"indices": indices2, "raw": raw2, "latencies": lat2})
            out["layers"] = layer_metrics(tracer, len(indices2))
        out["passes"] = passes
        out["outcomes"] = {str(i): o for i, o in outcomes.items()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["meta"] = {"mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
