"""sextic benchmark: time-to-verdict and scan throughput on four corpora.

    python3 perfbench/run.py --workload reduced --seed 1 --seconds 20 --trace 0

Builds the workload's corpus from the seed, measures it in a separate
worker process (one thread, one client, closed loop) through sextic's
public API, then checks every outcome against sympy in this process and
prints one JSON line with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics. Set-up is measured in
SETUP_RUNS fresh processes, half of them before the timed one and half
after, so they sample the host at both ends of the run. Each set-up time is
scaled by the time a fixed process, spawned just before it, takes to start
Python and run worker.calibrate; setup_s is the median of the scaled times.
--trace 1 reports per-layer metrics: the worker times half the run untraced,
then one pass with spans on, and the two medians give the tracing overhead.

The worker times whole passes over the corpus, so every op is attempted in
every run; `attempted` and `failed` count each op of the corpus once, and so
depend on the seed alone, not on how many ops the host got through.

Run metadata (CPUs, Python, mpmath and its backend, src/sextic line count,
commit) and every mismatch with its input go to stderr. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "sextic"

SETUP_RUNS = 11  # fresh processes whose set-up times give setup_s
MIN_OPS = 100  # latency_ms.p90 needs ten samples beyond it; every corpus has as many
WORKER_TIMEOUT = 170
# The host's speed drifts between runs, and process start-up with it. Each
# set-up time is scaled by SETUP_NOMINAL_S over the time this fixed process,
# which shares no code with sextic, takes from spawn to exit.
SETUP_REFERENCE = f"import sys; sys.path.insert(0, {str(HERE)!r}); import worker; worker.calibrate(3000)"
SETUP_NOMINAL_S = 0.14

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    from spans import RUNG_PARENTS, TARGETS

    units = {}
    for layer, names in TARGETS.items():
        for name in names:
            for field, unit in (("self_ms", "ms"), ("calls", "count"), ("failed", "count")):
                units[f"{layer}.{name}.{field}"] = unit
    for parent in RUNG_PARENTS:
        short = parent.split(".")[1]
        units[f"roots.find_roots.in_{short}.self_ms"] = "ms"
        units[f"roots.find_roots.in_{short}.calls"] = "count"
        units[f"{parent}.rungs"] = "count"
    units["roots.find_roots.max_bits"] = "bits"
    units["quintic.params_from_ab.hit_ratio"] = "ratio"
    units["trace.overhead_pct"] = "%"
    units["ops.failed_share"] = "ratio"
    units["ops.wrong_verdicts"] = "count"
    return units


def _worker(job: dict) -> dict:
    """Run the worker once; set-up time counts from just before the spawn."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(t0)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(json.dumps(job).encode(), timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(out)


def _setup(job: dict) -> tuple:
    """Run the worker once, just after the reference process.

    Returns (worker result, set-up time scaled to the nominal start-up)."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", SETUP_REFERENCE], cwd=ROOT, check=True, timeout=60)
    reference_s = time.monotonic() - t0
    res = _worker(job)
    return res, res["setup_s"] * SETUP_NOMINAL_S / reference_s


def _commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _meta(worker_meta: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **worker_meta,
        "src_sextic_lines": sum(len(p.read_text().splitlines()) for p in SOURCE.glob("*.py")),
        "commit": _commit(),
    }


def _check(workload: str, ops: list, outcomes: dict) -> dict:
    """index -> [(status, detail)] per verdict unit (a grid point, else the op)."""
    from reference import CHECKS

    return {int(i): CHECKS[workload](ops[int(i)], o) for i, o in outcomes.items()}


def _tally(indices: list, verdicts: dict) -> dict:
    count = {"ok": 0, "failed": 0, "wrong": 0}
    for i in indices:
        for status, _ in verdicts[i]:
            count[status] += 1
    return count


def _diagnose(ops: list, timed: dict, tally: dict, raw_setups: list) -> None:
    """Unscaled timings, slowest ops and per-class medians, to stderr."""
    lat, raw = timed["latencies"], timed["raw"]
    print("raw: " + json.dumps({
        "setup_s": statistics.median(raw_setups),
        "verdicts_per_s": tally["ok"] / sum(raw),
        "latency_ms.p50": statistics.median(raw) * 1e3,
        "latency_ms.p90": statistics.quantiles(raw, n=10)[8] * 1e3,
    }), file=sys.stderr)
    slowest = sorted(zip(lat, timed["indices"]), reverse=True)[:3]
    print("slowest ops: " + "; ".join(f"{t * 1e3:.0f} ms {json.dumps(ops[i])}" for t, i in slowest),
          file=sys.stderr)
    by_class: dict = {}
    for i, t in zip(timed["indices"], lat):
        by_class.setdefault(ops[i]["class"], []).append(t * 1e3)
    print("median ms by class: " + ", ".join(
        f"{c} {statistics.median(v):.1f} (n={len(v)})" for c, v in sorted(by_class.items())),
        file=sys.stderr)
    print(f"samples: {len(lat)} ops, {sum(tally.values())} verdict units, {tally}; "
          f"raw setups: {[round(s, 4) for s in raw_setups]}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description="sextic benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SOURCE / "__init__.py").is_file():
        print(f"no sextic sources at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {corpus.WORKLOADS}", file=sys.stderr)
        return 2
    ops = corpus.make(args.workload, args.seed)
    job = {
        "workload": args.workload,
        "ops": ops,
        "warmup": corpus.WARMUP[args.workload],
        "seconds": args.seconds / 2 if args.trace else args.seconds,
        "trace": bool(args.trace),
    }
    extra = 0 if args.trace else (SETUP_RUNS - 1) // 2
    setup_runs = [_setup({**job, "seconds": 0}) for _ in range(extra)]
    setup_runs.append(_setup(job))
    res = setup_runs[-1][0]
    setup_runs += [_setup({**job, "seconds": 0}) for _ in range(extra)]
    setups = [scaled for _, scaled in setup_runs]
    raw_setups = [r["setup_s"] for r, _ in setup_runs]

    verdicts = _check(args.workload, ops, res["outcomes"])
    if len(verdicts) != len(ops):
        raise SystemExit(f"only {len(verdicts)} of {len(ops)} ops have an outcome")
    passes = res["passes"]
    # every op of the corpus once, however many passes the run timed, so
    # attempted and failed depend on the seed alone
    total = _tally(range(len(ops)), verdicts)
    attempted = sum(total.values())
    for i in sorted(verdicts):
        for status, detail in verdicts[i]:
            if status == "wrong":
                print(f"MISMATCH {json.dumps(ops[i])}: {detail}", file=sys.stderr)

    if args.trace:
        metrics = dict(res["layers"])
        untraced, traced = (statistics.median(p["latencies"]) for p in passes)
        metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
        metrics["ops.failed_share"] = (total["failed"] + total["wrong"]) / attempted
        metrics["ops.wrong_verdicts"] = total["wrong"]
        units = per_layer_units()
        if set(metrics) != set(units):
            raise SystemExit(f"per-layer metrics differ from the list: {set(metrics) ^ set(units)}")
    else:
        timed = passes[0]
        lat = timed["latencies"]
        tally = _tally(timed["indices"], verdicts)
        metrics = {
            "setup_s": statistics.median(setups),
            "verdicts_per_s": tally["ok"] / sum(lat),
            "latency_ms.p50": statistics.median(lat) * 1e3,
            "latency_ms.p90": statistics.quantiles(lat, n=10)[8] * 1e3,
            "ok_share": total["ok"] / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        _diagnose(ops, timed, tally, raw_setups)
    print("meta: " + json.dumps(_meta(res["meta"])), file=sys.stderr)
    result = {
        "correct": total["wrong"] == 0,
        "attempted": attempted,
        "failed": total["failed"] + total["wrong"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
