"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/summarize.py --seeds 1-10 [--workloads reduced,grid]
        [--seconds 20] [--trace 0] [--out perfbench/baseline.json]

For every workload and metric it reports the median of the runs, their
quartiles from statistics.quantiles(values, n=4), and the spread
(third quartile - first quartile) / median that BENCHMARK.json's bounds are
judged against. Runs go one after another, never in parallel.

With --trace 0 it also summarizes the unscaled latencies and throughput that
run.py prints to stderr as `raw:`, under "raw_metrics", so the spread the
calibration removes stays on record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr}")
    tagged = {line.split(": ", 1)[0]: json.loads(line.split(": ", 1)[1])
              for line in res.stderr.splitlines() if line.startswith(("meta: ", "raw: "))}
    return json.loads(res.stdout.splitlines()[-1]), tagged["meta"], tagged.get("raw")


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="LO-HI, at least two seeds")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    report = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs, raws = [], []
        for seed in _seeds(args.seeds):
            result, meta, raw = _run(workload, seed, seconds, args.trace)
            runs.append(result)
            if raw is not None:
                units = result["metrics"]
                raws.append({k: {"value": v, "unit": units[k]["unit"]} for k, v in raw.items()})
            report["meta"] = meta
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": summarize([r["metrics"] for r in runs]),
        }
        if raws:
            report["workloads"][workload]["raw_metrics"] = summarize(raws)
        for name, m in report["workloads"][workload]["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:8s} {name:52s} median {m['median']:12.4f} {m['unit']:6s} spread {spread}")
        for name, m in report["workloads"][workload].get("raw_metrics", {}).items():
            print(f"{workload:8s} {'raw ' + name:52s} median {m['median']:12.4f} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
