"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 0-9 [--workloads nash-mixed,graph-bayes]
                            [--trace 0|1] [--out bench/baseline.json --commit <hash>]

Each run is a fresh ``run.py`` process, one at a time. For every metric the
script prints the median over seeds, the quartiles and the spread
(interquartile distance over the median), and for end-to-end metrics how
that spread compares with the bound in BENCHMARK.json. With ``--out`` the
summary is merged into a JSON file under the key ``end_to_end`` or
``per_layer``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from record import parse_seeds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--commit", default=None, help="commit measured, stored with --out")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    summary = {}
    for workload in names:
        infos, results = [], []
        for seed in parse_seeds(args.seeds):
            info, result = one_run(workload, seed, config["run_seconds"], args.trace)
            infos.append(info)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = first["unit"]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        if "kind_ms" in infos[0]:
            entry["kind_ms"] = {
                kind: statistics.median(i["kind_ms"][kind] for i in infos) for kind in infos[0]["kind_ms"]
            }
            entry["samples"] = statistics.median(i["samples"] for i in infos)
            entry["raw"] = {name: summarize([i[name] for i in infos]) for name in infos[0] if name.startswith("raw_")}
        summary[workload] = entry
        for name, m in metrics.items():
            if name in bounds:
                verdict = "ok" if m["spread"] <= bounds[name] / 3 else (
                    "over a third of the bound" if m["spread"] <= bounds[name] else "OVER THE BOUND")
                print(f"  {name:14s} median {m['median']:.4f} spread {m['spread']:.3f} "
                      f"(bound {bounds[name]}) {verdict}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        doc["python"] = platform.python_version()
        if args.commit:
            doc["commit"] = args.commit
        doc["run_seconds"] = config["run_seconds"]
        doc.setdefault("end_to_end" if args.trace == 0 else "per_layer", {}).update(
            {w: dict(e, seeds=args.seeds) for w, e in summary.items()}
        )
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
