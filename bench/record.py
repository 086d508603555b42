"""Record output fingerprints and input properties into fingerprints.json.

    python3 bench/record.py --seeds 0-19 --commit <hash>

Runs every workload once per seed, untimed, checks each output with
``checks.py`` and stores, per workload and seed, the sha256 of every
invocation's stdout, their combined digest and the properties of the
generated inputs. Recording refuses to write when any output fails its check.
Re-record only when outputs are meant to change; ``run.py`` counts any
difference from these digests as a failed invocation.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
from fractions import Fraction

import checks
import run
import workloads


def input_properties(invocations, texts) -> dict:
    values = []
    games = degenerate = 0
    mixed_inputs = feasible = 0
    for inv, text in zip(invocations, texts):
        if inv.doc is None:
            continue
        tables = inv.doc["payoffs"].values() if "thetas" in inv.doc else [inv.doc["payoffs"]]
        stack = list(tables)
        while stack:
            node = stack.pop()
            if isinstance(node, list):
                stack.extend(node)
            else:
                values.append(Fraction(node))
        if "thetas" not in inv.doc:
            games += 1
            degenerate += bool(checks.best_deviation_edges(inv.doc)[1])
        if inv.argv[0] == "mixed":
            mixed_inputs += 1
            feasible += any(v is not None for v in json.loads(text)["periodic_mixed"].values())
    props = {
        "payoff_range": [str(min(values)), str(max(values))],
        "max_denominator": max(v.denominator for v in values),
        "degenerate_graph_share": round(degenerate / games, 4) if games else None,
    }
    if mixed_inputs:
        props["feasible_mixture_share"] = round(feasible / mixed_inputs, 4)
    return props


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record fingerprints.json")
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-31")
    parser.add_argument("--commit", required=True, help="commit the fingerprints belong to")
    args = parser.parse_args(argv)
    doc = {
        "commit": args.commit,
        "python": platform.python_version(),
        "seeds": args.seeds,
        "workloads": {},
    }
    run.WORK_DIR.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="record-", dir=run.WORK_DIR)
    try:
        for workload in workloads.WORKLOADS:
            mix: dict[str, int] = {}
            seeds = {}
            for seed in parse_seeds(args.seeds):
                target = run.Path(directory) / f"{workload}-{seed}"
                target.mkdir()
                setup = run.set_up(workload, seed, target, repeats=1)
                p = run.run_pass(setup.cli.main, setup.argvs, keep_text=True)
                for inv, code, text in zip(setup.invocations, p.codes, p.texts):
                    reason = "exit " + str(code) if code != 0 else checks.check_output(inv, text)
                    if reason is not None:
                        print(f"{workload} seed {seed}: {inv.kind}: {reason}", file=sys.stderr)
                        return 1
                if not mix:
                    for inv in setup.invocations:
                        mix[inv.kind] = mix.get(inv.kind, 0) + 1
                seeds[str(seed)] = {
                    "digest": run.combined_digest(p.digests),
                    "properties": input_properties(setup.invocations, p.texts),
                    "calls": [d[: run.FINGERPRINT_HEX] for d in p.digests],
                }
                print(f"{workload} seed {seed}: {seeds[str(seed)]['properties']}", flush=True)
            doc["workloads"][workload] = {"mix": dict(sorted(mix.items())), "seeds": seeds}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass
    run.FINGERPRINTS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
