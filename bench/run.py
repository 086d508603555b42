"""Benchmark of the ``perigame`` command line, driven in process.

    python3 bench/run.py --workload nash-mixed --seed 3 --seconds 30 --trace 0

One process, one closed-loop caller, no threads: each invocation of
``periodic_games.cli.main(argv)`` starts after the previous one returned, with
stdout and stderr captured. The seed fixes the workload's input files (see
``workloads.py``); the package only ever sees those files.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py``) and the tracing overhead. The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. An invocation fails when it exits non-zero,
raises, prints output whose sha256 differs from the recorded fingerprint
(or, for a seed without one, from the first pass), or prints output that
``checks.py`` finds inconsistent with its input.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
# Recorded per-invocation fingerprints keep this many leading hex digits of
# the stdout sha256; the combined digest per workload and seed is kept whole.
FINGERPRINT_HEX = 16

# Set-up (import + generate + write) is repeated and its median reported.
SETUP_REPEATS = 5
# The tail percentile reported as call_p90_ms.
TAIL = 0.90

# Times are scaled to a reference CPU speed. The machine this benchmark was
# tuned on, a VM whose cores other tenants share, changes speed by up to 2x
# in phases lasting from under a second to minutes, which raw wall time
# cannot tell apart from a change to the program. ``kernel_seconds`` times a fixed
# piece of exact arithmetic, the kind of Fraction work the package does,
# right before and right after every timed span; the span is scaled by
# REFERENCE_KERNEL_S / (mean of the two). REFERENCE_KERNEL_S is the kernel's
# fastest time on that machine (Xeon, 2 vCPUs at 2.0 GHz, CPython 3.11.7), so
# a scaled time reads as the raw time on an uncontended core there. Raw times
# are printed next to the scaled ones.
REFERENCE_KERNEL_S = 4.0e-3
KERNEL_MATRICES = [
    [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i * j) % 11) for j in range(8)] for i in range(7)],
    [[Fraction((13 * i + 7 * j) % 23 - 11, 1 + (i * j + 5) % 12) for j in range(11)] for i in range(10)],
]


def kernel_seconds() -> float:
    """Wall time of exact Gauss-Jordan elimination of the KERNEL_MATRICES."""
    start = time.perf_counter()
    for matrix in KERNEL_MATRICES:
        m = [row[:] for row in matrix]
        for c in range(len(m)):
            pivot = next(i for i in range(c, len(m)) if m[i][c] != 0)
            m[c], m[pivot] = m[pivot], m[c]
            m[c] = [v / m[c][c] for v in m[c]]
            for i in range(len(m)):
                if i != c and m[i][c] != 0:
                    factor = m[i][c]
                    m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return time.perf_counter() - start


def scaled(raw: float, kernel_before: float, kernel_after: float) -> float:
    return raw * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)


def load_cli():
    """Import ``periodic_games.cli`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "periodic_games" or m.startswith("periodic_games.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("periodic_games.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"periodic_games imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Setup:
    cli: object
    invocations: list
    argvs: list
    seconds: list  # scaled, one per repetition


def set_up(workload: str, seed: int, directory: Path, repeats: int = SETUP_REPEATS) -> Setup:
    """Import the package, generate the inputs and write them, ``repeats`` times."""
    seconds, contents = [], set()
    kernel_before = kernel_seconds()
    for k in range(repeats):
        start = time.perf_counter()
        cli = load_cli()
        invocations = workloads.build(workload, seed)
        target = directory / f"inputs{k}"
        target.mkdir()
        argvs = []
        digest = hashlib.sha256()
        for n, inv in enumerate(invocations):
            if inv.doc is None:
                argvs.append(list(inv.argv))
                continue
            text = workloads.file_text(inv.doc)
            path = target / f"{n:03d}.json"
            path.write_text(text, encoding="utf-8")
            argvs.append(inv.resolved_argv(str(path)))
            digest.update(text.encode("utf-8"))
        elapsed = time.perf_counter() - start
        kernel_after = kernel_seconds()
        seconds.append(scaled(elapsed, kernel_before, kernel_after))
        kernel_before = kernel_after
        contents.add(digest.hexdigest())
        if k:
            shutil.rmtree(directory / f"inputs{k - 1}")
    if len(contents) != 1:
        raise RuntimeError("input generation is not deterministic for a fixed seed")
    return Setup(cli, invocations, argvs, seconds)


@dataclass
class Pass:
    seconds: list  # per invocation, scaled to the reference speed
    raw: list  # per invocation, wall time as measured
    codes: list
    digests: list
    texts: list  # stdout per invocation, kept only when asked for

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def run_pass(main, argvs, keep_text: bool = False) -> Pass:
    result = Pass([], [], [], [], [])
    kernel_before = kernel_seconds()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # an escaped exception is a failed invocation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        kernel_after = kernel_seconds()
        result.raw.append(elapsed)
        result.seconds.append(scaled(elapsed, kernel_before, kernel_after))
        kernel_before = kernel_after
        text = out.getvalue()
        result.codes.append(code)
        result.digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        if keep_text:
            result.texts.append(text)
    return result


def recorded_fingerprints(workload: str, seed: int):
    """Per-invocation stdout sha256 recorded at the parent commit, or None."""
    if not FINGERPRINTS.exists():
        return None
    doc = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    entry = doc["workloads"].get(workload, {}).get("seeds", {}).get(str(seed))
    return None if entry is None else entry["calls"]


def combined_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


class Verdicts:
    """Tallies attempted and failed invocations against reference digests."""

    def __init__(self, invocations, reference):
        self.invocations = invocations
        self.reference = reference  # None until the first checked pass
        self.bad_inputs: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check_texts(self, p: Pass) -> None:
        for k, (inv, text) in enumerate(zip(self.invocations, p.texts)):
            reason = checks.check_output(inv, text)
            if reason is not None:
                self.bad_inputs[k] = f"{inv.kind}: {reason}"

    def count(self, p: Pass) -> None:
        if self.reference is None:
            self.reference = list(p.digests)
        for k, (code, digest) in enumerate(zip(p.codes, p.digests)):
            self.attempted += 1
            reason = None
            if code != 0:
                reason = f"exit {code}"
            elif not digest.startswith(self.reference[k]):
                reason = "stdout differs from the fingerprint"
            elif k in self.bad_inputs:
                reason = self.bad_inputs[k]
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{self.invocations[k].kind} ({' '.join(self.invocations[k].argv)}): {reason}")


def warm_up(setup: Setup) -> None:
    """One untimed call per command and flag set, so first-call costs stay out of the timings."""
    run_pass(setup.cli.main, [setup.argvs[k] for k in smallest_per_command(setup.invocations)])


def smallest_per_command(invocations) -> list[int]:
    """Index of the invocation with the smallest input, per command and flag set.

    ``--to`` and ``--format`` values count as part of the flag set; the
    values of ``--through``, ``--seed`` and ``--count`` do not.
    """
    best: dict[tuple, tuple] = {}
    for k, inv in enumerate(invocations):
        key = (inv.argv[0],) + tuple(
            f"{a} {b}" if a in ("--to", "--format") else a
            for a, b in zip(inv.argv, inv.argv[1:]) if a.startswith("--")
        )
        size = len(workloads.file_text(inv.doc)) if inv.doc else 0
        if key not in best or size < best[key][0]:
            best[key] = (size, k)
    return sorted(k for _, k in best.values())


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


def by_kind(invocations, passes) -> dict:
    """Median milliseconds per cost class, over all its timed calls."""
    samples: dict[str, list] = {}
    for p in passes:
        for inv, s in zip(invocations, p.seconds):
            samples.setdefault(inv.kind, []).append(s)
    return {kind: round(1000 * statistics.median(v), 2) for kind, v in sorted(samples.items())}


def end_to_end(setup: Setup, verdicts: Verdicts, seconds: float) -> tuple[dict, dict]:
    main = setup.cli.main
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(main, setup.argvs, keep_text=not passes)
        if not passes:
            verdicts.check_texts(p)
        verdicts.count(p)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(sum(q.raw) for q in passes) > seconds:
            break
    samples = [s for p in passes for s in p.seconds]
    tail = percentile(samples, TAIL)
    metrics = {
        "calls_per_s": (statistics.median(len(p.seconds) / p.wall for p in passes), "1/s"),
        "call_p50_ms": (1000 * statistics.median(samples), "ms"),
        "call_p90_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup.seconds), "s"),
    }
    info = {
        "passes": len(passes),
        "samples": len(samples),
        "samples_beyond_p90": sum(1 for s in samples if s > tail),
        "failed_ratio": verdicts.failed / verdicts.attempted,
        "digest": combined_digest(passes[0].digests),
        "kind_ms": by_kind(setup.invocations, passes),
        "raw_calls_per_s": statistics.median(len(p.raw) / sum(p.raw) for p in passes),
        "raw_call_p50_ms": 1000 * statistics.median(s for p in passes for s in p.raw),
        "raw_call_p90_ms": 1000 * percentile([s for p in passes for s in p.raw], TAIL),
    }
    return metrics, info


def per_layer(setup: Setup, verdicts: Verdicts, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; spans come from the traced ones."""
    main = setup.cli.main
    untraced, traced = [], []
    start = time.perf_counter()
    texts = None
    while True:
        p = run_pass(main, setup.argvs, keep_text=texts is None)
        if texts is None:
            texts = p.texts
            verdicts.check_texts(p)
        verdicts.count(p)
        untraced.append(p)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            p = run_pass(main, setup.argvs)
        finally:
            tracer.uninstall()
        verdicts.count(p)
        traced.append((p, tracer))
        elapsed = time.perf_counter() - start
        pair = sum(untraced[-1].raw) + sum(p.raw)
        if elapsed + pair > seconds:
            break
    first = traced[0][1]
    untraced_wall = statistics.median(p.wall for p in untraced)
    traced_wall = statistics.median(p.wall for p, _ in traced)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (first.calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(t.self_s[name] for _, t in traced), "s")
    c = first.counters
    solves = first.calls["linalg.solve_exact"]
    lp_calls = c["rationalizability.zero_sum_value.calls"]
    metrics.update({
        "linalg.solve_exact.unique_ratio": (c["linalg.solve_exact.unique"] / solves if solves else 0.0, "ratio"),
        "mixed.nash_support_enumeration.equilibria": (c["mixed.nash_support_enumeration.equilibria"], "count"),
        "rationalizability.iesds.eliminations": (c["rationalizability.iesds.eliminations"], "count"),
        "rationalizability.zero_sum_value.hit_ratio": (
            c["rationalizability.zero_sum_value.hits"] / lp_calls if lp_calls else 0.0, "ratio"),
        "periodicity.enumerate_cycles.cycles": (c["periodicity.enumerate_cycles.cycles"], "count"),
        "bayes.profiles_built": (c["bayes.profiles_built"], "count"),
        "io.bytes_out": (c["io.bytes_out"], "bytes"),
        "arith.max_bits": (max(checks.max_bits(t) for t in texts), "bits"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    info = {
        "pairs": len(traced),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "failed_ratio": verdicts.failed / verdicts.attempted,
    }
    return metrics, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        try:
            setup = set_up(args.workload, args.seed, directory)
        except ImportError as exc:
            print(f"cannot import periodic_games from {SRC}: {exc}", file=sys.stderr)
            return 2
        recorded = recorded_fingerprints(args.workload, args.seed)
        if recorded is not None and len(recorded) != len(setup.invocations):
            print("recorded fingerprints do not match the workload's invocation count", file=sys.stderr)
            return 2
        verdicts = Verdicts(setup.invocations, recorded)
        warm_up(setup)
        measure = per_layer if args.trace else end_to_end
        metrics, info = measure(setup, verdicts, args.seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    info["fingerprints"] = "recorded" if recorded is not None else "first pass (seed not recorded)"
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}, sort_keys=True))
    for reason in verdicts.reasons[:20]:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
