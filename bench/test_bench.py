"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They run one small invocation per command and flag set of each workload,
so they take seconds, not a benchmark run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

SEED = 0


@pytest.fixture(scope="module")
def setups(tmp_path_factory):
    out = {}
    for workload in workloads.WORKLOADS:
        directory = tmp_path_factory.mktemp(workload)
        setup = run.set_up(workload, SEED, directory, repeats=2)
        out[workload] = (setup, run.smallest_per_command(setup.invocations))
    return out


def _argvs(setup, indices):
    return [setup.argvs[k] for k in indices]


def _main():
    """The entry point of the most recent import; the tracer patches that one."""
    return sys.modules["periodic_games.cli"].main


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first, again, other = (workloads.build(workload, s) for s in (SEED, SEED, SEED + 1))
    assert first == again
    assert [inv.doc for inv in first] != [inv.doc for inv in other]
    assert sorted(inv.kind for inv in first) == sorted(inv.kind for inv in other)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_passes_give_identical_checked_fingerprints(setups, workload):
    setup, indices = setups[workload]
    one = run.run_pass(_main(), _argvs(setup, indices), keep_text=True)
    two = run.run_pass(_main(), _argvs(setup, indices))
    assert one.codes == [0] * len(indices)
    assert one.digests == two.digests
    for k, text in zip(indices, one.texts):
        assert checks.check_output(setup.invocations[k], text) is None


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_recorded_fingerprints_match(setups, workload):
    setup, indices = setups[workload]
    recorded = run.recorded_fingerprints(workload, SEED)
    assert recorded is not None, "fingerprints.json has no entry for the test seed"
    p = run.run_pass(_main(), _argvs(setup, indices))
    assert [d[: run.FINGERPRINT_HEX] for d in p.digests] == [recorded[k] for k in indices]


def test_digest_mismatch_counts_as_failure(setups):
    setup, indices = setups["nash-mixed"]
    p = run.run_pass(_main(), setup.argvs[:2])
    verdicts = run.Verdicts(setup.invocations, ["0" * 64] + p.digests[1:2])
    verdicts.count(p)
    assert (verdicts.attempted, verdicts.failed) == (2, 1)


def test_checks_reject_a_wrong_equilibrium(setups):
    setup, _ = setups["nash-mixed"]
    k = next(i for i, inv in enumerate(setup.invocations) if inv.argv[0] == "nash")
    p = run.run_pass(_main(), [setup.argvs[k]], keep_text=True)
    report = json.loads(p.texts[0])
    report["equilibria"][0]["utilities"][0] = "1000"
    assert checks.check_output(setup.invocations[k], json.dumps(report)) is not None


def _traced_calls(setup, indices):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        p = run.run_pass(_main(), _argvs(setup, indices))
    finally:
        tracer.uninstall()
    assert p.codes == [0] * len(indices)
    return tracer.calls


TARGETED = {
    "nash-mixed": ["linalg.rref", "linalg.solve_exact", "linalg.polytope_vertices",
                   "mixed.nash_support_enumeration", "mixed.periodic_mixed"],
    "dominance-coco": ["lp.simplex_max", "lp.zero_sum_value", "rationalizability.iesds",
                       "coco.coco_solution"],
    "graph-bayes": ["periodicity.enumerate_cycles", "periodicity.reach_cycle", "cli.all_cycles",
                    "bayes.ex_ante_game", "bayes.interim_game", "bayes.interim_correlated_game",
                    "io.serialize_game", "io.export_dot"],
}

BYPASSED = {
    "nash-mixed": ["lp."],
    "dominance-coco": ["linalg."],
    "graph-bayes": ["linalg.", "lp."],
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_sees_targeted_layers_and_not_bypassed_ones(setups, workload):
    calls = _traced_calls(*setups[workload])
    for name in TARGETED[workload]:
        assert calls[name] > 0, name
    for name in tracing.SPAN_NAMES:
        if name.startswith(tuple(BYPASSED[workload])):
            assert calls[name] == 0, name


def test_tracer_patches_from_import_bindings_and_restores_them(setups):
    setup, _ = setups["nash-mixed"]
    modules = sys.modules
    bindings = [("mixed", "polytope_vertices"), ("rationalizability", "zero_sum_value"),
                ("coco", "zero_sum_value"), ("cli", "periodic_actions")]
    before = [getattr(modules[f"periodic_games.{m}"], f) for m, f in bindings]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = [getattr(modules[f"periodic_games.{m}"], f) for m, f in bindings]
    finally:
        tracer.uninstall()
    after = [getattr(modules[f"periodic_games.{m}"], f) for m, f in bindings]
    assert all(d is not b for d, b in zip(during, before))
    assert after == before


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    root = Path(run.BENCH_DIR).parent
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nash-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".bench_work").exists()
