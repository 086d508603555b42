"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``periodic_games`` module that holds it, so calls made through a
``from .x import f`` binding (``mixed.polytope_vertices``,
``rationalizability.zero_sum_value``, ``cli.periodic_actions`` ...) are seen
too. ``uninstall`` puts the originals back. Spans are aggregated in memory:
per function, the call count and the self time (span duration minus the
time covered by its direct child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ["all_cycles"],
    "io": ["parse_game", "parse_bayes", "dump_report", "serialize_game", "export_dot"],
    "game": ["make_game", "validate_game", "expected_utility"],
    "periodicity": [
        "best_deviation_profile",
        "build_periodicity_graph",
        "nodes_on_cycles",
        "enumerate_cycles",
        "reach_cycle",
        "periodic_actions",
    ],
    "linalg": ["rref", "solve_exact", "polytope_vertices", "affine_dimension"],
    "lp": ["simplex_max", "zero_sum_value"],
    "mixed": ["nash_support_enumeration", "periodic_mixed", "invariance_check"],
    "rationalizability": ["iesds", "rationalizable_periodic"],
    "coco": ["decompose", "coco_solution"],
    "bayes": ["ex_ante_game", "interim_game", "interim_correlated_game", "conditional_belief"],
}

SPAN_NAMES = [f"{module}.{function}" for module, functions in TRACED.items() for function in functions]

BAYES_BUILDERS = {"bayes.ex_ante_game", "bayes.interim_game", "bayes.interim_correlated_game"}
IO_WRITERS = {"io.dump_report", "io.serialize_game", "io.export_dot"}


class Tracer:
    """Span aggregation plus the work counters read off traced results."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def _observe(self, name: str, result, outermost: bool, from_iesds: bool) -> None:
        if name == "linalg.solve_exact" and result[0] == "unique":
            self.counters["linalg.solve_exact.unique"] += 1
        elif name == "mixed.nash_support_enumeration":
            self.counters["mixed.nash_support_enumeration.equilibria"] += len(result)
        elif name == "rationalizability.iesds":
            self.counters["rationalizability.iesds.eliminations"] += len(result.trace)
        elif name == "periodicity.enumerate_cycles":
            self.counters["periodicity.enumerate_cycles.cycles"] += len(result)
        elif name in BAYES_BUILDERS and outermost:
            self.counters["bayes.profiles_built"] += len(result.payoffs)
        elif name in IO_WRITERS:
            self.counters["io.bytes_out"] += len(result.encode("utf-8"))
        elif from_iesds:
            self.counters["rationalizability.zero_sum_value.calls"] += 1
            if result[0] > 0:
                self.counters["rationalizability.zero_sum_value.hits"] += 1

    def _wrap(self, name: str, original, from_iesds: bool):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            outermost = name not in BAYES_BUILDERS or not any(f[0] in BAYES_BUILDERS for f in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            self._observe(name, result, outermost, from_iesds)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "periodic_games" or key.startswith("periodic_games."))
        ]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"periodic_games.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                name = f"{module_name}.{function}"
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is not original:
                            continue
                        from_iesds = module.__name__ == "periodic_games.rationalizability" and function == "zero_sum_value"
                        setattr(module, attr, self._wrap(name, original, from_iesds))
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
