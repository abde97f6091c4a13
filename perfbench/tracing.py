"""Per-layer tracing from outside the program.

The package's modules call each other through module-level names
(engine calls next_move, nav calls find_path, solver calls
enumerate_team_moves, ...). A Tracer rebinds those names to wrappers that
time and count the calls, and puts the originals back when it is closed.
Hot per-agent calls are aggregated (count, total, self time); coarse calls
also keep one span each (name, parent, start, end) in memory, written out
as JSON when the run ends. Self time is a call's duration minus the time
covered by the traced calls it made.
"""
from __future__ import annotations

import importlib
import json
import time
from pathlib import Path


class Stat:
    __slots__ = ("count", "total", "self_time", "extra")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


# -------- hooks that count work from a call's arguments and result --------


def _after_engine_run(stat, args, result):
    instance = args[0]
    stat.add("agent_rounds", result.rounds * (instance.n_attackers + instance.n_defenders))


def _after_resolve(stat, args, result):
    _, config, move = args
    before = config.positions
    after = result.positions
    proposed = denied = 0
    for agent, want in move.desired.items():
        here = before[agent]
        if want != here:
            proposed += 1
            if after[agent] == here:
                denied += 1
    stat.add("proposed", proposed)
    stat.add("denied", denied)


def _after_find_path(stat, args, result):
    path, region = result
    if path is None:
        stat.add("failed", 1)
        stat.add("region_cells", len(region) if region else 0)
    else:
        stat.add("path_cells", len(path))


def _after_shortest_path(stat, args, result):
    if result is None:
        stat.add("failed", 1)
    else:
        stat.add("path_cells", len(result))


def _after_confirm(stat, args, result):
    stat.add("confirmed", int(bool(result)))


def _after_reduce(stat, args, result):
    stat.add("graph_nodes", sum(1 for _ in result.world.nodes()))


def _after_solve(stat, args, result):
    stat.add("states", result.states)


# (module, attribute, stat name, keep spans, hook). The same stat name may
# appear under several modules when more than one caller imports the name.
TARGETS = (
    ("areaguard.cli", "main", "cli.main", True, None),
    ("areaguard.cli", "run_bench", "bench.run_bench", True, None),
    ("areaguard.bench", "generate_instance", "scenarios.generate", True, None),
    ("areaguard.scenarios", "generate_instance", "scenarios.generate", True, None),
    ("areaguard.engine", "run_simulation", "engine.run", True, _after_engine_run),
    ("areaguard.engine", "compute_metrics", "engine.metrics", True, None),
    ("areaguard.engine", "shortest_path", "engine.metrics_search", False, None),
    ("areaguard.engine", "allocate_for", "allocate.allocate", True, None),
    ("areaguard.allocate", "allocate_for", "allocate.allocate", True, None),
    ("areaguard.allocate", "allocate_bottleneck", "allocate.bottleneck", False, None),
    ("areaguard.allocate", "search_vicinity", "allocate.search_vicinity", False, None),
    ("areaguard.allocate", "confirm_bottleneck", "allocate.confirm", False, _after_confirm),
    ("areaguard.allocate", "shortest_path", "allocate.route_search", False, None),
    ("areaguard.allocate", "bfs_distance_table", "allocate.distance_table", False, None),
    ("areaguard.allocate", "bfs_distances", "allocate.distance_table", False, None),
    ("areaguard.allocate", "allocate_greedy", "allocate.matching", False, None),
    ("areaguard.allocate", "strict_greedy_pairs", "allocate.matching", False, None),
    ("areaguard.allocate", "_nearest_first_matching", "allocate.matching", False, None),
    ("areaguard.engine", "next_move", "nav.next_move", False, None),
    ("areaguard.nav", "find_path", "nav.search", False, _after_find_path),
    ("areaguard.nav", "shortest_path", "nav.search", False, _after_shortest_path),
    ("areaguard.engine", "apply_team_move", "model.resolve", False, _after_resolve),
    ("areaguard.qbf", "reduce_to_instance", "qbf.reduce", True, _after_reduce),
    ("areaguard.solver", "solve_decision_game", "solver.solve", True, _after_solve),
    ("areaguard.solver", "enumerate_team_moves", "solver.enumerate", False, None),
)

# Names whose value is a generator: the wrapper drains it inside the timed
# call so the time lands on the layer that does the work.
GENERATORS = {"solver.enumerate"}


class Tracer:
    """Rebinds the traced names on enter and restores them on exit."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._stack: list[list[float]] = [[0.0]]
        self._open_span: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, spans, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, spans, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, fn, name: str, keep_spans: bool, hook):
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter
        drain = name in GENERATORS
        spans = self.spans if keep_spans else None
        open_span = self._open_span

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if spans is not None:
                span_id = len(spans)
                spans.append({"name": name, "parent": open_span[-1]})
                open_span.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                stat.count += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                if spans is not None:
                    open_span.pop()
                    spans[span_id]["start"] = start
                    spans[span_id]["end"] = end
            if hook is not None:
                hook(stat, args, result)
            if drain:
                stat.add("items", len(result))
                return iter(result)
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); untouched layers read 0."""
        s = self.stat
        nav_search = s("nav.search")
        resolve = s("model.resolve")
        run = s("engine.run")
        confirm = s("allocate.confirm")
        table = s("allocate.distance_table")
        matching = s("allocate.matching")
        return {
            "scenarios.generate_s": (s("scenarios.generate").total, "s"),
            "scenarios.instances": (s("scenarios.generate").count, "count"),
            "allocate.allocations": (s("allocate.allocate").count, "count"),
            "allocate.allocate_s": (s("allocate.allocate").total, "s"),
            "allocate.bottleneck_s": (s("allocate.bottleneck").total, "s"),
            "allocate.bottleneck_rounds": (s("allocate.search_vicinity").count, "count"),
            "allocate.bottleneck_confirms": (confirm.count, "count"),
            "allocate.bottleneck_confirmed": (confirm.extra.get("confirmed", 0), "count"),
            "allocate.route_searches": (s("allocate.route_search").count, "count"),
            "allocate.route_search_s": (s("allocate.route_search").total, "s"),
            "allocate.distance_tables": (table.count, "count"),
            "allocate.distance_table_s": (table.total, "s"),
            "allocate.matching_s": (matching.self_time, "s"),
            "nav.next_move_calls": (s("nav.next_move").count, "count"),
            "nav.self_s": (s("nav.next_move").self_time, "s"),
            "nav.searches": (nav_search.count, "count"),
            "nav.searches_failed": (nav_search.extra.get("failed", 0), "count"),
            "nav.search_s": (nav_search.total, "s"),
            "nav.failed_region_cells": (nav_search.extra.get("region_cells", 0), "count"),
            "nav.path_cells": (nav_search.extra.get("path_cells", 0), "count"),
            "model.phases": (resolve.count, "count"),
            "model.resolve_s": (resolve.total, "s"),
            "model.moves_proposed": (resolve.extra.get("proposed", 0), "count"),
            "model.moves_denied": (resolve.extra.get("denied", 0), "count"),
            "engine.runs": (run.count, "count"),
            "engine.run_s": (run.total, "s"),
            "engine.self_s": (run.self_time, "s"),
            "engine.agent_rounds": (run.extra.get("agent_rounds", 0), "count"),
            "engine.metrics_s": (s("engine.metrics").total, "s"),
            "engine.metrics_searches": (s("engine.metrics_search").count, "count"),
            "bench.run_bench_s": (s("bench.run_bench").total, "s"),
            "bench.self_s": (s("bench.run_bench").self_time, "s"),
            "cli.self_s": (s("cli.main").self_time, "s"),
            "qbf.reduce_s": (s("qbf.reduce").total, "s"),
            "qbf.graph_nodes": (s("qbf.reduce").extra.get("graph_nodes", 0), "count"),
            "solver.solve_s": (s("solver.solve").total, "s"),
            "solver.states": (s("solver.solve").extra.get("states", 0), "count"),
            "solver.move_enumerations": (s("solver.enumerate").count, "count"),
            "solver.joint_moves": (s("solver.enumerate").extra.get("items", 0), "count"),
            "solver.enumerate_s": (s("solver.enumerate").total, "s"),
            "solver.self_s": (s("solver.solve").self_time, "s"),
        }
