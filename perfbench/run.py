"""Seeded end-to-end benchmark of the aspcount pipeline, with a traced mode.

    python3 perfbench/run.py --workload reach-count --seed 1 --seconds 30 --trace 0

Each instance runs the library path the `count`/`hybrid` commands use:
program text -> parse_program -> build_pair -> Engine(pair) -> count() or
hybrid(). One process, one thread, closed loop: instance i+1 starts after
instance i returns. Every count is checked against perfbench/reference.py,
which uses no package code. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import reference_count, self_check  # noqa: E402
from spans import Tracer, traced_engine  # noqa: E402
from speed import REFERENCE_S, kernel_seconds, scaled  # noqa: E402
from workloads import WORKLOADS, instances  # noqa: E402

MIN_INSTANCES = 100  # so that p90 has at least ten samples beyond it
FIXED_INSTANCES = 100  # head of the stream, timed for set-up and traced
SETUP_PASSES = 5
COUNTERS = (
    "decisions",
    "propagations",
    "cache_lookups",
    "cache_hits",
    "cache_entries",
    "peak_cache_bytes",
    "path",
)


def load_package():
    """Import aspcount from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "aspcount" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'aspcount'}")
    sys.path.insert(0, str(src))
    import aspcount
    import aspcount.engine

    if Path(aspcount.__file__).resolve().parent != (src / "aspcount").resolve():
        raise SystemExit(f"perfbench: imported aspcount from {aspcount.__file__}")
    return aspcount, aspcount.engine


def counters(stats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


class Bench:
    def __init__(self, workload: str, seed: int):
        self.pkg, self.engine_module = load_package()
        self.workload = workload
        self.seed = seed
        self.call = WORKLOADS[workload][2]
        self.stream = instances(workload, seed)
        self.head = [next(self.stream) for _ in range(FIXED_INSTANCES)]
        self.expected: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        try:
            self_check(random.Random(seed))
            self.references_ok = True
        except AssertionError as e:
            print(f"perfbench: reference self-check failed: {e}", file=sys.stderr)
            self.references_ok = False

    def check(self, inst, result):
        """Records one attempt; result is the returned count or an exception."""
        self.attempted += 1
        if inst.index not in self.expected:
            self.expected[inst.index] = reference_count(self.workload, inst)
        if not (self.references_ok and result == self.expected[inst.index]):
            self.failed += 1
            print(f"perfbench: instance {inst.index}: got {result!r}, "
                  f"want {self.expected[inst.index]}", file=sys.stderr)

    def timed_solve(self, inst, kernel: list[float]):
        """(seconds, RunStats or None); checks the count. Appends a speed
        kernel sample, taken just before the call, to `kernel`."""
        pkg = self.pkg
        kernel.append(kernel_seconds())
        t0 = perf_counter()
        try:
            engine = pkg.Engine(pkg.build_pair(pkg.parse_program(inst.text)))
            n, stats = getattr(engine, self.call)()
        except Exception as e:  # a raising instance counts as failed
            self.check(inst, e)
            return perf_counter() - t0, None
        elapsed = perf_counter() - t0
        self.check(inst, n)
        return elapsed, stats

    # -- untraced run: end-to-end metrics -----------------------------------

    def setup_seconds(self) -> float:
        """Median over passes of the summed parse + build_pair + Engine() time
        of the head of the stream (scaled seconds)."""
        pkg = self.pkg
        totals = []
        for _ in range(SETUP_PASSES):
            times, kernel = [], []
            for inst in self.head:
                kernel.append(kernel_seconds())
                t0 = perf_counter()
                pkg.Engine(pkg.build_pair(pkg.parse_program(inst.text)))
                times.append(perf_counter() - t0)
            totals.append(sum(scaled(times, kernel)))
        return statistics.median(totals)

    def run(self, seconds: float) -> dict:
        setup_s = self.setup_seconds()
        raw, kernel, solved = [], [], []
        start = perf_counter()
        for inst in itertools.chain(self.head, self.stream):
            if len(raw) >= MIN_INSTANCES and perf_counter() - start >= seconds:
                break
            elapsed, stats = self.timed_solve(inst, kernel)
            raw.append(elapsed)
            solved.append(stats is not None)
        times = [t for t, ok in zip(scaled(raw, kernel), solved) if ok]
        if len(times) < 2:
            raise SystemExit(f"perfbench: only {len(times)} of {len(raw)} instances solved")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "solve_s.p50": (statistics.median(times), "s"),
            "solve_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
            "instances_per_s": (len(times) / sum(times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    # -- traced run: per-layer metrics --------------------------------------

    def traced_solve(self, inst, tracer: Tracer, totals: dict, kernel: list[float]):
        pkg = self.pkg
        text = inst.text
        tracer.instance = inst.index
        call = tracer.call

        def solve():
            program = call("parser.parse_program", pkg.parse_program, text)
            pair = call("encode.build_pair", pkg.build_pair, program)
            engine = call("engine.init", pkg.Engine, pair)
            search = getattr(engine, self.call)
            n, stats = call("engine.search", search)
            return program, pair, n, stats

        kernel.append(kernel_seconds())
        t0 = perf_counter()
        try:
            program, pair, n, stats = call("instance.solve", solve)
        except Exception as e:
            self.check(inst, e)
            return perf_counter() - t0, None
        elapsed = perf_counter() - t0
        self.check(inst, n)
        graph = call("analysis.build_dep_graph", pkg.build_dep_graph, program)
        info = call("analysis.compute_loop_atoms", pkg.compute_loop_atoms, graph)
        totals["bytes"] += len(text.encode())
        totals["loop_atoms"] += len(info.loop_atoms)
        totals["vars"] += pair.n_vars
        totals["clauses"] += len(pair.completion) + len(pair.copy_clauses)
        totals["copy_clauses"] += len(pair.copy_clauses)
        return elapsed, stats

    def run_traced(self, seconds: float, trace_path: Path) -> dict:
        """Alternates untraced and traced passes over the head of the stream
        until `seconds` pass (at least one pass each)."""
        insts = self.head
        untraced, traced, layer_runs = [], [], []
        per_instance: list[list[dict]] = [[] for _ in insts]
        first_tracer = None
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            times, kernel = [], []
            for k, inst in enumerate(insts):
                elapsed, stats = self.timed_solve(inst, kernel)
                times.append(elapsed)
                if stats is not None:
                    per_instance[k].append(counters(stats))
            untraced.append(sum(scaled(times, kernel)))

            tracer = Tracer()
            sizes = dict.fromkeys(
                ("bytes", "loop_atoms", "vars", "clauses", "copy_clauses"), 0
            )
            runs, times, kernel = [], [], []
            with traced_engine(self.engine_module, tracer):
                for k, inst in enumerate(insts):
                    elapsed, stats = self.traced_solve(inst, tracer, sizes, kernel)
                    times.append(elapsed)
                    if stats is not None:
                        runs.append(counters(stats))
                        per_instance[k].append(counters(stats))
            traced.append(sum(scaled(times, kernel)))
            scale = REFERENCE_S / statistics.median(kernel)
            layer_runs.append(layer_metrics(tracer, sizes, runs, scale))
            if first_tracer is None:
                first_tracer = tracer

        metrics = {}
        for name, (_, unit) in layer_runs[0].items():
            metrics[name] = (statistics.median_low(r[name][0] for r in layer_runs), unit)
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        repeats = {name: all(len({c[name] for c in runs}) == 1 for runs in per_instance)
                   for name in COUNTERS}
        repeats.update({name: len({r[name][0] for r in layer_runs}) == 1
                        for name, (_, unit) in layer_runs[0].items() if unit == "count"})
        same = sum(1 for runs in per_instance if runs and all(r == runs[0] for r in runs))
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        metrics["trace.counters_repeat_pct"] = (100.0 * same / len(insts), "%")

        first_tracer.write(trace_path, {
            "workload": self.workload,
            "seed": self.seed,
            "untraced_pass_s": untraced,
            "traced_pass_s": traced,
            "counters_repeat_exactly": [name for name, ok in repeats.items() if ok],
            "counters_vary": [name for name, ok in repeats.items() if not ok],
            "instances": [
                {"index": inst.index, "n_nodes": inst.n_nodes,
                 "n_edges": len(inst.edges), "count": self.expected.get(inst.index),
                 "counters": runs[0] if runs else None}
                for inst, runs in zip(insts, per_instance)
            ],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        })
        return metrics


def layer_metrics(tracer: Tracer, sizes: dict, runs: list[dict], scale: float) -> dict:
    """Per-layer totals of one traced pass; span times are multiplied by
    `scale` to express them in scaled seconds."""
    spans = tracer.durations()

    def dur(name):
        return scale * spans.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return scale * spans.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return spans.get(name, (0.0, 0.0, 0))[2]

    def total(key):
        return sum(r[key] for r in runs)

    parse_s = dur("parser.parse_program")
    lookups = total("cache_lookups")
    propagate_calls = calls("engine.propagate")
    return {
        "parser.parse_s": (parse_s, "s"),
        "parser.mb_per_s": (sizes["bytes"] / 1e6 / parse_s, "MB/s"),
        "analysis.loops_s": (
            dur("analysis.build_dep_graph") + dur("analysis.compute_loop_atoms"), "s"),
        "analysis.loop_atoms": (sizes["loop_atoms"], "count"),
        "encode.build_pair_s": (dur("encode.build_pair"), "s"),
        "encode.vars": (sizes["vars"], "count"),
        "encode.clauses": (sizes["clauses"], "count"),
        "encode.copy_clauses": (sizes["copy_clauses"], "count"),
        "engine.init_s": (dur("engine.init"), "s"),
        "engine.search_s": (dur("engine.search"), "s"),
        "engine.decompose_s": (dur("engine.decompose"), "s"),
        "engine.decompose_calls": (calls("engine.decompose"), "count"),
        "engine.components": (tracer.components, "count"),
        "engine.decide_s": (dur("engine.decide"), "s"),
        "engine.decisions": (total("decisions"), "count"),
        "engine.conflict_pct": (
            100.0 * tracer.conflicts / propagate_calls if propagate_calls else 0.0, "%"),
        "engine.propagate_s": (dur("engine.propagate"), "s"),
        "engine.propagate_calls": (propagate_calls, "count"),
        "engine.propagations": (total("propagations"), "count"),
        "engine.cache_key_s": (dur("engine.cache_key"), "s"),
        "engine.cache_lookups": (lookups, "count"),
        "engine.cache_hit_pct": (
            100.0 * total("cache_hits") / lookups if lookups else 0.0, "%"),
        "engine.cache_entries": (total("cache_entries"), "count"),
        "engine.peak_cache_bytes": (max((r["peak_cache_bytes"] for r in runs), default=0),
                                    "bytes"),
        "engine.search_other_s": (self_time("engine.search"), "s"),
        "engine.enum_path_pct": (
            100.0 * sum(r["path"] == "enumeration" for r in runs) / len(runs)
            if runs else 0.0, "%"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    bench = Bench(args.workload, args.seed)
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.trace.json.gz"
        metrics = bench.run_traced(args.seconds, path)
        print(f"perfbench: spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = bench.run(args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0 and bench.references_ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
