"""Dump the search counters of the benchmark instances, one TSV line each.

    python3 tools/counters.py --first 200 --seeds 1 2 > counters.tsv

For every workload of perfbench/workloads.py, seed and instance among the
first N of its stream, one line per mode: `count()` everywhere, `hybrid()`
on ham-hybrid, and `count()` with `use_cache=False` on reach-count. A line
holds the count, the engine's counters and the sha1 of the instance's
`emit_dimacs` text, so a change that must not move the formula or the search
shows as byte-identical dumps from the two checkouts. The package is loaded
from this checkout's src/ and from nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, instances  # noqa: E402

COLUMNS = (
    "workload", "seed", "index", "mode", "result", "decisions", "propagations",
    "cache_lookups", "cache_hits", "cache_entries", "cache_evictions",
    "peak_cache_bytes", "path", "dimacs_sha1",
)

# workload -> (mode, Engine keyword arguments, engine call)
MODES = {
    "reach-count": (("count", {}, "count"), ("no-cache", {"use_cache": False}, "count")),
    "path-count": (("count", {}, "count"),),
    "ham-hybrid": (("count", {}, "count"), ("hybrid", {}, "hybrid")),
}


def load_package():
    """Import aspcount from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "aspcount" / "__init__.py").is_file():
        raise SystemExit(f"counters: no package source at {src / 'aspcount'}")
    sys.path.insert(0, str(src))
    import aspcount

    if Path(aspcount.__file__).resolve().parent != (src / "aspcount").resolve():
        raise SystemExit(f"counters: imported aspcount from {aspcount.__file__}")
    return aspcount


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=200, help="instances per workload and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    pkg = load_package()
    print("\t".join(COLUMNS))
    for workload in WORKLOADS:
        for seed in args.seeds:
            stream = instances(workload, seed)
            for _ in range(args.first):
                inst = next(stream)
                pair = pkg.build_pair(pkg.parse_program(inst.text))
                digest = hashlib.sha1(pkg.emit_dimacs(pair).encode()).hexdigest()
                for mode, options, call in MODES[workload]:
                    n, s = getattr(pkg.Engine(pair, **options), call)()
                    row = (
                        workload, seed, inst.index, mode, n, s.decisions, s.propagations,
                        s.cache_lookups, s.cache_hits, s.cache_entries, s.cache_evictions,
                        s.peak_cache_bytes, s.path or "-", digest,
                    )
                    print("\t".join(map(str, row)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
