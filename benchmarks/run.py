"""Closed-loop benchmark of the polarmodal library.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
`src/`.  One client issues queries back to back for S seconds and checks
every verdict.  Every metric is printed by name and unit; the last line
is a JSON object with the end-to-end metrics (`--trace 0`) or the
per-layer metrics (`--trace 1`).  A traced run spends half its time
untraced and then replays the same queries under spans, which it writes
to `.bench_out/`.  `--tiny` shrinks the inputs for the benchmark's own
tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


IMPORT_REPEATS = 5
# Some of the library's choices, such as the distinguishing formula that
# `bisim.modal_equiv` returns, follow set iteration order and so the
# string hash seed.  A run fixes the seed, so that result digests repeat.
HASH_SEED = "0"


def import_library() -> float:
    """Import the package from this checkout.

    The package is imported afresh `IMPORT_REPEATS` times; returns the
    median seconds taken.
    """
    if not (SRC / "polarmodal" / "__init__.py").is_file():
        raise SystemExit(f"error: no polarmodal package under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "polarmodal"]:
            del sys.modules[name]
        start = perf_counter()
        for module in ("polarmodal", "polarmodal.bisim", "polarmodal.catalog",
                       "polarmodal.fileio", "polarmodal.gen"):
            importlib.import_module(module)
        times.append(perf_counter() - start)
    origin = Path(sys.modules["polarmodal"].__file__).resolve().parent
    if origin != SRC / "polarmodal":
        raise SystemExit(f"error: polarmodal was imported from {origin}")
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_library()
    sys.path.insert(0, str(HERE))
    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(harness.WORKLOADS))

    report = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.tiny, import_s)
    if args.trace:
        out = harness.OUT
        out.mkdir(exist_ok=True)
        for phase, tracer in report["tracers"].items():
            tracer.write(out / f"{args.workload}-seed{args.seed}-{phase}.jsonl")
    for problem in report["problems"]:
        print("FAIL", problem, file=sys.stderr)
    attempted, failed = report["attempted"], report["failed"]
    print(f"# {args.workload} seed {args.seed}: {report['pool']} inputs "
          f"(digest {report['inputs_digest']}), results digest "
          f"{report['results_digest']} (first {report['digested']} inputs), "
          f"{report['samples']} timed samples, {attempted} queries, "
          f"failed_frac {failed / attempted:.4f}, "
          f"times scaled by {report['scale']:.4f} (machine gauge)")
    metrics = report["metrics"]
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {harness.unit_of(name)}")
    keep = [n for n in metrics if (n in harness.END_TO_END) != bool(args.trace)]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": harness.unit_of(n)}
                    for n in keep},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, sys.orig_argv)
    sys.exit(main())
