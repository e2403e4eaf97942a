"""Seeded benchmark of the inkgraph pipeline.

    python3 perfbench/run.py --workload {train-gate,train-paper,recognize} \
        --seed N --seconds S --trace {0,1}

Imports the package from ``src/`` beside this directory; nothing is built or
installed. Inputs are generated from ``--seed``. The timed phase runs for about
``--seconds`` (and at least a minimum sample count). Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, measured with no
  tracing; the report lines add each workload's own names (epoch_s_p50,
  latency_ms_p50.long, exp_rate, ...) with their sample counts.
* ``--trace 1``: the per-layer metrics. Public inkgraph functions are wrapped
  from here, spans are kept in memory and written to
  ``perfbench/out/spans-<workload>.json`` at the end.

The exit code is 0 when every output check passed, 1 when one failed, and 2
when the program cannot be found or the arguments are wrong (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=("train-gate", "train-paper", "recognize"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    # One process, one BLAS thread, set before numpy loads. The model's matrices
    # are small: a second thread made no epoch faster on a 2-core box, and its
    # spin-waiting competes with the Python thread and widens the run-to-run spread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # NumPy asks for transparent huge pages on large arrays; whether the kernel
    # grants them depends on the machine's free memory, and each grant rounds
    # resident memory up to 2 MB, so peak_rss_mb jumped by 13 MB between runs.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "inkgraph" / "__init__.py").is_file():
        print(f"error: no inkgraph sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inkgraph
    if Path(inkgraph.__file__).resolve().parent != SRC / "inkgraph":
        print(f"error: imported inkgraph from {inkgraph.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    print("machine " + json.dumps(workloads.machine_record(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), OUT, SRC / "inkgraph")
    for line in run.lines:
        print(line)
    for problem in run.problems:
        print(f"FAILED {problem}")
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
