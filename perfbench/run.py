"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workload runs in a fresh child
process (`workload.py`), which sets one BLAS thread before numpy loads.
With `--trace 0` this prints the end-to-end metrics, with `--trace 1` the
per-layer metrics; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The set-up time is the
median over several fresh processes, each timed from its start to the
moment its inputs are ready.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole command must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "experiment_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


def _child(args, deadline):
    """Run workload.py with `args`; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"workload.py exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "occupal" / "__init__.py").is_file():
        print(f"no occupal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started = time.monotonic()
            setups.append(_child(common + ["--setup-only"], deadline)["ready"] - started)
    started = time.monotonic()
    result = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    deadline)
    setups.append(result["ready"] - started)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        if result["missing_calls"]:
            print(f"no calls recorded for {result['missing_calls']}", file=sys.stderr)
            return 1
        values = result["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names().items()}
    else:
        rounds = result["rounds"]
        values = {
            "setup_s": statistics.median(setups),
            "experiment_s": statistics.median(r["experiment_s"] for r in rounds),
            "total_s": statistics.median(r["total_s"] for r in rounds),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (HERE / "out").mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(HERE / "out" / name, "w") as fh:
        json.dump(dict(result, setup_samples=setups, summary=summary), fh, indent=1)
    print(f"# {args.workload} seed {args.seed}: {len(result['rounds'])} untraced rounds, "
          f"{len(result.get('traced_rounds', []))} traced; numpy {result['numpy']}, "
          f"BLAS {result['blas']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
