"""Repeat the benchmark over several seeds and report each end-to-end
metric's spread against its bound in BENCHMARK.json.

Run from the root of a checkout::

    python3 bench/steadiness.py --workload sweep --seeds 1-10
    python3 bench/steadiness.py --workload sweep --seeds 1-10 \\
        --baseline ../parent --out bench/evidence/sweep.json

Spread is (Q3 - Q1) / median over the runs, quartiles as
``statistics.quantiles(values, n=4)`` gives them. Runs run one at a
time. Runs whose environment (``env_id``) differs are not compared:
the script stops instead. Exits 1 when a run fails or reports
``correct: false``, or when a spread (``setup_s`` aside) exceeds its
bound.

``--baseline DIR`` names a second checkout, for example the parent
commit. Its benchmark runs on the same seeds, alternating with this
checkout's run by run (seed 1: baseline first, seed 2: this checkout
first, ...), so that a host speeding up or slowing down during the
set falls on both sides alike. Each median must then lie within the
metric's bound of the baseline's, in either direction: a change
beyond the bound, better or worse, is reported as disagreement. The
per-seed output digests are listed where they differ, and each metric
gives the number of seeds on which this checkout read better.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import benchlib


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout: Path, workload: str, seed: int,
             seconds: int) -> Dict[str, Any]:
    """One benchmark run in ``checkout``, with that checkout's own
    command."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    command = [
        sys.executable, *spec["command"][1:],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=str(checkout), capture_output=True, text=True,
        timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{checkout} seed {seed}: exit {done.returncode}\n"
            f"{done.stderr[-2000:]}"
        )
    return {
        "seed": seed,
        "report": json.loads(lines[-2])["report"],
        "result": json.loads(lines[-1]),
    }


def summarize(runs: List[Dict[str, Any]], workload: str,
              table: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians and spreads of one set of runs."""
    env_ids = {run["report"]["env"]["env_id"] for run in runs}
    if len(env_ids) != 1:
        raise SystemExit(f"runs come from different environments: {env_ids}")
    rows = []
    for metric in table:
        values = [run["result"]["metrics"][metric["name"]]["value"]
                  for run in runs]
        row = {
            "name": metric["name"],
            "median": benchlib.median(values),
            "values": values,
            "bound": metric["bound"],
        }
        if len(values) >= 2:
            row["spread"] = benchlib.quartile_spread(values)
            row["within_bound"] = (
                metric["name"] == "setup_s" or row["spread"] <= metric["bound"]
            )
        rows.append(row)
    return {
        "workload": workload,
        "seeds": [run["seed"] for run in runs],
        "env": {k: v for k, v in runs[0]["report"]["env"].items()
                if k != "seed"},
        "failed_seeds": [
            run["seed"] for run in runs
            if not run["result"]["correct"] or run["result"]["failed"]
        ],
        "metrics": rows,
        "digests": {str(run["seed"]): run["report"].get("output_digest")
                    for run in runs},
    }


def print_summary(label: str, summary: Dict[str, Any]) -> None:
    print(f"{label}: failed seeds {summary['failed_seeds'] or 'none'}")
    for row in summary["metrics"]:
        spread = (
            f"spread {row['spread']:.4f} / bound {row['bound']}"
            if "spread" in row else ""
        )
        print(f"  {row['name']:20s} median {row['median']:.6g}  {spread}")


def compare(base: Dict[str, Any], new: Dict[str, Any],
            table: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median-against-median check of two summaries of one workload:
    every median within its bound of the baseline's, either way. Also
    counts, per metric, the seeds on which this checkout read better
    than the baseline (ties count for neither side)."""
    if base["env"]["env_id"] != new["env"]["env_id"]:
        raise SystemExit("baseline comes from a different environment")
    changes, wins = {}, {}
    within = True
    for metric, old, row in zip(table, base["metrics"], new["metrics"]):
        change = (row["median"] - old["median"]) / old["median"]
        changes[row["name"]] = change
        sign = -1.0 if metric["better"] == "lower" else 1.0
        wins[row["name"]] = sum(
            sign * (v - u) > 0 for u, v in zip(old["values"], row["values"])
        )
        if abs(change) > row["bound"]:
            within = False
        print(f"  {row['name']:20s} median {old['median']:.6g} -> "
              f"{row['median']:.6g} ({change:+.2%}, bound {row['bound']}),"
              f" better on {wins[row['name']]}/{len(row['values'])} seeds")
    differing = sorted(
        seed for seed, value in new["digests"].items()
        if base["digests"].get(seed) != value
    )
    print(f"  output digests differing from the baseline: "
          f"{differing or 'none'}")
    return {"changes": changes, "wins": wins, "within_bounds": within,
            "digests_differ": differing}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    parser.add_argument("--baseline", default=None,
                        help="another checkout to alternate with")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    table = spec["end_to_end"]
    baseline: Optional[Path] = (
        Path(args.baseline).resolve() if args.baseline else None
    )

    runs: List[Dict[str, Any]] = []
    base_runs: List[Dict[str, Any]] = []
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = [(root, runs)]
        if baseline is not None:
            order.insert(index % 2, (baseline, base_runs))
        for checkout, into in order:
            run = run_once(checkout, args.workload, seed, spec["run_seconds"])
            into.append(run)
            metrics = run["result"]["metrics"]
            side = "baseline" if checkout == baseline else "this checkout"
            benchlib.log(
                f"{args.workload} seed {seed} {side}: "
                f"correct={run['result']['correct']} "
                + " ".join(f"{row['name']}={metrics[row['name']]['value']:.6g}"
                           for row in table)
            )

    summary = summarize(runs, args.workload, table)
    print_summary("this checkout", summary)
    ok = not summary["failed_seeds"] and all(
        row.get("within_bound", True) for row in summary["metrics"]
    )
    if baseline is not None:
        base = summarize(base_runs, args.workload, table)
        print_summary(f"baseline {baseline}", base)
        print("medians, baseline -> this checkout:")
        summary["baseline"] = {
            "summary": base, **compare(base, summary, table)
        }
        ok = ok and not base["failed_seeds"]
        ok = ok and summary["baseline"]["within_bounds"]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
