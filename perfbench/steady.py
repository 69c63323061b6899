"""Run one workload in two sets of runs and report how steady it is.

From the root of a checkout::

    python3 perfbench/steady.py --workload serve-mixed --seed 7
    python3 perfbench/steady.py --workload serve-mixed --seed 101 --vary-seeds

runs ``perfbench/run.py`` ``--runs`` times (default 10) as set A, then as
many times again as set B, one after the other (never in parallel: the
runs share the machine's cores), each for ``run_seconds`` from
``BENCHMARK.json``.  Every run uses the seed given, so the spread within
a set is the host's alone.  With ``--vary-seeds`` the k-th run of each
set uses seed + k, so the spread also carries the differences between
inputs; set B repeats set A's seeds.

It prints every run's metrics, then one Markdown table: for every
end-to-end metric, each set's median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them), its spread
(q3 - q1) / median, the metric's bound, and by how much set B's median
is worse than set A's, as a share of A's (negative: B is better).  Exit
status 1 if a run failed, a spread exceeds its bound, set B is worse
than set A by more than the bound, or the share of failed operations
differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(label: str, workload: str, seeds: list[int],
            seconds: int) -> list[dict] | None:
    """One set of runs; ``None`` if any run failed."""
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{label} seed {seed}: exit {proc.returncode}\n"
                  f"{proc.stdout}{proc.stderr}")
            return None
        result = json.loads(lines[-1])
        results.append(result)
        print(f"{label} seed {seed}: " + ", ".join(
            f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()
        ), flush=True)
    return results


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set (default %(default)s)")
    parser.add_argument("--vary-seeds", action="store_true",
                        help="give the k-th run of each set seed + k")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    seeds = [
        args.seed + k if args.vary_seeds else args.seed
        for k in range(args.runs)
    ]
    sets = {}
    for label in ("A", "B"):
        results = run_set(label, args.workload, seeds, spec["run_seconds"])
        if results is None:
            return 1
        sets[label] = results

    ok = True
    shares = {
        label: sorted({r["failed"] / r["attempted"] for r in results})
        for label, results in sets.items()
    }
    print(f"\n{args.workload}, seeds {seeds[0]}..{seeds[-1]}, "
          f"{args.runs} runs per set; failed share per set: {shares}")
    if len(shares["A"]) != 1 or shares["A"] != shares["B"]:
        ok = False
    print("\n| metric | A median [q1, q3] | A spread | B median [q1, q3] "
          "| B spread | bound | B worse than A by |")
    print("|---|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        cells = []
        medians = []
        for results in sets.values():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, __, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = ok and spread <= bound
            medians.append(median)
            cells += [f"{median:.4g} [{q1:.4g}, {q3:.4g}]", f"{spread:.3f}"]
        worse = (medians[1] - medians[0]) / medians[0]
        if metric["better"] == "higher":
            worse = -worse
        ok = ok and worse <= bound
        print(f"| `{name}` | " + " | ".join(cells)
              + f" | {bound} | {worse:+.3f} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
