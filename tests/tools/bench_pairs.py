"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage:

    python tests/tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --seeds 701-710 [--seconds 20]

For each seed it runs ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0`` once in each checkout, as a subprocess with the
checkout as its working directory, one run at a time.  The side that runs
first alternates from pair to pair, so a slow phase of the host does not
always fall on the same side.  Each run's result line is printed as it
finishes.  At the end, for each end-to-end metric, it prints the parent's
and the change's medians, the parent's interquartile range, and in how
many pairs the change was better; a gain counts as shown when the change
wins at least 9 pairs in 10 and its median differs from the parent's by
more than the parent's interquartile range.  The medians of ``attempted``
and the failed runs follow.  Which direction is better comes from
CHANGE_DIR's BENCHMARK.json.  Nothing is imported from ``bench/``.
Standard library only; the name has no ``test_`` prefix, so pytest does
not collect this file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    """'701-710' or '701,703,705' -> list of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds):
    """The result line of one run, or None when the run printed none."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"  {checkout}: exit {proc.returncode}, no result\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
            got = pair[side]
            summary = "no result" if got is None else " ".join(
                f"{name}={v['value']:.4g}" for name, v in got["metrics"].items()
            ) + f" attempted={got['attempted']} failed={got['failed']}"
            print(f"seed {seed} {side}: {summary}", flush=True)
        if None not in pair.values():
            for side in sides:
                results[side].append(pair[side])
    pairs = len(results["parent"])
    if not pairs:
        print("no complete pair")
        return 1
    print(f"\n{args.workload}: {pairs} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}")
    print(f"{'metric':<18}{'parent':>12}{'change':>12}{'change/parent':>15}"
          f"{'parent IQR':>12}{'wins':>7}  gain shown")
    for name, better_high in higher.items():
        before = [r["metrics"][name]["value"] for r in results["parent"]]
        after = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((a > b) if better_high else (a < b) for b, a in zip(before, after))
        mb, ma, spread = statistics.median(before), statistics.median(after), iqr(before)
        shown = wins >= 0.9 * pairs and abs(ma - mb) > spread and (ma > mb) == better_high
        ratio = ma / mb if mb else float("nan")
        print(f"{name:<18}{mb:>12.4g}{ma:>12.4g}{ratio:>15.3f}{spread:>12.4g}"
              f"{wins:>4}/{pairs:<2}  {'yes' if shown else 'no'}")
    for side in sides:
        attempted = statistics.median(r["attempted"] for r in results[side])
        failed = sum(r["failed"] for r in results[side])
        print(f"{side}: median attempted {attempted:g}, failed items {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
