"""Write the benchmark and acceptance timings of a checkout to one JSON file.

Usage, from the root of a checkout:

    python tests/tools/bench_json.py --out BENCH_<n>.json

For each workload that ``BENCHMARK.json`` lists, it runs ``python3
bench/run.py --workload W --seed 1 --seconds S --trace 0``, S the
``run_seconds`` of ``BENCHMARK.json``, and then the
same with ``--trace 1``, as subprocesses with the checkout as their
working directory, one at a time, and keeps each run's exit code and
its last two output lines: the details (input sizes with the five
largest inputs, wall times, ``output_digest``) and the result (the
end-to-end metrics at ``--trace 0``, the per-layer ones at ``--trace
1``).  The five largest inputs of each workload are copied to the top
of its entry.  Then it runs ``pytest tests/test_acceptance.py
--durations=0`` and records the setup and call time of each criterion;
criterion 4's setup builds the session's witnesses and its call
verifies them, so its build and verify times come out apart.  The file
also holds the commit (``git describe --always --dirty``), the Python
version and the CPU count.

Nothing is imported from ``bench/``: like ``bench_pairs.py`` it only
reads what ``bench/run.py`` prints.  A gain claim still needs
alternating pairs from ``bench_pairs.py``; these files record the
trajectory of single runs.  Standard library only; the name has no
``test_`` prefix, so pytest does not collect this file.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 1
# "0.91s call     tests/test_acceptance.py::test_criterion_4_witness_..."
DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown)\s+\S+::test_criterion_(\d+)_")


def run_bench(workload, seed, seconds, trace):
    """Exit code, details line and result line of one bench/run.py run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    details, result = (json.loads(line) for line in lines[-2:]) if len(lines) >= 2 else (None, None)
    return {"exit": proc.returncode, "details": details, "result": result}


def acceptance_durations():
    """Exit code and {criterion: {phase: seconds}} of the acceptance suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "--durations=0", "--durations-min=0"],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    criteria = {}
    for line in proc.stdout.splitlines():
        match = DURATION.match(line.strip())
        if match:
            seconds, phase, number = match.groups()
            criteria.setdefault(number, {})[phase] = float(seconds)
    return {"exit": proc.returncode, "criteria": dict(sorted(criteria.items(), key=lambda kv: int(kv[0])))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    # the commit's short hash, with "-dirty" when the tree has changes
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    report = {
        "commit": commit or None,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {f"trace_{t}": run_bench(workload, SEED, seconds, t) for t in (0, 1)}
        details = runs["trace_0"]["details"] or {}
        report["workloads"][workload] = {
            "largest_inputs": details.get("inputs", {}).get("largest"),
            **runs,
        }
        print(f"{workload}: exit {runs['trace_0']['exit']} / {runs['trace_1']['exit']}", flush=True)
    report["acceptance"] = acceptance_durations()
    four = report["acceptance"]["criteria"].get("4", {})
    report["acceptance"]["criterion_4"] = {"build_s": four.get("setup"), "verify_s": four.get("call")}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = [w for w, r in report["workloads"].items()
              if r["trace_0"]["exit"] or r["trace_1"]["exit"]]
    return 1 if failed or report["acceptance"]["exit"] else 0


if __name__ == "__main__":
    sys.exit(main())
