"""Two sets of benchmark runs of one checkout, compared metric by metric.

    python3 perfbench/compare.py --first-seed 1

Runs the command in BENCHMARK.json ten times per set and workload, in two
sets, each run with its own seed, interleaving the workloads so that slow
spells of the host spread over all of them.  For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over the median) next to the metric's bound, and how
far the second set's median moved from the first's.  A spread above its
bound, a move worse than the bound, a wrong output or a different share of
failed ops is flagged, and the exit code is then 1.
The raw results go to ``perfbench/results/compare-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETS = 2
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    """One untraced run; returns the JSON object of its last line."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:
                out = run_once(spec, w, seed)
                out["seed"] = seed
                results[w][s].append(out)
                print(f"set {s + 1} {w} seed {seed}: "
                      + " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.5g}"
                                 for m in metrics), file=sys.stderr)
            seed += 1

    ok = True
    print(f"{'workload':20} {'metric':13} {'bound':>6} "
          + " ".join(f"{'set ' + str(s + 1) + ' median [q1, q3] spread':>40}"
                     for s in range(SETS)) + "   move")
    for w in workloads:
        shares = set()
        for s in range(SETS):
            runs = results[w][s]
            if not all(r["correct"] for r in runs):
                print(f"{w}: set {s + 1} has a run with wrong outputs")
                ok = False
            shares.update(r["failed"] / r["attempted"] for r in runs)
        if len(shares) > 1:
            print(f"{w}: the share of failed ops differs between runs")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in results[w][s]])
                    for s in range(SETS)]
            cells = []
            for sm in sums:
                flag = "" if sm["spread"] <= bound else " !"
                ok = ok and not flag
                cells.append(f"{sm['median']:.5g} [{sm['q1']:.5g}, "
                             f"{sm['q3']:.5g}] {sm['spread']:6.1%}{flag:2}")
            move = sums[1]["median"] / sums[0]["median"] - 1
            worse = move if m["better"] == "lower" else -move
            flag = " !" if worse > bound else ""
            ok = ok and not flag
            print(f"{w:20} {name:13} {bound:6.0%} "
                  + " ".join(f"{c:>40}" for c in cells)
                  + f" {move:+6.1%}{flag}")
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RESULTS / f"compare-{stamp}.json").write_text(
        json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
