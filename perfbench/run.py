"""Benchmark of the ferns package: one workload, one process, one op in flight.

    python3 perfbench/run.py --workload roundtrip-deep --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The run sets the workload up once, untimed, which also writes the
bytecode caches, and its ops use that set-up.  It then repeats whole
rounds of the ops in a closed loop until another round would overrun
``--seconds``.  ``SETUP_REPEATS`` timed set-ups, each on a fresh import of
ferns, are spread evenly over the run between ops.  After each round every
op's output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which hold
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  A fuller record goes to ``perfbench/results/``, and with
``--trace 1`` the spans go there too.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MODULES = ("gf", "curve", "fern", "universal", "census", "jsonio", "rand")
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

sys.path.insert(0, str(HERE))

import spans as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def ferns_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "ferns" or name.startswith("ferns.")}


def load_ferns() -> SimpleNamespace:
    """A fresh import of the ferns package from this checkout."""
    for name in ferns_modules():
        del sys.modules[name]
    mods = {m: importlib.import_module("ferns." + m) for m in MODULES}
    origin = Path(mods["gf"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"ferns was imported from {origin}, not this checkout")
    return SimpleNamespace(**mods)


def timed_setup(workload, seed: int):
    """Seconds for one set-up on a fresh import of ferns, and the
    milliseconds of it spent building fields.

    The objects alive before are frozen out of the garbage collector's
    reach meanwhile, so its passes scan the set-up's own objects as they
    would in a fresh process, not the outputs of the ops of a half-done
    round.  The modules loaded before are put back afterwards: the ops
    keep the set-up they started with, and functions that import inside
    their body keep finding its modules."""
    saved = ferns_modules()
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter_ns()
        F = load_ferns()
        state = workload.setup(F, seed)
        elapsed = (time.perf_counter_ns() - t0) / 1e9
    finally:
        gc.unfreeze()
    for name in ferns_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return elapsed, state.field_build_ms


def tail(samples_ms: list):
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(samples_ms)
    if n < 40:
        return None
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(samples_ms, n=1000, method="inclusive")
            return {"percentile": pct,
                    "value_ms": cuts[round(pct * 10) - 1], "samples": n}
    return None


def measure(workload, F, state, seconds: float, tracer=None,
            set_up=None) -> dict:
    """Whole rounds of the workload's ops until the next would overrun.

    ``set_up``, when given, is called ``SETUP_REPEATS`` times between ops:
    the k-th call comes at the first op boundary after k/SETUP_REPEATS of
    ``seconds``, and calls the run did not reach come after the last round.
    So the set-up samples see the host over the same stretch as the ops.
    """
    clock = time.perf_counter_ns
    ops = state.ops
    op_ms, round_s, setups = [], [], []
    attempted = failed = wrong = 0
    first_counts = [0] * len(tracing.COUNTED)
    problems = []
    start = clock()
    op_id = 0

    def setup_due():
        return (set_up is not None and len(setups) < SETUP_REPEATS
                and clock() - start >= len(setups) * seconds * 1e9
                / SETUP_REPEATS)

    while True:
        results = []
        for op in ops:
            if setup_due():
                setups.append(set_up())
            if tracer is not None:
                tracer.op = op_id
                before = tuple(tracer.counts)
            t0 = clock()
            try:
                out, err = workload.run(F, state, op), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, err = None, exc
            t1 = clock()
            if tracer is not None:
                tracer.op = -1
                if not round_s:
                    for i, (a, b) in enumerate(zip(before, tracer.counts)):
                        first_counts[i] += b - a
            results.append((op, out, err, t1 - t0))
            op_id += 1
        round_s.append(sum(r[3] for r in results) / 1e9)
        for op, out, err, ns in results:
            attempted += 1
            op_ms.append(ns / 1e6)
            if err is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append("".join(traceback.format_exception(err)))
                continue
            try:
                found = workload.check(F, state, op, out)
            except Exception as exc:  # a malformed output is a wrong one
                found = [f"check raised {exc!r}"]
            if found:
                failed += 1
                wrong += 1
                if len(problems) < 5:
                    problems.append(f"{op!r}: {'; '.join(found)}")
        elapsed = (clock() - start) / 1e9
        if elapsed + round_s[-1] > seconds:
            break
    while set_up is not None and len(setups) < SETUP_REPEATS:
        setups.append(set_up())
    return {"op_ms": op_ms, "round_s": round_s, "attempted": attempted,
            "failed": failed, "wrong": wrong, "problems": problems,
            "first_round_ops": len(ops), "first_counts": first_counts,
            "setups": setups}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    src = ROOT / "src"
    if not (src / "ferns" / "__init__.py").is_file():
        print(f"error: no ferns package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # The untimed set-up writes the bytecode caches, so that every timed
    # set-up loads them whatever PYTHONDONTWRITEBYTECODE says and set-up
    # time is the program's, not the compiler's.
    sys.dont_write_bytecode = False
    F = load_ferns()
    state = workload.setup(F, args.seed)

    tracer = micro = None
    if args.trace:
        micro = tracing.field_micro(state.value_field, random.Random(args.seed))
        tracer = tracing.Tracer(vars(F))
        tracer.install()
    try:
        run = measure(workload, F, state, args.seconds, tracer,
                      set_up=lambda: timed_setup(workload, args.seed))
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = [s for s, _ in run["setups"]]
    build_ms = [ms for _, ms in run["setups"]]

    end_to_end = {
        "wall_s": {"value": statistics.median(run["round_s"]), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(run["op_ms"]), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB"},
    }
    correct = not state.problems and not run["wrong"]
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = tracing.per_layer_metrics(
            spec["per_layer"], tracer, run["first_round_ops"],
            run["attempted"], run["first_counts"], micro,
            statistics.median(build_ms))
    else:
        metrics = end_to_end
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": run["attempted"],
        "failed": run["failed"], "metrics": metrics,
        "end_to_end": end_to_end, "tail": tail(run["op_ms"]),
        "rounds": len(run["round_s"]), "round_s": run["round_s"],
        "op_ms": run["op_ms"],
        "ops_per_round": run["first_round_ops"], "setup_samples_s": setup_s,
        "setup_problems": state.problems, "op_problems": run["problems"],
        "python": sys.version.split()[0],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps(tracer.trace_record()) + "\n")

    for problem in state.problems + run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    t = record["tail"]
    print(f"{args.workload}: {run['attempted']} ops in "
          f"{len(run['round_s'])} rounds, {run['failed']} failed; "
          f"wall_s {end_to_end['wall_s']['value']:.4f}, op p50 "
          f"{end_to_end['op_p50_ms']['value']:.3f} ms"
          + (f", p{t['percentile']:g} {t['value_ms']:.3f} ms over "
             f"{t['samples']} ops" if t else "")
          + f", setup {end_to_end['setup_s']['value']:.4f} s",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
