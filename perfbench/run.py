"""hbarlab benchmark: bundled presets through `hbarlab.cli.cli_main`.

    python3 perfbench/run.py --workload quantum_scans --seed 0 \
        --seconds 50 --trace 0

Workloads (see workloads.py): quantum_scans, classical_transport.  Seed 0
runs the presets as shipped; any other seed shifts each packet's r0 and p0
by a small amount through `--set`.

This process only starts children, one at a time, each with the BLAS and
OpenMP thread counts pinned to 1, and waits for each:

--trace 0   one child runs the invocations in rounds for up to --seconds
            and reports the median per-preset wall and CPU times, summed
            (wall_s, cpu_s), its peak RSS and the share of invocations that
            passed their checks (ok_frac).  Three fresh interpreters before
            it and three after time the import of hbarlab.cli plus config
            resolution (setup_s, median of the six).
--trace 1   the same untraced child, then a second child that runs every
            invocation once with each hbarlab layer traced; prints the
            per-layer metrics and the tracing overhead.

Every invocation's exit code and summary fits are checked; a failed check
counts in `failed`.  The last line of standard output is the result JSON;
the line before it holds the machine and version metadata.  Outputs,
spans and the full result go to .perfbench_runs/<workload>/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# setup probes before and after the timed rounds, to span their drift
SETUP_PROBES_EACH_SIDE = 3
CHILD_TIMEOUT_S = 150
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(Exception):
    pass


def child(mode, args, *extra):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child ran over {CHILD_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def medians(times, key):
    return {preset: statistics.median(t[key]) for preset, t in times.items()}


def machine():
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                 "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            out = ""
        caches[name.lower()] = int(out) if out.isdigit() else None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "caches_bytes": caches,
            "python": sys.version.split()[0],
            "thread_env": PINNED_ENV}


def setup_probes(args):
    return [child("setup", args)["setup_s"]
            for _ in range(SETUP_PROBES_EACH_SIDE)]


def measure(args, outdir):
    setup = [] if args.trace else setup_probes(args)
    run = child("run", args, "--out", os.path.join(outdir, "run"),
                "--seconds", str(args.seconds))
    wall = medians(run["times"], "wall")
    meta = {"rounds": len(next(iter(run["times"].values()))["wall"]),
            "per_preset_times_s": run["times"],
            "overrides": run["overrides"], "versions": run["versions"]}
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        tr = child("traced", args, "--out", os.path.join(outdir, "traced"))
        metrics = {k: tuple(v) for k, v in tr["metrics"].items()}
        for preset in workloads.PRESETS:
            metrics[f"cli.wall_s.{preset}"] = (wall.get(preset, 0.0), "s")
        metrics["trace.overhead_s"] = (tr["wall"] - sum(wall.values()), "s")
        attempted += tr["attempted"]
        failed += tr["failed"]
    else:
        setup += setup_probes(args)
        meta["setup_s_probes"] = setup
        metrics = {
            "wall_s": (sum(wall.values()), "s"),
            "cpu_s": (sum(medians(run["times"], "cpu").values()), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "ok_frac": (1.0 - run["failed"] / run["attempted"], "ratio"),
        }
    return metrics, attempted, failed, meta


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "hbarlab", "cli.py")):
        sys.exit("perfbench: no hbarlab source under src/ next to perfbench/")

    outdir = os.path.join(ROOT, ".perfbench_runs", args.workload)
    os.makedirs(outdir, exist_ok=True)
    try:
        metrics, attempted, failed, meta = measure(args, outdir)
    except ChildFailed as err:
        sys.exit(f"perfbench: {err}")
    meta.update(machine(), workload=args.workload, seed=args.seed,
                why=workloads.WHY[args.workload], seconds=args.seconds,
                trace=args.trace, excluded=workloads.EXCLUDED,
                no_metric_for_n16384="no bundled preset reaches n = 16384")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in sorted(metrics.items())}}
    with open(os.path.join(outdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print("perfbench meta " + json.dumps(meta))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
