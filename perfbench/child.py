"""One benchmark child process: `run.py` starts it, one at a time.

    child.py setup  --workload W --seed N
        time importing hbarlab.cli and resolving the workload's configs
    child.py run    --workload W --seed N --out DIR --seconds S
        run the workload's invocations through cli_main, untraced, in
        rounds, while the next round should end within S seconds
    child.py traced --workload W --seed N --out DIR
        run the invocations once with every layer traced

Each mode prints one JSON object as its last line of standard output.
"""

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def resolve(workload, seed):
    """Each invocation with its seed overrides, checked by resolving the
    config the CLI will see."""
    from importlib import resources

    from hbarlab.config import RunConfig

    out = []
    for inv in workloads.WORKLOADS[workload]:
        preset = resources.files("hbarlab").joinpath(
            "presets", f"{inv.preset}.cfg")
        cfg = RunConfig.from_text(preset.read_text(encoding="utf-8"),
                                  origin=f"preset:{inv.preset}")
        flags = workloads.overrides(inv, seed, cfg.packet()[1:])
        cfg.with_overrides(flags).potential()
        out.append((inv, flags))
    return out


def invoke(cli, inv, flags, outdir):
    """One CLI invocation: (wall s, cpu s, failure reason or None)."""
    shutil.rmtree(outdir, ignore_errors=True)
    err = io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.cli_main(workloads.argv(inv, flags, outdir))
    except Exception:
        code = None
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    reason = workloads.check_output(inv, code, outdir)
    if reason:
        print(f"{inv.preset}: {reason}\n{err.getvalue()}", file=sys.stderr)
    return wall, cpu, reason


def setup(args):
    start = time.perf_counter()
    import hbarlab.cli  # noqa: F401
    resolve(args.workload, args.seed)
    return {"setup_s": time.perf_counter() - start}


def run(args):
    import hbarlab.cli as cli
    import numpy
    import scipy

    plan = resolve(args.workload, args.seed)
    times = {inv.preset: {"wall": [], "cpu": []} for inv, _ in plan}
    reasons = []
    # with any time to measure, at least two rounds, so each preset has
    # more than one sample
    min_rounds = 2 if args.seconds > 0 else 1
    start = time.perf_counter()
    for rounds in itertools.count(1):
        for inv, flags in plan:
            wall, cpu, reason = invoke(
                cli, inv, flags, os.path.join(args.out, inv.preset))
            times[inv.preset]["wall"].append(wall)
            times[inv.preset]["cpu"].append(cpu)
            reasons.append(reason)
        # start another round only if it should end within --seconds
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed / rounds * (rounds + 1) > \
                args.seconds:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "times": times,
        "attempted": len(reasons),
        "failed": sum(1 for r in reasons if r),
        "peak_rss_mb": rss,
        "overrides": {inv.preset: flags for inv, flags in plan},
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "numba": importlib.util.find_spec("numba") is not None},
    }


def traced(args):
    import hbarlab.cli as cli

    from tracer import Tracer, per_layer

    plan = resolve(args.workload, args.seed)
    tracer = Tracer().install()
    try:
        results = [invoke(cli, inv, flags, os.path.join(args.out, inv.preset))
                   for inv, flags in plan]
    finally:
        tracer.restore()
    tracer.write(os.path.join(args.out, "spans.csv"))
    return {
        "wall": sum(r[0] for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r[2]),
        "metrics": per_layer(tracer.spans),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "traced"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    result = {"setup": setup, "run": run, "traced": traced}[args.mode](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
