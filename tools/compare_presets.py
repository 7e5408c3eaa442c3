#!/usr/bin/env python3
"""Check that every bundled preset gives the same outputs at REV and in the
working tree.

    python3 tools/compare_presets.py REV

REV is checked out with `git worktree` into a temporary directory.  Each
preset in src/hbarlab/presets runs through `python -m hbarlab` (with
--dump-fields) under both trees, one run at a time.  The script
byte-compares every run_*.csv, field dumps included, each summary.txt
without its wall_clock_s line, the exit codes and the last line each run
writes to stderr (the `error:` or `numeric failure:` message of a run that
fails, empty for one that succeeds), prints one line per preset, and exits
1 if anything differs.  A preset's line counts its run-record CSVs and its
field dumps apart, and names differing run CSVs but only counts differing
dumps, since one preset writes up to a few hundred of them.  For each run
CSV that differs, and for the first dump that differs, it also prints, for
every column that differs, the largest relative difference between the two
files' numbers, so an intended change of arithmetic can be reviewed as
numbers, column by column; for a summary that differs it prints the
differing lines, so a shifted fit shows as its old and new line; for a
stderr line that differs it prints both lines.
"""

import argparse
import difflib
import filecmp
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = os.path.join(ROOT, "src", "hbarlab", "presets")
sys.path.insert(0, os.path.join(ROOT, "src"))

from hbarlab.config import RunConfig  # noqa: E402
from hbarlab.experiments import EXPERIMENTS  # noqa: E402
from hbarlab.records import read_csv  # noqa: E402


def presets():
    """(name, subcommand) for every bundled preset, sorted by name; the
    subcommand is the one the CLI requires for the preset's kind."""
    out = []
    for fname in sorted(os.listdir(PRESETS)):
        if fname.endswith(".cfg"):
            cfg = RunConfig.from_file(os.path.join(PRESETS, fname))
            kind = cfg.get("experiment", "kind", None)
            out.append((fname[:-len(".cfg")], EXPERIMENTS[kind][0]))
    return out


def run(tree, command, preset, outdir):
    """(exit code, last stderr line or "") of one preset run from the source
    in `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hbarlab", command, "--config", preset,
         "--out", outdir, "--dump-fields"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stderr.splitlines()
    return proc.returncode, lines[-1] if lines else ""


def run_csvs(outdir):
    if not os.path.isdir(outdir):
        return []
    return sorted(f for f in os.listdir(outdir)
                  if f.startswith("run_") and f.endswith(".csv"))


def is_dump(name):
    return "_fields_" in name


def summary_lines(outdir):
    """Lines of a run's summary.txt without the wall_clock_s line (the only
    one that changes between identical runs); [] when there is none."""
    path = os.path.join(outdir, "summary.txt")
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh
                if not line.startswith("wall_clock_s")]


def largest_differences(path_a, path_b):
    """Lines naming, for every column that differs between two CSVs, the
    largest relative difference, its row and the two numbers, or one line
    saying why the files cannot be compared number by number.  A
    difference is relative to the largest magnitude in its column; a
    column that is roundoff throughout (zero by symmetry) can read O(1),
    and the two numbers show it."""
    _, cols_a, a = read_csv(path_a)
    _, cols_b, b = read_csv(path_b)
    if cols_a != cols_b or a.shape != b.shape:
        return ["header or row count differs"]
    if np.array_equal(a, b, equal_nan=True):
        return ["numbers equal, text differs"]
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
        worst = diff.max(axis=0)
        scale = np.maximum(np.abs(a), np.abs(b)).max(axis=0)
        rel = np.where(worst == 0, 0.0, worst / scale)
    rel = np.nan_to_num(rel, nan=np.inf)     # a nan on one side only
    out = []
    for j in np.flatnonzero(rel):
        i = int(np.argmax(diff[:, j]))
        out.append(f"max rel diff {rel[j]:.3g} in {cols_a[j]} "
                   f"(row {i}: {float(a[i, j])!r} vs {float(b[i, j])!r})")
    return out


def compare(base, tmp):
    """Run every preset under both trees; returns True when nothing
    differs."""
    same = True
    for preset, command in presets():
        out_base = os.path.join(tmp, "out", "base", preset)
        out_head = os.path.join(tmp, "out", "head", preset)
        code_base, err_base = run(base, command, preset, out_base)
        code_head, err_head = run(ROOT, command, preset, out_head)
        names = sorted(set(run_csvs(out_base)) | set(run_csvs(out_head)))
        _, differ, missing = filecmp.cmpfiles(out_base, out_head, names,
                                              shallow=False)
        summary_base = summary_lines(out_base)
        summary_head = summary_lines(out_head)
        n_dumps = sum(map(is_dump, names))
        runs_differ = [n for n in differ if not is_dump(n)]
        runs_missing = [n for n in missing if not is_dump(n)]
        dumps_differ = [n for n in differ if is_dump(n)]
        dumps_missing = len(missing) - len(runs_missing)
        problems = []
        if code_base != code_head:
            problems.append(f"exit code {code_base} -> {code_head}")
        if runs_differ:
            problems.append(f"differ: {' '.join(runs_differ)}")
        if runs_missing:
            problems.append(f"only in one tree: {' '.join(runs_missing)}")
        if dumps_differ:
            problems.append(f"{len(dumps_differ)} dumps differ")
        if dumps_missing:
            problems.append(f"{dumps_missing} dumps in one tree only")
        if summary_base != summary_head:
            problems.append("summary.txt differs")
        if err_base != err_head:
            problems.append("stderr differs")
        status = "; ".join(problems) or "identical"
        n_runs = len(names) - n_dumps
        print(f"{preset:24s} {command:9s} exit {code_base}/{code_head}  "
              f"{n_runs - len(runs_differ) - len(runs_missing)}/{n_runs} "
              f"run csv identical, "
              f"{n_dumps - len(dumps_differ) - dumps_missing}/{n_dumps} "
              f"dumps identical  {status}", flush=True)
        for name in runs_differ + dumps_differ[:1]:
            for line in largest_differences(os.path.join(out_base, name),
                                            os.path.join(out_head, name)):
                print(f"    {name}: {line}", flush=True)
        for line in difflib.ndiff(summary_base, summary_head):
            if line.startswith(("- ", "+ ")):
                print(f"    summary.txt: {line}", flush=True)
        if err_base != err_head:
            print(f"    stderr: - {err_base}\n    stderr: + {err_head}",
                  flush=True)
        same = same and not problems
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="compare_presets_") as tmp:
        base = os.path.join(tmp, "base")
        subprocess.run(["git", "worktree", "add", "--quiet", "--detach", base,
                        args.rev], cwd=ROOT, check=True)
        try:
            same = compare(base, tmp)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", base],
                           cwd=ROOT, check=True)
    print("all presets identical" if same else "presets differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
