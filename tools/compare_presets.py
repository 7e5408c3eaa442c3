#!/usr/bin/env python3
"""Check that every bundled preset gives the same outputs at REV and in the
working tree.

    python3 tools/compare_presets.py REV

REV is checked out with `git worktree` into a temporary directory.  Each
preset in src/hbarlab/presets runs through `python -m hbarlab` (with
--dump-fields) under both trees, one run at a time.  The script
byte-compares every run_*.csv, field dumps included, and the exit codes,
prints one line per preset, and exits 1 if anything differs.
"""

import argparse
import configparser
import filecmp
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = os.path.join(ROOT, "src", "hbarlab", "presets")

# experiment kind -> CLI subcommand; presets without a kind are `simulate`
COMMANDS = {
    None: "simulate",
    "standard_limit": "scan",
    "deterministic_limit": "scan",
    "combined_limit": "scan",
    "detpot": "detpot",
    "phj_demo": "phj",
    "liouville_demo": "liouville",
}


def presets():
    """(name, subcommand) for every bundled preset, sorted by name."""
    out = []
    for fname in sorted(os.listdir(PRESETS)):
        if fname.endswith(".cfg"):
            cfg = configparser.ConfigParser()
            cfg.read(os.path.join(PRESETS, fname), encoding="utf-8")
            kind = cfg.get("experiment", "kind", fallback=None)
            out.append((fname[:-len(".cfg")], COMMANDS[kind]))
    return out


def run(tree, command, preset, outdir):
    """Exit code of one preset run from the source in `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hbarlab", command, "--config", preset,
         "--out", outdir, "--dump-fields"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return proc.returncode


def run_csvs(outdir):
    if not os.path.isdir(outdir):
        return []
    return sorted(f for f in os.listdir(outdir)
                  if f.startswith("run_") and f.endswith(".csv"))


def compare(base, tmp):
    """Run every preset under both trees; returns True when nothing
    differs."""
    same = True
    for preset, command in presets():
        out_base = os.path.join(tmp, "out", "base", preset)
        out_head = os.path.join(tmp, "out", "head", preset)
        code_base = run(base, command, preset, out_base)
        code_head = run(ROOT, command, preset, out_head)
        names = run_csvs(out_base)
        _, differ, missing = filecmp.cmpfiles(out_base, out_head, names,
                                              shallow=False)
        extra = sorted(set(run_csvs(out_head)) - set(names))
        problems = []
        if code_base != code_head:
            problems.append(f"exit code {code_base} -> {code_head}")
        if differ:
            problems.append(f"differ: {' '.join(differ)}")
        if missing or extra:
            problems.append(f"only in one tree: {' '.join(missing + extra)}")
        status = "; ".join(problems) or "identical"
        print(f"{preset:24s} {command:9s} exit {code_base}/{code_head}  "
              f"{len(names) - len(differ) - len(missing):3d}/{len(names):3d}"
              f" csv identical  {status}", flush=True)
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
