"""Command-line interface.

    hbarlab scan      --config combined_harmonic [--set scan.k=0.5 ...]
    hbarlab simulate  --config uncertainty_coherent
    hbarlab detpot    --config detpot_quartic
    hbarlab phj       --config phj_harmonic
    hbarlab liouville --config liouville_harmonic
    hbarlab report    runs/

--config takes a file path or the name of a bundled preset; every config
key can be overridden with repeated --set section.key=value flags.  A run
command must be the one hbarlab.experiments.EXPERIMENTS maps the config's
[experiment] kind to (a config without a kind runs under `simulate`);
every run then starts through `run_experiment`.  hbarlab.records writes
its outputs to the configured directory (override with --out): one CSV
per run, summary.txt, field dumps with --dump-fields; the CLI prints each
record's summary line.  An earlier run's outputs in that directory are
removed before the run starts, so a failed run leaves none behind.
`report` reads run CSVs and refuses any other file, field dumps included,
with exit 1.

Exit codes: 0 success; 1 usage or configuration error; 2 numeric failure
(every other LabError: boundary leakage, caustic, phase-space mass drift,
escaping trajectory, inconclusive classification, norm drift).
"""

import argparse
import os
import sys
from importlib import resources

from .config import RunConfig
from .errors import CausticError, DomainError, LabError
from .experiments import EXPERIMENTS, run_experiment
from .records import (
    clear_outputs,
    read_csv,
    record_line,
    run_csv_paths,
    write_outputs,
)

__all__ = ["cli_main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through exit code 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="hbarlab",
                     description="wave-packet / classical-limit laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="config file path or bundled preset name")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE",
                       help="override a config entry (repeatable)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [output] directory)")
        p.add_argument("--dump-fields", action="store_true",
                       help="write per-snapshot x,re_psi,im_psi files")
        return p

    add_run_command("simulate", "single quantum run with uncertainty floor")
    add_run_command("scan", "limit-scan experiment from the config")
    add_run_command("detpot", "classify a potential by the convolution "
                              "fixed point")
    add_run_command("phj", "characteristic Hamilton-Jacobi demo")
    add_run_command("liouville", "phase-space transport demo")

    p_report = sub.add_parser("report", help="summarize run CSVs")
    p_report.add_argument("paths", nargs="+",
                          help="run CSV files or directories holding them")
    return parser


def _resolve_config(name_or_path):
    if os.path.isfile(name_or_path):
        return RunConfig.from_file(name_or_path)
    preset = resources.files("hbarlab").joinpath("presets",
                                                 f"{name_or_path}.cfg")
    if preset.is_file():
        return RunConfig.from_text(preset.read_text(encoding="utf-8"),
                                   origin=f"preset:{name_or_path}")
    raise DomainError(f"config file not found: {name_or_path}")


def _load_config(args):
    cfg = _resolve_config(args.config)
    if args.overrides:
        cfg = cfg.with_overrides(args.overrides)
    if args.dump_fields:
        cfg = cfg.with_overrides(["output.dump_fields=true"])
    return cfg


def _kind_text(kind):
    return "unset (no [experiment] kind)" if kind is None else repr(kind)


def _run_and_write(args):
    cfg = _load_config(args)
    kind = cfg.get("experiment", "kind", None)
    if EXPERIMENTS.get(kind, (None,))[0] != args.command:
        kinds = [k for k, (c, _) in EXPERIMENTS.items() if c == args.command]
        raise DomainError(
            f"{args.command} expects experiment kind "
            f"{' or '.join(map(_kind_text, kinds))}, "
            f"config says {_kind_text(kind)}")
    outdir = args.out or cfg.output_directory()
    # a run that fails must not leave an earlier run's outputs as its own
    clear_outputs(outdir)
    result = run_experiment(cfg)
    write_outputs(result, outdir)
    for rec in result.records:
        print(f"{result.experiment} {record_line(rec)}  -> {outdir}")
    return 0


def _cmd_report(args):
    paths = []
    for p in args.paths:
        paths += run_csv_paths(p) if os.path.isdir(p) else [p]
    if not paths:
        raise DomainError("no run CSVs found")
    for path in paths:
        if not os.path.isfile(path):
            raise DomainError(f"run CSV not found: {path}")
        meta, columns, data = read_csv(path)
        missing = [key for key in ("experiment", "label") if key not in meta]
        if missing:
            raise DomainError(f"{path}: not a run CSV (its header has no "
                              f"{' or '.join(missing)} line)")
        print(f"{path}: experiment={meta['experiment']} "
              f"label={meta['label']} rows={data.shape[0]} "
              f"columns={len(columns)}")
    return 0


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return _cmd_report(args)
        return _run_and_write(args)
    except _UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (DomainError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except CausticError as err:
        print(f"numeric failure: {err} (t_caustic={err.t_caustic})",
              file=sys.stderr)
        return 2
    except LabError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
