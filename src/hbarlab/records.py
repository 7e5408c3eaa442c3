"""Run records and every file and line a run emits.

`write_outputs` writes run_000.csv, ... (one per record, in scan order),
the optional field dumps run_000_fields_000.csv, ... and summary.txt.  Both
kinds of CSV are one table format: commented header lines (schema version,
experiment, label and config echo, so a record alone suffices to rerun; or
a dump's snapshot time), the column names, the rows.  Floats are written
with repr, so identical runs give byte-identical files; wall-clock time
goes to summary.txt only, whose record lines the CLI prints as well.
"""

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "QUANTUM_COLUMNS",
    "DETPOT_COLUMNS",
    "PHJ_COLUMNS",
    "LIOUVILLE_COLUMNS",
    "RunRecord",
    "to_csv_text",
    "write_csv",
    "record_line",
    "summary_text",
    "write_outputs",
    "run_csv_paths",
    "read_csv",
]

SCHEMA_VERSION = "1"

QUANTUM_COLUMNS = ("t", "x_mean", "p_mean", "var_x", "var_p",
                   "uncertainty_product", "width", "kurtosis_excess",
                   "quantum_term_norm", "hj_classical_residual")
DETPOT_COLUMNS = ("epsilon", "residual", "fourier_residual_norm")
PHJ_COLUMNS = ("t", "hj_residual", "term1", "term2", "p_gap",
               "projected_newton_residual")
LIOUVILLE_COLUMNS = ("t", "mass", "center_x", "center_p", "l1_vs_initial")


@dataclass
class RunRecord:
    experiment: str
    label: str
    config_echo: tuple
    columns: tuple
    rows: tuple                      # rows of values in `columns` order
    fits: dict = field(default_factory=dict)
    field_dumps: tuple = ()          # (t, x, rho, S) per dumped snapshot


def _fmt(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(map(_fmt, value)) + "]"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _table_text(comments, columns, rows):
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row width {len(row)} != {len(columns)} columns")
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def to_csv_text(record):
    comments = [f"schema_version = {SCHEMA_VERSION}",
                f"experiment = {record.experiment}",
                f"label = {record.label}", *record.config_echo]
    return _table_text(comments, record.columns, record.rows)


def write_csv(record, path):
    return _write_text(path, to_csv_text(record))


def record_line(record):
    """One record's line: label, snapshot count and its fits."""
    fit_str = "  ".join(f"{k}={_fmt(v)}" for k, v in record.fits.items())
    return f"{record.label}: {len(record.rows)} snapshots  {fit_str}"


def summary_text(result):
    lines = [f"experiment: {result.experiment}",
             f"runs: {len(result.records)}"]
    lines += [f"  {record_line(rec)}" for rec in result.records]
    lines += [f"{key} = {_fmt(value)}" for key, value in result.fits.items()]
    lines.append(f"wall_clock_s = {result.wall_clock:.3f}")
    return "\n".join(lines) + "\n"


# the names write_outputs gives run CSVs and, with group 1, field dumps
_RUN_FILE = re.compile(r"run_\d{3,}(_fields_\d{3,})?\.csv")


def _run_files(outdir):
    return [m for m in map(_RUN_FILE.fullmatch, os.listdir(outdir)) if m]


def write_outputs(result, outdir):
    """One CSV per run record, its field dumps, and one plain-text scan
    summary; returns the written paths, records ordered by scan index.
    Run CSVs and dumps an earlier run left in outdir are removed first, so
    none survives as this run's; no other file is touched."""
    os.makedirs(outdir, exist_ok=True)
    for m in _run_files(outdir):
        os.remove(os.path.join(outdir, m.string))
    paths = []
    for i, rec in enumerate(result.records):
        paths.append(write_csv(rec, os.path.join(outdir, f"run_{i:03d}.csv")))
        for j, (t, x, rho, s) in enumerate(rec.field_dumps):
            text = _table_text([f"t = {_fmt(t)}"], ("x", "rho", "S"),
                               zip(x.tolist(), rho.tolist(), s.tolist()))
            paths.append(_write_text(
                os.path.join(outdir, f"run_{i:03d}_fields_{j:03d}.csv"), text))
    paths.append(_write_text(os.path.join(outdir, "summary.txt"),
                             summary_text(result)))
    return paths


def run_csv_paths(outdir):
    """A run directory's run-record CSVs in scan order, without dumps."""
    return sorted(os.path.join(outdir, m.string) for m in _run_files(outdir)
                  if m.group(1) is None)


def read_csv(path):
    """Parse a run CSV back into (meta dict, columns, data array); a file
    that is not one raises DomainError naming the path and line."""
    meta = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if line.startswith("# "):
                if " = " in line:
                    key, value = line[2:].split(" = ", 1)
                    meta[key] = value
                continue
            if not line:
                continue
            if columns is None:
                columns = tuple(line.split(","))
                continue
            try:     # reshape refuses a row of the wrong width
                rows.append(np.array(line.split(","), dtype=float)
                            .reshape(len(columns)))
            except ValueError:
                raise DomainError(f"{path}:{lineno}: not a row of "
                                  f"{len(columns)} numbers") from None
    if columns is None:
        raise DomainError(f"{path}: no header row")
    data = np.array(rows) if rows else np.empty((0, len(columns)))
    return meta, columns, data
