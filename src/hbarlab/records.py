"""Run records and their serialization.

One CSV per run: a commented header block (schema version, experiment,
label, full config echo -- a record alone suffices to rerun), one header
row with the pinned column names, one row per snapshot.  Floats are written
with repr (shortest round-trip representation), so identical runs produce
byte-identical files; wall-clock time stays out of the CSV for the same
reason and goes to the plain-text scan summary instead.
"""

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QUANTUM_COLUMNS",
    "DETPOT_COLUMNS",
    "PHJ_COLUMNS",
    "LIOUVILLE_COLUMNS",
    "RunRecord",
    "to_csv_text",
    "write_csv",
    "summary_text",
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
    rows: tuple                      # tuple of tuples
    fits: dict = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def to_csv_text(record):
    lines = [f"# schema_version = {record.schema_version}",
             f"# experiment = {record.experiment}",
             f"# label = {record.label}"]
    lines += [f"# {line}" for line in record.config_echo]
    lines.append(",".join(record.columns))
    for row in record.rows:
        if len(row) != len(record.columns):
            raise ValueError(
                f"row width {len(row)} != {len(record.columns)} columns")
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(record, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_csv_text(record))
    return path


def summary_text(experiment, records, scan_fits, wall_clock):
    lines = [f"experiment: {experiment}", f"runs: {len(records)}"]
    for rec in records:
        fit_str = "  ".join(f"{k}={_fmt(v)}" for k, v in rec.fits.items())
        lines.append(f"  {rec.label}: {len(rec.rows)} snapshots  {fit_str}")
    for key, value in scan_fits.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            value = "[" + ", ".join(_fmt(v) for v in value) + "]"
        lines.append(f"{key} = {_fmt(value)}")
    lines.append(f"wall_clock_s = {wall_clock:.3f}")
    return "\n".join(lines) + "\n"


def read_csv(path):
    """Parse a run CSV back into (meta dict, columns, data array)."""
    meta = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
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
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows) if rows else np.empty((0, len(columns or ())))
    return meta, columns, data
