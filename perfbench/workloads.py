"""The benchmark's workloads: which bundled presets each one runs through
`hbarlab.cli.cli_main`, the exit code each invocation must return, the
summary fits it must meet, and the seed-derived packet shifts.

Every tolerance below is one the test suite already pins; none is looser.
"""

import os
import random
from dataclasses import dataclass

WHY = {
    "quantum_scans":
        "FFT propagation: long calls at n up to 4096 plus many short calls "
        "with per-snapshot diagnostics on small grids",
    "classical_transport":
        "no FFT propagation: Liouville pullback, characteristic fans and "
        "the classifier",
}

# Presets left out on purpose, with the reason.
EXCLUDED = {
    "combined_quartic":
        "crashes with a NodeError traceback as shipped; once fixed it runs "
        "much longer, so adding it is its own benchmark change",
    "deterministic_harmonic":
        "same experiment runner and layers as the long scans in "
        "quantum_scans, and it would add about 9 s to every round",
}

# Grid sizes the bundled presets reach.  No preset reaches n = 16384, so
# the benchmark reports no per-step time for it.
GRID_SIZES = (256, 512, 1024, 2048, 4096)

# Seed s != 0 shifts each packet's r0 and p0 by one of these amounts.
# Every (r0, p0) shift pair was run on every shifted preset, and all
# checks passed.
SHIFTS = (-0.02, -0.01, 0.01, 0.02)


def _near(value, target, tol):
    return abs(value - target) <= tol


def _standard_harmonic(fits):
    return (_near(fits["quantum_term_exponent"], 2.0, 0.05)
            and _standard_free(fits))


def _standard_free(fits):
    return all(_near(r, 1.0, 0.02)
               for r in fits["classical_residual_over_quantum_norm"])


def _deterministic_free(fits):
    return _near(fits["width_over_epsilon_exponent"], -2.0, 0.05)


def _combined(fits):
    dev = dict(zip(fits["hbar_list"], fits["trajectory_deviation_max"]))
    return dev[0.01] <= 1e-3 and fits["detpot_verdict"] == "Deterministic"


def _floor(fits):
    # summary.txt writes booleans as 1 and 0
    return fits["floor_satisfied"] == 1


def _liouville(fits):
    return fits["l1_final"] <= 0.02


def _phj(fits):
    return fits["projected_newton_residual_max"] <= 1e-5


def _verdict(expected):
    return lambda fits: fits["verdict"] == expected


@dataclass(frozen=True)
class Invocation:
    command: str
    preset: str
    check: object = None         # fits dict -> bool; None when exit != 0
    exit_code: int = 0
    shifted: bool = True         # has a [packet] to shift


# The long-step scans (standard_harmonic, deterministic_free: long
# FFT-bound propagate calls at n up to 4096) and the many-snapshot scans
# (small grids; with them the workload makes about 1,560 single-step
# propagate calls and 2,340 Madelung transforms) run as one workload.  On a
# shared 2-vCPU host the throughput drifts by 20-40% over minutes.  Within
# the benchmark's total time budget three workloads could each be measured
# for only about 30 s a run, and the many-snapshot total then spread past
# its bound between two sets of runs; two workloads get about 50 s a run.
# The per-preset times (cli.wall_s.<preset>) and the per-step and
# single-step costs still tell long calls from short ones;
# classical_transport is the workload without FFT propagation.
WORKLOADS = {
    "quantum_scans": (
        Invocation("scan", "standard_harmonic", _standard_harmonic),
        Invocation("scan", "deterministic_free", _deterministic_free),
        Invocation("scan", "combined_free", _combined),
        Invocation("scan", "combined_constforce", _combined),
        Invocation("scan", "combined_harmonic", _combined),
        Invocation("scan", "standard_free", _standard_free),
        Invocation("simulate", "uncertainty_coherent", _floor),
    ),
    "classical_transport": (
        Invocation("liouville", "liouville_harmonic", _liouville),
        Invocation("phj", "phj_harmonic", _phj),
        # the caustic at t = 1 is the documented outcome: exit 2
        Invocation("phj", "phj_focusing", exit_code=2),
        Invocation("detpot", "detpot_quadratic", _verdict("Deterministic"),
                   shifted=False),
        Invocation("detpot", "detpot_quartic",
                   _verdict("NonDeterministic"), shifted=False),
    ),
}

PRESETS = tuple(inv.preset for invs in WORKLOADS.values() for inv in invs)


def seed_shift(preset, seed):
    """(dr, dp) for one preset under a workload seed; (0, 0) for seed 0."""
    if seed == 0:
        return 0.0, 0.0
    rng = random.Random(f"{seed}:{preset}")
    return rng.choice(SHIFTS), rng.choice(SHIFTS)


def overrides(inv, seed, packet):
    """--set flags for one invocation; `packet` is the preset's (r0, p0)."""
    dr, dp = seed_shift(inv.preset, seed)
    if not inv.shifted or (dr, dp) == (0.0, 0.0):
        return []
    r0, p0 = packet
    return [f"packet.r0={r0 + dr!r}", f"packet.p0={p0 + dp!r}"]


def argv(inv, flags, outdir):
    sets = [arg for flag in flags for arg in ("--set", flag)]
    return [inv.command, "--config", inv.preset, *sets, "--out", outdir]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def _parse_value(text):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        return [_parse_value(part) for part in text[1:-1].split(",")
                if part.strip()]
    if text == "None":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_summary(outdir):
    """Scan-level fits from summary.txt plus the number of runs listed."""
    fits = {}
    runs = None
    with open(os.path.join(outdir, "summary.txt"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("runs: "):
                runs = int(line.split(":", 1)[1])
            elif not line.startswith(" ") and " = " in line:
                key, value = line.split(" = ", 1)
                fits[key] = _parse_value(value)
    return fits, runs


def check_output(inv, code, outdir):
    """None when the invocation's exit code and outputs are as documented,
    otherwise a one-line reason."""
    if code != inv.exit_code:
        return f"exit code {code}, expected {inv.exit_code}"
    if inv.check is None:
        return None
    try:
        fits, runs = read_summary(outdir)
        csvs = [f for f in os.listdir(outdir)
                if f.startswith("run_") and f.endswith(".csv")]
        if runs is None or len(csvs) != runs:
            return f"{len(csvs)} run CSVs, summary lists {runs}"
        if not inv.check(fits):
            return f"summary fits fail the pinned tolerances: {fits}"
    except (OSError, KeyError, TypeError, ValueError) as err:
        return f"unreadable output: {err!r}"
    return None
