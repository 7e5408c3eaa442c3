"""Experiment drivers: the limiting procedures as reproducible scans.

Each driver takes a RunConfig and returns a ScanResult holding one
RunRecord per scan point plus scan-level fits, which `records.write_outputs`
writes.  Workers are pure functions of the configuration; records are
ordered by scan index, so reruns of the same configuration produce
byte-identical CSVs.  EXPERIMENTS is the one
list of experiment kinds: it maps each [experiment] kind to the CLI command
that runs it and to its runner.  `run_experiment` is how a run starts: it
refuses an unknown kind, times the runner, and refuses a result whose rows
hold nan or inf; that one timer's reading is the summary's wall_clock_s.

standard_limit    fixed packet width, shrinking hbar: the hbar^2 term in
                  the action equation is measured directly (its norm) and
                  through the classical-mode residual; the scan fits the
                  scaling exponent (expected 2).
deterministic_limit
                  fixed hbar, shrinking packet width: measures the terminal
                  width blow-up A(t*) ~ eps^-1 (slope -2 for A/eps) and the
                  divergence of the width-coupling bracket ~ eps^-2 that
                  blocks a delta limit at fixed hbar.
combined_limit    width tied to hbar (eps = k hbar), shrinking both:
                  trajectory deviation from Newton and terminal width both
                  vanish for potentials of degree <= 2; for others the
                  shape deformation (excess kurtosis) persists and the
                  convolution classifier verdict is attached as evidence.
detpot            thin wrapper over the convolution classifier.
phj_demo          characteristic solution of the classical action
                  equation, with the narrow-density continuity moments and
                  the projected Newton check along a trajectory.
liouville_demo    phase-space blob transport checkpoints.
(no kind)         the uncertainty run of `simulate`: one packet, the
                  uncertainty product against its floor hbar/2.

Numerics policy: every quantum run sizes its own grid from its packet
and potential scales (resolution follows the momentum content ~ p/hbar
plus the packet's own spectral width down to DEFAULT_FLOOR of its peak,
so step sizes shrink with hbar and splitting errors on the means drop as
hbar^2 across a combined scan); a packet that no grid of at most
MAX_GRID_N points resolves is refused with DomainError.  BoundaryLeak
triggers an automatic rerun on a doubled domain, at most twice.  A
quantum run takes two steps on its own grid.  Its probe step, the
phase-rotation limit of `schrodinger.max_stable_dt` shortened to a whole
number of steps per snapshot interval, spaces every snapshot's triple,
whose centered phase difference gives the dS/dt of
`madelung.snapshot_diagnostics`.  Its span step, a fourth-order
composition (`_kernels.SUZUKI`) of Strang substeps up to
`schrodinger.SPAN_FACTOR` limits long, crosses the rest of each snapshot
interval.  The two steps' phase factors are built once per run, and a run
of more than `_kernels.MAX_STEPS` FFT pairs is refused with DomainError
before its first.  A run keeps its rows in QUANTUM_COLUMNS order (read one
with `QuantumRunData.column`) and, with [output] dump_fields, each
snapshot's (t, x, psi) for the record.  Each quantum record's fits carry
grid_n, dt, span_dt, propagation_steps (FFT pairs) and widen_retries; they
reach summary.txt and the CLI line, not the CSV.  The three limit scans
and the uncertainty run share one loop over scan points, `_quantum_scan`.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import classical, detpot, hjflow, madelung, schrodinger
from ._kernels import SUZUKI, check_steps
from .errors import BoundaryLeak, DomainError, LabError
from .grid import MAX_GRID_N, make_grid
from .potential import eval_potential
from .records import (
    DETPOT_COLUMNS,
    LIOUVILLE_COLUMNS,
    PHJ_COLUMNS,
    QUANTUM_COLUMNS,
    RunRecord,
)

__all__ = [
    "EXPERIMENTS",
    "ScanResult",
    "run_standard_limit",
    "run_deterministic_limit",
    "run_combined_limit",
    "run_detpot",
    "run_uncertainty",
    "run_phj_demo",
    "run_liouville_demo",
    "run_experiment",
]

MAX_WIDEN_RETRIES = 2
MIN_GRID_N = 64                 # auto_grid's fewest points
# auto_grid resolves a packet's density tails and spectrum down to this
# fraction of their peak
DEFAULT_FLOOR = 1e-12


@dataclass
class ScanResult:
    experiment: str
    records: list
    fits: dict
    wall_clock: float = 0.0         # set by run_experiment


# ----------------------------------------------------------------------
# Grid selection
# ----------------------------------------------------------------------

def _next_pow2(n):
    return 1 << int(np.ceil(np.log2(max(n, 1))))


def _packet_need(V, eps0, r0, p0, hbar, t_final):
    """(half, k_need): the half-length of the domain, from the classical
    extent plus packet tails, and the k_max the packet needs, 1.3
    p_max/hbar plus 4/sigma_min, where the spectral density of the packet
    at its narrowest (density standard deviation sigma_min) has fallen
    below DEFAULT_FLOOR of its peak.  For a polynomial or tabulated
    potential p_max also counts the largest V over the packet's tails down
    to that floor.  The inputs are taken as numpy floats, so a need past
    the largest float reads inf instead of raising OverflowError."""
    eps0, r0, p0, hbar, t_final = map(np.float64, (eps0, r0, p0, hbar,
                                                   t_final))
    m = np.float64(V.mass)
    if V.kind == "harmonic":
        w = V.omega
        amp = float(np.hypot(r0, p0 / (m * w)))
        ratio = (hbar / (eps0 * m * w)) ** 2
        eps_max = eps0 * max(1.0, ratio)
        eps_min = eps0 * min(1.0, ratio)
        extent = amp
        p_max = max(abs(p0), m * w * amp)
    elif V.kind in ("free", "constant_force"):
        f0 = V.f0 if V.kind == "constant_force" else 0.0
        candidates = [r0, r0 + p0 * t_final / m
                      + 0.5 * f0 * t_final ** 2 / m]
        # the turning time -p0/f0 lies in (0, t_final) when p0 opposes f0
        # and |p0| < |f0| t_final; testing that first keeps a subnormal f0
        # from overflowing the quotient
        if p0 * np.sign(f0) < 0 and abs(p0) < abs(f0) * t_final:
            t_v = -p0 / f0
            candidates.append(r0 + p0 * t_v / m + 0.5 * f0 * t_v ** 2 / m)
        extent = max(abs(c) for c in candidates)
        eps_max = eps0 * (1.0 + (hbar * t_final / (m * eps0)) ** 2)
        eps_min = eps0
        p_max = max(abs(p0), abs(p0 + f0 * t_final))
    else:
        # generic confining polynomial (or table): energy estimate with the
        # packet's zero-point pressure, turning points from a coarse scan
        energy = (0.5 * p0 ** 2 / m + eval_potential(V, r0)
                  + hbar ** 2 / (4.0 * m * eps0))
        span = max(8.0, 4.0 * (abs(r0) + 1.0))
        xs = np.linspace(-span, span, 4001)
        vs = eval_potential(V, xs)
        reachable = xs[vs <= energy + 1e-12]
        if reachable.size == 0:
            reachable = np.array([r0])
        extent = float(np.max(np.abs(reachable))) + 0.5
        v_min = float(np.min(vs))
        # the packet's tails, down to DEFAULT_FLOOR, start out where V may
        # sit far above the mean energy and gain that momentum
        tail = np.sqrt(np.log(1.0 / DEFAULT_FLOOR) * eps0)
        v_top = max(energy, float(np.max(eval_potential(
            V, r0 + tail * np.linspace(-1.0, 1.0, 201)))))
        p_max = float(np.sqrt(2 * m * max(v_top - v_min, 0.0))) + abs(p0)
        # width can breathe; bracket it by a factor 4 around eps0
        eps_min = 0.25 * eps0
        eps_max = 4.0 * eps0
    sigma_max = np.sqrt(eps_max / 2.0)
    sigma_min = np.sqrt(eps_min / 2.0)
    # the leak check watches the outer 5% of points per side, so the packet
    # (7 sigma covers ~1e-12 of the mass) must fit in the central 90%
    half = 1.12 * (extent + 7.0 * sigma_max) + 0.5
    # spectral sufficiency: cover the momentum content p_max/hbar plus the
    # packet's own spectral width.  A density of standard deviation sigma
    # has spectral density ~ exp(-2 (k sigma)^2), which falls below
    # DEFAULT_FLOOR (1e-12 of its peak) at k sigma ~ 3.72, so
    # k sigma = 4 suffices; the step-size rule scales dt ~ 1/k_max^2, so
    # every excess k costs steps quadratically
    k_need = 1.3 * p_max / hbar + 4.0 / sigma_min
    return half, k_need


def auto_grid(V, eps0, r0, p0, hbar, t_final):
    """The grid `_packet_need` asks for: n is the next power of two of the
    points k_need needs on [-half, half], at least MIN_GRID_N.  A packet
    that needs more than MAX_GRID_N points is refused with DomainError,
    since a clipped grid would not resolve it; so is one whose need
    overflows a float."""
    half, k_need = _packet_need(V, eps0, r0, p0, hbar, t_final)
    n_k = k_need * (2 * half) / np.pi
    if not n_k <= MAX_GRID_N:
        count = f"{n_k:.3g}" if np.isfinite(n_k) else "over 1.8e+308"
        raise DomainError(
            f"the packet needs a grid of {count} points (k_max {k_need:.4g} "
            f"on [{-half:.4g}, {half:.4g}]); at most {MAX_GRID_N} are "
            f"allowed")
    return make_grid(-half, half, _next_pow2(max(n_k, MIN_GRID_N)))


# ----------------------------------------------------------------------
# Quantum run with per-snapshot records
# ----------------------------------------------------------------------

@dataclass(eq=False)
class QuantumRunData:
    grid: object
    dt: float                      # the probe step of every triple
    rows: np.ndarray               # one QUANTUM_COLUMNS row per snapshot
    fields: list                   # (t, x, psi) per snapshot if collected
    span_dt: float = 0.0           # the composed step between triples
    propagation_steps: int = 0     # FFT pairs taken
    widen_retries: int = 0         # domain doublings before this run

    def column(self, name):
        """One QUANTUM_COLUMNS column over the snapshots."""
        return self.rows[:, QUANTUM_COLUMNS.index(name)]


def _time_reversed(psi):
    """conj(psi) at -t.  For a real potential conj U(dt) conj = U(-dt), so
    reversing, propagating and reversing again steps backward in time."""
    return schrodinger.WaveFunction(psi.grid, np.conj(psi.values), psi.hbar,
                                    t=-psi.t)


def quantum_run(V, grid, eps0, r0, p0, hbar, t_final, n_snapshots,
                collect_fields=False):
    """Propagate a packet and collect the pinned per-snapshot rows.

    Every snapshot, t = 0 included, is the middle of a triple one probe
    step dt = t_snap / n_sub apart: the phase-rotation limit of
    `schrodinger.max_stable_dt` on this run's grid, shortened to a whole
    number (at least 3) of steps per snapshot interval.  So the dS/dt
    entering the classical-residual column is a centered phase difference
    over Strang steps; the state before t = 0 comes from time reversal.
    The span t_snap - 2 dt between triples is crossed in n_span equal
    composed steps span_dt (`_kernels.SUZUKI`) of at most SPAN_FACTOR
    limits.  Their O(span_dt^4) error is bounded by commutators, not by
    the phase at the grid's Nyquist mode (Thalhammer 2008; Lubich, From
    Quantum to Classical Molecular Dynamics, 2008, ch. III), and every
    pinned tolerance holds at these steps.  A run of more than MAX_STEPS FFT
    pairs is refused before its first; the refusal names [potential] when
    the potential's phase, not the kinetic one, bounds the step.
    """
    t_snap = t_final / n_snapshots
    dt_kin, dt_pot = schrodinger.phase_limits(grid, V, hbar)
    limit = min(dt_kin, dt_pot)
    # >= 3 steps per snapshot interval, so consecutive triples do not overlap
    n_sub = max(3.0, np.ceil(t_snap / limit))
    n_span = np.ceil((t_snap - 2.0 * t_snap / n_sub)
                     / (schrodinger.SPAN_FACTOR * limit))
    fft_pairs = 2 + n_snapshots * (2 + len(SUZUKI) * n_span)
    check_steps(fft_pairs,
                f"[potential], whose phase bounds the step to {limit:.3g}"
                if dt_pot < dt_kin else
                "[numerics] t_final (or t_star) and n_snapshots")
    dt = t_snap / int(n_sub)
    n_span = int(n_span)
    span_dt = (t_snap - 2.0 * dt) / n_span

    def probe(state):
        return schrodinger.propagate(state, V, dt, 1)

    psi = schrodinger.init_gaussian(grid, eps0, r0, p0, hbar)
    before = _time_reversed(probe(_time_reversed(psi)))
    rows, fields = [], []
    for i in range(n_snapshots + 1):
        if i:
            before = schrodinger.propagate(after, V, span_dt, n_span, SUZUKI)
            psi = probe(before)
        after = probe(psi)
        moments, rho_q, rho_hj = madelung.snapshot_diagnostics(
            (before, psi, after), V, dt)
        rows.append((i * t_snap, *moments,
                     float(np.sqrt(grid.dx * np.sum(rho_q ** 2))),
                     float(np.sqrt(grid.dx * np.sum(rho_hj ** 2)))))
        if collect_fields:
            fields.append((i * t_snap, grid.x, psi.values))
    return QuantumRunData(grid, dt, np.array(rows), fields, span_dt=span_dt,
                          propagation_steps=int(fft_pairs))


def quantum_run_autowiden(V, grid, eps0, r0, p0, hbar, t_final, n_snapshots,
                          collect_fields=False):
    """quantum_run with the domain-doubling retry policy on BoundaryLeak;
    the run's widen_retries counts the doublings.  A doubling doubles n
    too, up to MAX_GRID_N."""
    for attempt in range(MAX_WIDEN_RETRIES + 1):
        try:
            data = quantum_run(V, grid, eps0, r0, p0, hbar, t_final,
                               n_snapshots, collect_fields)
        except BoundaryLeak:
            if attempt == MAX_WIDEN_RETRIES:
                raise
            half = grid.length            # doubled half-width
            grid = make_grid(-half, half, min(2 * grid.n, MAX_GRID_N))
            continue
        data.widen_retries = attempt
        return data
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# Scan drivers
# ----------------------------------------------------------------------

def _decreasing_scan(values, name, minimum=3, span=99.0):
    vals = [float(v) for v in values]
    if len(vals) < minimum:
        raise DomainError(f"{name} needs at least {minimum} entries")
    if any(v <= 0 for v in vals):
        raise DomainError(f"{name} entries must be positive")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{name} must be strictly decreasing")
    if span is not None and vals[0] / vals[-1] < span:
        raise DomainError(f"{name} must span at least two decades")
    return vals


def _loglog_slope(x, y):
    return float(np.polyfit(np.log(np.asarray(x)),
                            np.log(np.asarray(y)), 1)[0])


def _quantum_scan(cfg, experiment, V, r0, p0, points, t_final, n_snapshots,
                  point_fits):
    """One quantum run and one RunRecord per scan point.

    `points` holds (label, hbar, eps) triples and `point_fits(data, hbar,
    eps)` gives each record's fits.  Each point's grid comes from auto_grid
    for that point's packet, or from the config, which must then reach the
    k_max auto_grid would ask for; a BoundaryLeak widens it and retries,
    and the run takes its own grid's step; no point's step depends on
    another's.  Each record carries its run's field dumps when the
    config asks for them.
    """
    records = []
    for label, hbar, eps in points:
        grid = cfg.grid_spec()
        if grid is None:
            grid = auto_grid(V, eps, r0, p0, hbar, t_final)
        else:
            k_need = _packet_need(V, eps, r0, p0, hbar, t_final)[1]
            if not np.pi / grid.dx >= k_need:
                raise DomainError(
                    f"{cfg.origin}: [numerics] grid reaches k_max "
                    f"{np.pi / grid.dx:.4g}, but the packet at {label} needs "
                    f"{k_need:.4g}; use a finer grid or grid = auto")
        data = quantum_run_autowiden(V, grid, eps, r0, p0, hbar, t_final,
                                     n_snapshots, cfg.dump_fields())
        fits = point_fits(data, hbar, eps)
        fits.update(grid_n=data.grid.n, dt=data.dt, span_dt=data.span_dt,
                    propagation_steps=data.propagation_steps,
                    widen_retries=data.widen_retries)
        records.append(RunRecord(
            experiment, label, cfg.echo_lines(), QUANTUM_COLUMNS,
            data.rows, fits=fits, field_dumps=data.fields))
    return records


def _fit_list(records, key):
    return [rec.fits[key] for rec in records]


def run_standard_limit(cfg):
    """hbar scan at fixed packet width: quantum-term norm and classical
    residual per snapshot, plus the scaling fit of the terminal norm."""
    V = cfg.potential()
    eps0, r0, p0 = cfg.packet()
    hbar_list = _decreasing_scan(
        cfg.get_float_list("scan", "hbar_list"), "hbar_list")
    t_final = cfg.get_positive("numerics", "t_final")
    n_snapshots = cfg.get_int("numerics", "n_snapshots", 16)

    def point_fits(data, hbar, eps):
        norm = data.column("quantum_term_norm")[-1]
        return {"terminal_quantum_term_norm": norm,
                "classical_over_quantum_norm":
                    data.column("hj_classical_residual")[-1] / norm}

    records = _quantum_scan(
        cfg, "standard_limit", V, r0, p0,
        [(f"hbar={hbar!r}", hbar, eps0) for hbar in hbar_list],
        t_final, n_snapshots, point_fits)
    terminal_norms = _fit_list(records, "terminal_quantum_term_norm")
    fits = {
        "hbar_list": hbar_list,
        "terminal_quantum_term_norms": terminal_norms,
        "quantum_term_exponent": _loglog_slope(hbar_list, terminal_norms),
        "classical_residual_over_quantum_norm":
            _fit_list(records, "classical_over_quantum_norm"),
    }
    return ScanResult("standard_limit", records, fits)


def _bracket_max(grid, eps, hbar, m, r_star):
    """Max over the grid of the width-coupling bracket
    (hbar^2 / 2 m eps^2) |eps - (x - r)^2| that the fixed-width ansatz
    inserts into the action equation.  hbar / m is taken first: it is the
    ratio the dynamics sees, finite wherever a run got this far, whereas
    hbar^2 alone overflows for hbar past ~1e154."""
    u2 = (grid.x - r_star) ** 2
    return float(np.max(np.abs(hbar / m * hbar / (2 * eps ** 2) * (eps - u2))))


def run_deterministic_limit(cfg):
    """Width scan at fixed hbar: terminal width blow-up and the divergence
    of the coupling bracket."""
    V = cfg.potential()
    r0, p0 = cfg.packet_center()
    hbar = cfg.get_positive("scan", "hbar", 1.0)
    eps_list = _decreasing_scan(
        cfg.get_float_list("scan", "epsilon_list"), "epsilon_list",
        span=None)
    t_star = cfg.get_positive("numerics", "t_star", 1.0)
    n_snapshots = cfg.get_int("numerics", "n_snapshots", 8)
    if V.kind == "harmonic":
        coherent = hbar / (V.mass * V.omega)
        for eps in eps_list:
            if abs(eps - coherent) <= 1e-9 * coherent:
                raise DomainError(
                    f"epsilon={eps} equals the stationary width hbar/(m w); "
                    f"a fixed-hbar width scan must vary epsilon away from it")

    # shared reference grid (largest domain: the smallest width spreads most)
    ref_grid = cfg.grid_spec() or auto_grid(V, eps_list[-1], r0, p0, hbar,
                                            t_star)
    n_ref = np.ceil(t_star / 1e-3)
    check_steps(n_ref, "[numerics] t_star")
    n_ref = int(n_ref)
    r_ref, _ = classical.newton_integrate(V, r0, p0, t_star / n_ref, n_ref)
    r_star = r_ref[-1]

    def point_fits(data, hbar, eps):
        width = data.column("width")[-1]
        return {"terminal_width": width,
                "width_over_epsilon": width / eps,
                "bracket_max": _bracket_max(ref_grid, eps, hbar, V.mass,
                                            r_star)}

    records = _quantum_scan(
        cfg, "deterministic_limit", V, r0, p0,
        [(f"epsilon={eps!r}", hbar, eps) for eps in eps_list],
        t_star, n_snapshots, point_fits)
    widths = _fit_list(records, "terminal_width")
    ratio = [w / e for w, e in zip(widths, eps_list)]
    fits = {
        "epsilon_list": eps_list,
        "terminal_widths": widths,
        "width_exponent": _loglog_slope(eps_list, widths),
        "width_over_epsilon_exponent": _loglog_slope(eps_list, ratio),
        "bracket_exponent": _loglog_slope(
            eps_list, _fit_list(records, "bracket_max")),
    }
    return ScanResult("deterministic_limit", records, fits)


def run_combined_limit(cfg):
    """hbar scan with eps = k hbar: trajectory deviation from Newton,
    terminal width, and shape deformation, with the classifier verdict
    attached as joint evidence."""
    V = cfg.potential()
    r0, p0 = cfg.packet_center()
    k = cfg.get_positive("scan", "k")
    hbar_list = _decreasing_scan(
        cfg.get_float_list("scan", "hbar_list"), "hbar_list",
        minimum=2, span=None)
    t_final = cfg.get_positive("numerics", "t_final")
    n_snapshots = cfg.get_int("numerics", "n_snapshots", 64)

    t_snap = t_final / n_snapshots
    n_per = np.ceil(t_snap / 1e-4)
    check_steps(n_per * n_snapshots, "[numerics] t_final and n_snapshots")
    n_per = int(n_per)
    # integrated once the first point has sized its grid, so a packet no
    # grid resolves is refused as in the other scans
    @functools.cache
    def newton_r():
        return classical.newton_integrate(
            V, r0, p0, t_snap / n_per, n_per * n_snapshots,
            save_stride=n_per)[0]

    def point_fits(data, hbar, eps):
        return {"epsilon": eps,
                "trajectory_deviation_max":
                    float(np.max(np.abs(data.column("x_mean") - newton_r()))),
                "terminal_width": data.column("width")[-1],
                "kurtosis_excess_max":
                    float(np.max(np.abs(data.column("kurtosis_excess"))))}

    records = _quantum_scan(
        cfg, "combined_limit", V, r0, p0,
        [(f"hbar={hbar!r}", hbar, k * hbar) for hbar in hbar_list],
        t_final, n_snapshots, point_fits)
    fits = {
        "k": k,
        "hbar_list": hbar_list,
        "trajectory_deviation_max": _fit_list(
            records, "trajectory_deviation_max"),
        "terminal_widths": _fit_list(records, "terminal_width"),
        "kurtosis_excess_max": _fit_list(records, "kurtosis_excess_max"),
        "detpot_verdict": detpot.classify(V).verdict,
    }
    return ScanResult("combined_limit", records, fits)


def run_detpot(cfg):
    """Thin wrapper over the convolution classifier."""
    V = cfg.potential()
    grid = cfg.grid_spec() or detpot.default_grid(V)
    if cfg.get("scan", "epsilon_list", None) is not None:
        eps_list = cfg.get_float_list("scan", "epsilon_list")
    else:
        try:
            eps_list = detpot.default_epsilon_list(grid)
        except OverflowError:
            raise DomainError(
                f"{cfg.origin}: [numerics] grid is too long for the default "
                f"epsilon_list (L/12)^2 to be a float") from None
    tol = cfg.get_positive("numerics", "tol", detpot.DEFAULT_TOL)
    try:
        report = detpot.classify(V, eps_list, tol, grid)
    except DomainError as err:
        raise DomainError(f"{cfg.origin}: [numerics] grid and [scan] "
                          f"epsilon_list: {err}") from None
    rows = tuple(zip(report.epsilon_list, report.residual_per_epsilon,
                     report.fourier_residual_norms))
    record = RunRecord("detpot", "classification", cfg.echo_lines(),
                       DETPOT_COLUMNS, rows,
                       fits={"verdict": report.verdict,
                             "scaling_exponent": report.scaling_exponent})
    return ScanResult("detpot", [record], dict(record.fits, tol=tol))


def run_uncertainty(cfg):
    """Single quantum run recording the uncertainty-product time series and
    its floor versus hbar/2."""
    V = cfg.potential()
    eps0, r0, p0 = cfg.packet()
    hbar = cfg.get_positive("scan", "hbar", 1.0)
    t_final = cfg.get_positive("numerics", "t_final")
    n_snapshots = cfg.get_int("numerics", "n_snapshots", 64)

    def point_fits(data, hbar, eps):
        u_min = float(np.min(data.column("uncertainty_product")))
        return {"hbar": hbar,
                "uncertainty_min": u_min,
                "hbar_over_2": hbar / 2.0,
                "floor_satisfied": bool(u_min >= 0.5 * hbar * (1.0 - 1e-6))}

    records = _quantum_scan(
        cfg, "simulate", V, r0, p0, [(f"hbar={hbar!r}", hbar, eps0)],
        t_final, n_snapshots, point_fits)
    fits = records[0].fits
    return ScanResult("simulate", records,
                      {key: fits[key] for key in ("hbar", "uncertainty_min",
                                                  "hbar_over_2",
                                                  "floor_satisfied")})


def run_phj_demo(cfg):
    """Characteristic solution diagnostics along a Newton trajectory."""
    V = cfg.potential()
    eps, r0, p0 = cfg.packet()
    c2 = cfg.get_float("packet", "s0_curvature", 0.0)
    t_final = cfg.get_positive("numerics", "t_final")
    n_report = cfg.get_int("numerics", "n_snapshots", 9)
    grid = cfg.grid_spec() or make_grid(-8.0, 8.0, 256)

    s0 = p0 * grid.x + c2 * grid.x ** 2
    if not np.all(np.isfinite(s0)):
        raise DomainError(
            f"{cfg.origin}: [packet] p0 = {p0!r} and s0_curvature = {c2!r} "
            f"overflow the initial action p0 x + s0_curvature x^2 on the "
            f"grid")
    # a report row differences S over its neighbours t +- delta, which
    # must lie after t = 0 and short of the next report time
    delta = 1e-3
    if 0.1 * t_final <= delta or 0.85 * t_final <= 2 * delta * (n_report - 1):
        raise DomainError(
            f"{cfg.origin}: [numerics] t_final = {t_final!r} and n_snapshots"
            f" = {n_report} crowd the report times; phj needs 0.1 t_final > "
            f"{delta:g} and 0.85 t_final / (n_snapshots - 1) > {2 * delta:g}")
    report_times = np.linspace(0.1 * t_final, 0.95 * t_final, n_report)
    snapshot_times = np.unique(np.concatenate(
        [report_times - delta, report_times, report_times + delta]))
    # the fan lands on every snapshot time, so each half-difference +-delta
    # takes whole steps; Stormer-Verlet's O(dt^2) action error enters the
    # centred dS/dt divided by delta, and four steps per delta keep the
    # projected Newton residual a factor ~5 inside its 1e-5 pin (two steps
    # per delta miss it)
    fan = hjflow.solve_hj(grid, s0, V, t_final, dt=delta / 4,
                          snapshot_times=snapshot_times)

    n_traj = np.ceil(t_final / 1e-4)
    check_steps(n_traj, "[numerics] t_final")
    n_traj = int(n_traj)
    r, p = classical.newton_integrate(V, r0, p0, t_final / n_traj, n_traj)
    times = t_final / n_traj * np.arange(n_traj + 1)
    r_t, p_t = np.interp(fan.times, times, r), np.interp(fan.times, times, p)
    term1, term2, p_gap = hjflow.deterministic_continuity_check(
        eps, fan, r_t, p_t)
    newton_res = hjflow.projected_newton_check(fan, V, r_t)

    rows = []
    for t_rep in report_times:
        i = int(np.argmin(np.abs(fan.times - t_rep)))
        hj_res = hjflow.classical_hj_residual(grid, fan, V, i)
        rows.append((fan.times[i], hj_res, term1[i], term2[i], p_gap[i],
                     newton_res[i - 1]))
    fits = {
        "epsilon": eps,
        "hj_residual_max": float(max(r[1] for r in rows)),
        "projected_newton_residual_max": float(max(r[5] for r in rows)),
    }
    record = RunRecord("phj_demo", "characteristics", cfg.echo_lines(),
                       PHJ_COLUMNS, tuple(rows), fits=dict(fits))
    return ScanResult("phj_demo", [record], fits)


def run_liouville_demo(cfg):
    """Phase-space blob transport with mass/center/L1 checkpoints."""
    V = cfg.potential()
    eps, r0, p0 = cfg.packet()
    t_final = cfg.get_positive("numerics", "t_final")
    n_check = cfg.get_int("numerics", "n_snapshots", 8)
    dt = cfg.get_positive("numerics", "dt", 0.1)
    x_min, x_max, p_min, p_max, nx, n_p = cfg.phase_grid()
    sigma = np.sqrt(eps / 2.0)
    try:
        rho0 = classical.gaussian_phase_blob(
            r0, p0, sigma, sigma, x_min, x_max, p_min, p_max, nx, n_p)
    except DomainError as err:
        raise DomainError(f"{cfg.origin}: [packet] epsilon, r0, p0 and "
                          f"[numerics] phase_grid: {err}") from None
    X, P = np.meshgrid(rho0.x_nodes, rho0.p_nodes, indexing="ij")
    densities = classical.liouville_evolve(rho0, V, t_final, dt, n_check)
    rows = []
    for t, rho_t in zip(np.linspace(t_final / n_check, t_final, n_check),
                        densities):
        w = rho_t * rho0.dx * rho0.dp
        mass = float(w.sum())
        cx = float((w * X).sum() / mass)
        cp = float((w * P).sum() / mass)
        l1 = float(np.sum(np.abs(rho_t - rho0.values)) * rho0.dx * rho0.dp)
        rows.append((t, mass, cx, cp, l1))
    fits = {"l1_final": rows[-1][4], "mass_final": rows[-1][1]}
    record = RunRecord("liouville_demo", "blob", cfg.echo_lines(),
                       LIOUVILLE_COLUMNS, tuple(rows), fits=dict(fits))
    return ScanResult("liouville_demo", [record], fits)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

# [experiment] kind -> (the CLI command that runs it, its runner); a config
# without a kind is the uncertainty run of `simulate`
EXPERIMENTS = {
    None: ("simulate", run_uncertainty),
    "standard_limit": ("scan", run_standard_limit),
    "deterministic_limit": ("scan", run_deterministic_limit),
    "combined_limit": ("scan", run_combined_limit),
    "detpot": ("detpot", run_detpot),
    "phj_demo": ("phj", run_phj_demo),
    "liouville_demo": ("liouville", run_liouville_demo),
}


def run_experiment(cfg):
    """Run the config's [experiment] kind; the one timer of a run sets the
    result's wall_clock, which summary.txt reports as wall_clock_s.  A
    record row holding nan or inf raises LabError: such a number means the
    run overflowed, not that it measured something, so numpy's
    floating-point warnings are silenced while the run computes."""
    kind = cfg.get("experiment", "kind", None)
    if kind not in EXPERIMENTS:
        raise DomainError(f"unknown experiment kind {kind!r}; expected one "
                          f"of {', '.join(map(repr, EXPERIMENTS))}")
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = EXPERIMENTS[kind][1](cfg)
    result.wall_clock = time.perf_counter() - start
    for rec in result.records:
        rows = np.asarray(rec.rows, dtype=float).reshape(-1, len(rec.columns))
        bad = ~np.isfinite(rows).all(axis=0)
        if bad.any():
            raise LabError(
                f"{rec.experiment} {rec.label}: column "
                f"{rec.columns[int(np.argmax(bad))]} holds nan or inf")
    return result
