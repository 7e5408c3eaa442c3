"""Experiment drivers: the limiting procedures as reproducible scans.

Each driver takes a RunConfig and returns a ScanResult holding one
RunRecord per scan point plus scan-level fits, which `records.write_outputs`
writes.  Workers are pure functions of the configuration; records are
ordered by scan index, so reruns of the same configuration produce
byte-identical CSVs.  EXPERIMENTS is the one
list of experiment kinds: it maps each [experiment] kind to the CLI command
that runs it and to its runner.  `run_experiment` is how a run starts: it
refuses an unknown kind and times the runner, and that one timer's reading
is the summary's wall_clock_s.

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

Numerics policy: grids are auto-sized per run from the packet and
potential scales (resolution follows the momentum content ~ p/hbar, so
step sizes shrink linearly with hbar and splitting errors on the means
drop as hbar^2 across a combined scan); BoundaryLeak triggers an automatic
rerun on a doubled domain, at most twice.  A quantum run takes one time
step, the phase-rotation limit of `schrodinger.max_stable_dt` (capped in a
combined scan) shortened to a whole number of steps per snapshot interval;
every snapshot is the middle of a triple one step apart, behind the
centered dS/dt difference.  A run keeps its rows in QUANTUM_COLUMNS order
(read one with `QuantumRunData.column`) and, with [output] dump_fields, its
(t, x, rho, S) snapshots for the record.  Each quantum record's fits
carry grid_n, dt, propagation_steps and widen_retries; they reach
summary.txt and the CLI line, not the CSV.  The three limit scans and the
uncertainty run share one loop over scan points, `_quantum_scan`.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import classical, detpot, hjflow, madelung, schrodinger
from .errors import BoundaryLeak, DomainError
from .grid import complex_field, make_grid, real_field
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


def auto_grid(V, eps0, r0, p0, hbar, t_final):
    """Size the domain from the classical extent plus packet tails, and the
    resolution from the momentum content (p_max/hbar plus the packet's own
    spectral width at its narrowest)."""
    m = V.mass
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
        if f0 != 0.0:
            t_v = -p0 / f0
            if 0 < t_v < t_final:
                candidates.append(r0 + p0 * t_v / m
                                  + 0.5 * f0 * t_v ** 2 / m)
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
        p_max = float(np.sqrt(2 * m * max(energy - v_min, 0.0))) + abs(p0)
        # width can breathe; bracket it by a factor 4 around eps0
        eps_min = 0.25 * eps0
        eps_max = 4.0 * eps0
    sigma_max = np.sqrt(eps_max / 2.0)
    sigma_min = np.sqrt(eps_min / 2.0)
    # the leak check watches the outer 5% of points per side, so the packet
    # (7 sigma covers ~1e-12 of the mass) must fit in the central 90%
    half = 1.12 * (extent + 7.0 * sigma_max) + 0.5
    # spectral sufficiency: cover the momentum content p_max/hbar plus the
    # packet's own spectral width (Gaussian tail ~ exp(-(k sigma)^2/2) needs
    # k sigma ~ 8 to reach the 1e-10 leak floor); the step-size rule then
    # scales dt ~ 1/k_max^2, so resolution is not over-provisioned
    k_need = 1.3 * p_max / hbar + 8.0 / sigma_min
    n_k = k_need * (2 * half) / np.pi
    n = int(np.clip(_next_pow2(max(n_k, 256)), 256, 65536))
    return make_grid(-half, half, n)


# ----------------------------------------------------------------------
# Quantum run with per-snapshot records
# ----------------------------------------------------------------------

@dataclass
class QuantumRunData:
    grid: object
    step_limit: float              # step bound before rounding
    dt: float                      # the one step of the run
    rows: np.ndarray               # one QUANTUM_COLUMNS row per snapshot
    fields: list                   # (t, x, rho, S) per snapshot if collected
    propagation_steps: int = 0     # Strang steps taken
    widen_retries: int = 0         # domain doublings before this run

    def column(self, name):
        """One QUANTUM_COLUMNS column over the snapshots."""
        return self.rows[:, QUANTUM_COLUMNS.index(name)]


def _time_reversed(psi):
    """conj(psi) at -t.  For a real potential conj U(dt) conj = U(-dt), so
    reversing, propagating and reversing again steps backward in time."""
    return schrodinger.WaveFunction(
        complex_field(psi.grid, np.conj(psi.values)), psi.hbar, psi.m, -psi.t)


def _snapshot_row(triple, V, dt):
    """One QUANTUM_COLUMNS row (without t) plus the middle Madelung fields,
    from a snapshot triple (psi(t - dt), psi(t), psi(t + dt))."""
    fm, mid, fp = madelung.anchored_series(list(triple))
    snap = triple[1]
    ds_dt, common = madelung.ds_dt_centered(fm, fp, dt)
    obs = schrodinger.observables(snap)
    return ((obs.x_mean, obs.p_mean, obs.var_x, obs.var_p,
             obs.uncertainty_product, obs.width,
             schrodinger.excess_kurtosis(snap),
             madelung.quantum_term_norm(mid, snap.m, support=common),
             madelung.hj_residual(mid, ds_dt, V, "classical",
                                  support=common)), mid)


def quantum_run(V, grid, eps0, r0, p0, hbar, t_final, n_snapshots,
                dt_cap=np.inf, collect_fields=False):
    """Propagate a packet and collect the pinned per-snapshot observables.

    The run takes one step dt = t_snap / n_sub: the phase-rotation limit of
    `schrodinger.max_stable_dt`, capped at dt_cap, shortened to a whole
    number (at least 3) of steps per snapshot interval.  Every snapshot,
    t = 0 included, is the middle of a triple one step apart, so the dS/dt
    entering the classical-residual column is a centered difference; the
    state before t = 0 comes from time reversal.  The Strang error of the
    observables is bounded by commutators, not by the phase at the grid's
    Nyquist mode (Lubich, From Quantum to Classical Molecular Dynamics,
    2008, ch. III), and every pinned tolerance holds at this step.
    """
    m = V.mass
    step_limit = min(schrodinger.max_stable_dt(grid, V, hbar, m), dt_cap)
    t_snap = t_final / n_snapshots
    # >= 3 steps per snapshot interval, so consecutive triples do not overlap
    n_sub = max(3, int(np.ceil(t_snap / step_limit)))
    dt = t_snap / n_sub

    def step(state, n_steps=1):
        return schrodinger.propagate(state, V, dt, n_steps)

    psi = schrodinger.init_gaussian(grid, eps0, r0, p0, hbar, m)
    before = _time_reversed(step(_time_reversed(psi)))
    rows, fields = [], []
    for i in range(n_snapshots + 1):
        if i:
            before = step(after, n_sub - 2)
            psi = step(before)
        after = step(psi)
        row, mid = _snapshot_row((before, psi, after), V, dt)
        rows.append((i * t_snap,) + row)
        if collect_fields:
            fields.append((i * t_snap, grid.x, mid.rho.values, mid.s.values))
    return QuantumRunData(grid, step_limit, dt, np.array(rows), fields,
                          propagation_steps=2 + n_snapshots * n_sub)


def quantum_run_autowiden(V, grid, eps0, r0, p0, hbar, t_final, n_snapshots,
                          dt_cap=np.inf, collect_fields=False):
    """quantum_run with the domain-doubling retry policy on BoundaryLeak;
    the run's widen_retries counts the doublings."""
    for attempt in range(MAX_WIDEN_RETRIES + 1):
        try:
            data = quantum_run(V, grid, eps0, r0, p0, hbar, t_final,
                               n_snapshots, dt_cap, collect_fields)
        except BoundaryLeak:
            if attempt == MAX_WIDEN_RETRIES:
                raise
            half = grid.length            # doubled half-width
            grid = make_grid(-half, half, min(2 * grid.n, 1 << 17))
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
                  point_fits, tighten_dt=False):
    """One quantum run and one RunRecord per scan point.

    `points` holds (label, hbar, eps) triples and `point_fits(data, hbar,
    eps)` gives each record's fits.  The grid comes from the config or from
    auto_grid, and a BoundaryLeak widens it and retries.  With tighten_dt
    each point's step is capped at 0.9x the previous point's, so splitting
    error on the means falls along the scan.  Each record carries its run's
    field dumps when the config asks for them.
    """
    records = []
    dt_cap = np.inf
    for label, hbar, eps in points:
        grid = cfg.grid_spec() or auto_grid(V, eps, r0, p0, hbar, t_final)
        data = quantum_run_autowiden(V, grid, eps, r0, p0, hbar, t_final,
                                     n_snapshots, dt_cap, cfg.dump_fields())
        if tighten_dt:
            dt_cap = 0.9 * data.step_limit
        fits = point_fits(data, hbar, eps)
        fits.update(grid_n=data.grid.n, dt=data.dt,
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
    inserts into the action equation."""
    u2 = (grid.x - r_star) ** 2
    return float(np.max(np.abs(hbar ** 2 / (2 * m * eps ** 2) * (eps - u2))))


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
    n_ref = int(np.ceil(t_star / 1e-3))
    traj = classical.newton_integrate(V, r0, p0, t_star / n_ref, n_ref)
    r_star = traj.r[-1]

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
    n_per = int(np.ceil(t_snap / 1e-4))
    traj = classical.newton_integrate(
        V, r0, p0, t_snap / n_per, n_per * n_snapshots, save_stride=n_per)

    def point_fits(data, hbar, eps):
        return {"epsilon": eps,
                "trajectory_deviation_max":
                    float(np.max(np.abs(data.column("x_mean") - traj.r))),
                "terminal_width": data.column("width")[-1],
                "kurtosis_excess_max":
                    float(np.max(np.abs(data.column("kurtosis_excess"))))}

    records = _quantum_scan(
        cfg, "combined_limit", V, r0, p0,
        [(f"hbar={hbar!r}", hbar, k * hbar) for hbar in hbar_list],
        t_final, n_snapshots, point_fits, tighten_dt=True)
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
    grid = cfg.grid_spec() or detpot.default_grid()
    eps_raw = cfg.get("scan", "epsilon_list", None)
    eps_list = (detpot.default_epsilon_list(grid) if eps_raw is None
                else cfg.get_float_list("scan", "epsilon_list"))
    tol = cfg.get_float("numerics", "tol", detpot.DEFAULT_TOL)
    report = detpot.classify(V, eps_list, tol, grid)
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

    s0 = real_field(grid, p0 * grid.x + c2 * grid.x ** 2)
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
    sol = hjflow.solve_hj(s0, V, t_final, dt=5e-5,
                          snapshot_times=snapshot_times)

    n_traj = int(np.ceil(t_final / 1e-4))
    traj = classical.newton_integrate(V, r0, p0, t_final / n_traj, n_traj,
                                      save_stride=max(1, n_traj // 4000))
    r_t, p_t = classical.sample_trajectory(traj, sol.times)
    term1, term2, p_gap = hjflow.deterministic_continuity_check(
        eps, sol, r_t, p_t)
    newton_res = hjflow.projected_newton_check(sol, V, r_t)

    rows = []
    for t_rep in report_times:
        i = int(np.argmin(np.abs(sol.times - t_rep)))
        hj_res = hjflow.classical_hj_residual(sol, V, i)
        rows.append((sol.times[i], hj_res, term1[i], term2[i], p_gap[i],
                     newton_res[i - 1]))
    fits = {
        "epsilon": eps,
        "hj_residual_max": float(max(r[1] for r in rows)),
        "projected_newton_residual_max": float(max(r[5] for r in rows)),
        "caustic_time": sol.fan.t_crossing,
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
    dt = cfg.get_positive("numerics", "dt", 1e-3)
    x_min, x_max, p_min, p_max, nx, n_p = cfg.phase_grid()
    sigma = np.sqrt(eps / 2.0)
    rho0 = classical.gaussian_phase_blob(r0, p0, sigma, sigma,
                                         x_min, x_max, p_min, p_max, nx, n_p)
    rows = []
    for t in np.linspace(t_final / n_check, t_final, n_check):
        rho_t = classical.liouville_evolve(rho0, V, t, dt)
        w = rho_t.values * rho_t.dx * rho_t.dp
        mass = float(w.sum())
        X, P = np.meshgrid(rho_t.x_nodes, rho_t.p_nodes, indexing="ij")
        cx = float((w * X).sum() / mass)
        cp = float((w * P).sum() / mass)
        l1 = float(np.sum(np.abs(rho_t.values - rho0.values))
                   * rho_t.dx * rho_t.dp)
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
    result's wall_clock, which summary.txt reports as wall_clock_s."""
    kind = cfg.get("experiment", "kind", None)
    if kind not in EXPERIMENTS:
        raise DomainError(f"unknown experiment kind {kind!r}; expected one "
                          f"of {', '.join(map(repr, EXPERIMENTS))}")
    start = time.perf_counter()
    result = EXPERIMENTS[kind][1](cfg)
    result.wall_clock = time.perf_counter() - start
    return result
