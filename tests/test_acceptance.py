"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are pinned here, not calibrated elsewhere."""

import os

import numpy as np

from hbarlab import classical, detpot, hjflow, schrodinger
from hbarlab.config import RunConfig
from hbarlab.experiments import (
    auto_grid,
    run_combined_limit,
    run_detpot,
    run_deterministic_limit,
)
from hbarlab.grid import make_grid
from hbarlab.potential import PotentialSpec, eval_force
from hbarlab.records import write_outputs

from helpers import (
    analytic_gaussian,
    analytic_packet_fields,
    delta_ansatz_check,
    ehrenfest_residuals,
    hj_residual,
    rel_err,
)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# registry of uncertainty series from the quantum runs in this module
# (criterion 9 checks the floor on every one of them)
UNCERTAINTY_SERIES = {}


def run_widths(V, grid, eps, r0, p0, hbar, t_final, n_snap, label,
               safety=0.5):
    """Propagate and sample width/uncertainty at uniform times."""
    psi = schrodinger.init_gaussian(grid, eps, r0, p0, hbar)
    dt_max = safety * schrodinger.max_stable_dt(grid, V, hbar)
    t_snap = t_final / n_snap
    n_sub = int(np.ceil(t_snap / dt_max))
    times = [0.0]
    widths = [schrodinger.observables(psi).width]
    unc = [schrodinger.observables(psi).uncertainty_product]
    for i in range(1, n_snap + 1):
        psi = schrodinger.propagate(psi, V, t_snap / n_sub, n_sub)
        times.append(i * t_snap)
        widths.append(schrodinger.observables(psi).width)
        unc.append(schrodinger.observables(psi).uncertainty_product)
    UNCERTAINTY_SERIES[label] = (hbar, np.array(unc))
    return np.array(times), np.array(widths)


def test_criterion_01_free_packet_spreading():
    # A(t) = eps (1 + (hbar/eps)^2 (t/m)^2); A(1) = 2.5 for eps = 0.5.
    eps, hbar, m = 0.5, 1.0, 1.0
    V = PotentialSpec.free(m)
    grid = auto_grid(V, eps, 0.0, 0.0, hbar, 2.0)
    times, widths = run_widths(V, grid, eps, 0.0, 0.0, hbar, 2.0, 40,
                               "c1_free")
    analytic = np.array([
        analytic_gaussian("free", eps, 0.0, hbar, m, t).epsilon_t
        for t in times])
    i1 = int(np.argmin(np.abs(times - 1.0)))
    err_at_1 = rel_err(widths[i1], 2.5)
    curve_err = float(np.max(np.abs(widths - analytic) / analytic))
    report(1, err_at_1 <= 1e-4 and curve_err <= 1e-4,
           f"A(1)={widths[i1]:.6f} (rel err {err_at_1:.2e}), "
           f"curve max rel err {curve_err:.2e}")


def test_criterion_02_harmonic_width_law():
    m = omega = hbar = 1.0
    V = PotentialSpec.harmonic(m, omega)
    # quarter period with eps = 0.5: A = hbar^2/(eps m^2 w^2) = 2.0
    eps = 0.5
    grid = auto_grid(V, eps, 0.0, 0.0, hbar, np.pi / 2)
    times, widths = run_widths(V, grid, eps, 0.0, 0.0, hbar,
                               np.pi / 2, 10, "c2_squeezed", safety=0.25)
    err_q = rel_err(widths[-1], 2.0)
    # coherent width eps = hbar/(m w): constant over a full period
    grid_c = auto_grid(V, 1.0, 0.0, 1.0, hbar, 2 * np.pi)
    _, widths_c = run_widths(V, grid_c, 1.0, 0.0, 1.0, hbar,
                             2 * np.pi, 60, "c2_coherent", safety=0.2)
    coh_err = float(np.max(np.abs(widths_c - 1.0)))
    report(2, err_q <= 1e-4 and coh_err <= 1e-6,
           f"A(pi/2)={widths[-1]:.6f} (rel err {err_q:.2e}), "
           f"coherent width drift {coh_err:.2e}")


COMBINED_BASE = """
[experiment]
kind = combined_limit
seed = 0

[potential]
kind = {pot}

[packet]
r0 = 0.0
p0 = 1.0

[scan]
k = {k}
hbar_list = 1.0,0.1,0.01

[numerics]
grid = auto
t_final = {t_final}
n_snapshots = 32

[output]
directory = runs/acceptance
"""


def test_criterion_03_combined_limit_trajectories():
    cases = [
        ("free\nmass = 1.0", 1.0, 2.0),
        ("constant_force\nmass = 1.0\nf0 = 1.0", 1.0, 2.0),
        ("harmonic\nmass = 1.0\nomega = 1.0", 0.5, 2 * np.pi),
    ]
    ok = True
    details = []
    for pot, k, t_final in cases:
        cfg = RunConfig.from_text(
            COMBINED_BASE.format(pot=pot, k=k, t_final=t_final))
        result = run_combined_limit(cfg)
        devs = result.fits["trajectory_deviation_max"]
        # monotone within an additive floor: for free/constant-force the
        # solver tracks Newton to roundoff at every hbar
        mono = all(b <= a + 1e-9 for a, b in zip(devs, devs[1:]))
        small = devs[-1] <= 1e-3
        ok = ok and mono and small
        details.append(f"{pot.split(chr(10))[0]}: devs="
                       + "/".join(f"{d:.2e}" for d in devs))
    # the analytic action field of the combined solution solves the
    # quantum-mode Hamilton-Jacobi equation
    g = make_grid(-12, 12, 1024)
    hbar, k = 0.1, 1.0
    res_max = 0.0
    for case, V, kw in (
        ("free", PotentialSpec.free(), {}),
        ("harmonic", PotentialSpec.harmonic(1.0, 1.0), {"omega": 1.0}),
    ):
        f, ds_dt = analytic_packet_fields(
            case, g, k * hbar, 1.0, hbar, 1.0, t=0.7, **kw)
        res_max = max(res_max, hj_residual(f, ds_dt, V))
    ok = ok and res_max <= 1e-6
    report(3, ok, "; ".join(details) + f"; analytic-S residual {res_max:.2e}")


def test_criterion_04_deterministic_limit_obstruction():
    cfg = RunConfig.from_text("""
[experiment]
kind = deterministic_limit
seed = 0

[potential]
kind = free
mass = 1.0

[packet]
r0 = 0.0
p0 = 0.0

[scan]
hbar = 1.0
epsilon_list = 0.1,0.0316227766016838,0.01

[numerics]
grid = auto
t_star = 1.0
n_snapshots = 4

[output]
directory = runs/acceptance
""")
    result = run_deterministic_limit(cfg)
    slope = result.fits["width_over_epsilon_exponent"]
    bracket = result.fits["bracket_exponent"]
    ok = abs(slope + 2.0) <= 0.05 and abs(bracket + 2.0) <= 0.1
    report(4, ok, f"A(t*)/eps slope {slope:.4f}, "
                  f"bracket max slope {bracket:.4f}")


def test_criterion_05_deterministic_potential_theorem():
    grid = detpot.default_grid()
    det_family = ([0.0], [0, 1.0], [0, 0, 1.0], [1.0, 2.0, 3.0])
    nondet = [PotentialSpec.polynomial([0, 0, 0, 1.0]),
              PotentialSpec.polynomial([0, 0, 0, 0, 1.0]),
              PotentialSpec.tabulated(grid, np.cos(grid.x))]
    ok = True
    for coeffs in det_family:
        rep = detpot.classify(PotentialSpec.polynomial(coeffs), grid=grid)
        ok = ok and rep.verdict == "Deterministic" \
            and all(r <= 1e-8 for r in rep.residual_per_epsilon)
    for V in nondet:
        rep = detpot.classify(V, grid=grid)
        ok = ok and rep.verdict == "NonDeterministic"
    # quartic residual equals the moment-oracle value ||6 eps x|| windowed
    eps = 0.1
    quartic = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
    res = detpot.detpot_residual(quartic, eps, grid)
    w = np.abs(grid.x) <= grid.length / 4.0
    F = eval_force(quartic, grid.x)
    oracle = (np.sqrt(grid.dx * np.sum((6 * eps * grid.x[w]) ** 2))
              / np.sqrt(grid.dx * np.sum(F[w] ** 2)))
    oracle_err = abs(res - oracle) / oracle
    exponent = detpot.classify(quartic, grid=grid).scaling_exponent
    ok = ok and oracle_err <= 1e-6 and abs(exponent - 1.0) <= 0.05
    report(5, ok, f"x^4 residual vs oracle rel diff {oracle_err:.2e}, "
                  f"eps-scaling exponent {exponent:.4f}")


def test_criterion_06_ehrenfest_universality():
    m = hbar = 1.0
    V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0], m)
    g = make_grid(-8, 8, 256)
    psi = schrodinger.init_gaussian(g, 0.5, 0.0, 1.0, hbar)
    dt_max = 0.5 * schrodinger.max_stable_dt(g, V, hbar)
    n_snap, t_final = 300, 1.5
    t_snap = t_final / n_snap
    n_sub = int(np.ceil(t_snap / dt_max))
    snaps = [psi]
    for _ in range(n_snap):
        psi = schrodinger.propagate(psi, V, t_snap / n_sub, n_sub)
        snaps.append(psi)
    UNCERTAINTY_SERIES["c6_quartic"] = (hbar, np.array(
        [schrodinger.observables(s).uncertainty_product for s in snaps]))
    res1, res2 = ehrenfest_residuals(snaps, V)
    gap = 0.0
    for s in snaps:
        rho = np.abs(s.values) ** 2
        x_bar = g.dx * np.sum(g.x * rho)
        f_bar = g.dx * np.sum(rho * eval_force(V, g.x))
        gap = max(gap, abs(f_bar - eval_force(V, x_bar)))
    ok = (np.max(np.abs(res1)) <= 1e-4 and np.max(np.abs(res2)) <= 1e-4
          and gap > 1e-2)
    report(6, ok, f"residual1 {np.max(np.abs(res1)):.2e}, "
                  f"residual2 {np.max(np.abs(res2)):.2e}, "
                  f"mean-force vs force-at-mean gap {gap:.3f}")


def test_criterion_07_phj_deterministic_limit():
    m = omega = 1.0
    V = PotentialSpec.harmonic(m, omega)
    g = make_grid(-8, 8, 256)
    p0 = 1.0
    # term2 of the continuity decomposition scales linearly in eps
    sol = hjflow.solve_hj(g, p0 * g.x, V, 1.2, dt=1e-4,
                          snapshot_times=[0.0, 0.6, 1.2])
    r_t = p0 * np.sin(sol.times)
    p_t = p0 * np.cos(sol.times)
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
    term2 = [abs(hjflow.deterministic_continuity_check(e, sol, r_t, p_t)[1][1])
             for e in eps_list]
    slope2 = float(np.polyfit(np.log(eps_list), np.log(term2), 1)[0])

    # expectations converge to (r, m rdot) with error ~ eps
    gf = make_grid(-4, 4, 4096)
    Vf = PotentialSpec.free(m)
    c = 0.05
    s0 = p0 * gf.x + c * gf.x ** 3
    t_run = 0.3
    solf = hjflow.solve_hj(gf, s0, Vf, t_run, dt=2e-4,
                           snapshot_times=[0.0, t_run])
    x0_traj = 0.4
    p_traj = p0 + 3 * c * x0_traj ** 2
    r_traj = x0_traj + p_traj * t_run / m
    gaps = []
    from helpers import expectations, gauss_rho
    for eps in [3e-2, 1e-2, 3e-3, 1e-3]:
        x_mean, p_mean = expectations(
            gf, gauss_rho(gf.x, eps, r=r_traj), solf.action(-1, gf.x), m)
        gaps.append(abs(p_mean - p_traj) + abs(x_mean - r_traj))
    slope_e = float(np.polyfit(np.log([3e-2, 1e-2, 3e-3, 1e-3]),
                               np.log(gaps), 1)[0])

    # projected Newton law on harmonic characteristics
    ts = 0.5 + 2e-3 * np.arange(-2, 3)
    soln = hjflow.solve_hj(g, p0 * g.x, V, ts[-1], dt=1e-4,
                           snapshot_times=ts)
    rn = p0 * np.sin(soln.times)
    newton_res = float(np.max(hjflow.projected_newton_check(soln, V, rn)))

    ok = (abs(slope2 - 1.0) <= 0.02 and abs(slope_e - 1.0) <= 0.05
          and newton_res <= 1e-5)
    report(7, ok, f"term2 slope {slope2:.4f}, expectation-gap slope "
                  f"{slope_e:.4f}, projected-Newton residual "
                  f"{newton_res:.2e}")


def test_criterion_08_liouville_newton_consistency():
    V = PotentialSpec.harmonic(1.0, 1.0)
    res = delta_ansatz_check(V, 1.0, 0.5, 2 * np.pi)
    rho0 = classical.gaussian_phase_blob(1.0, 0.0, 0.3, 0.3, -3, 3, -3, 3)
    (out,) = classical.liouville_evolve(rho0, V, 2 * np.pi, dt=0.05)
    l1 = float(np.sum(np.abs(out - rho0.values)) * rho0.dx * rho0.dp)
    ok = res <= 1e-6 and l1 <= 0.02
    report(8, ok, f"weak-form residual {res:.2e}, "
                  f"period-return L1 {l1:.2e}")


def test_criterion_09_uncertainty_floor():
    # coherent state saturates hbar/2; every quantum run in this suite
    # respects the floor
    assert "c2_coherent" in UNCERTAINTY_SERIES, "criterion 2 must run first"
    hbar, coh = UNCERTAINTY_SERIES["c2_coherent"]
    sat = float(np.max(np.abs(coh - hbar / 2)))
    ok = sat <= 1e-6
    worst = None
    for label, (hb, series) in UNCERTAINTY_SERIES.items():
        m = float(np.min(series))
        ok = ok and m >= 0.5 * hb * (1.0 - 1e-6)
        frac = m / (0.5 * hb)
        if worst is None or frac < worst[1]:
            worst = (label, frac)
    report(9, ok, f"coherent saturation error {sat:.2e}; floor min/limit "
                  f"= {worst[1]:.9f} ({worst[0]}; {len(UNCERTAINTY_SERIES)} "
                  f"runs checked)")


def test_criterion_10_regression_determinism(tmp_path):
    cfg = RunConfig.from_text(
        COMBINED_BASE.format(pot="harmonic\nmass = 1.0\nomega = 1.0",
                             k=0.5, t_final=1.0)).with_overrides(
        ["scan.hbar_list=1.0,0.1", "numerics.n_snapshots=6"])
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_outputs(run_combined_limit(cfg), str(a_dir))
    write_outputs(run_combined_limit(cfg), str(b_dir))
    det_cfg = RunConfig.from_text(
        "[experiment]\nkind = detpot\nseed = 0\n"
        "[potential]\nkind = polynomial\ncoeffs = 0,0,0,0,1.0\n")
    write_outputs(run_detpot(det_cfg), str(a_dir / "dp"))
    write_outputs(run_detpot(det_cfg), str(b_dir / "dp"))
    ok = True
    compared = 0
    for root, _, files in os.walk(a_dir):
        for name in sorted(files):
            if not name.endswith(".csv"):
                continue
            rel = os.path.relpath(os.path.join(root, name), a_dir)
            ok = ok and (a_dir / rel).read_bytes() == \
                (b_dir / rel).read_bytes()
            compared += 1
    ok = ok and compared >= 3
    report(10, ok, f"{compared} CSVs byte-identical across reruns")
