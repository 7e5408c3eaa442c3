import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from hbarlab.cli import cli_main as main
from hbarlab.config import RunConfig, load_potential_table
from hbarlab.detpot import classify
from hbarlab.errors import DomainError, LabError, NodeError
from hbarlab.experiments import (
    EXPERIMENTS,
    ScanResult,
    auto_grid,
    run_combined_limit,
    run_detpot,
    run_deterministic_limit,
    run_liouville_demo,
    run_phj_demo,
    run_experiment,
    run_standard_limit,
    run_uncertainty,
)
from hbarlab.potential import PotentialSpec
from hbarlab.records import (
    QUANTUM_COLUMNS,
    RunRecord,
    read_csv,
    to_csv_text,
    write_outputs,
)

CONFIG_TEXT = """
[experiment]
kind = combined_limit
seed = 0

[potential]
kind = harmonic
mass = 1.0
omega = 1.0

[packet]
r0 = 0.0
p0 = 1.0

[scan]
k = 0.5
hbar_list = 1.0,0.1

[numerics]
grid = auto
t_final = 1.0
n_snapshots = 8

[output]
directory = runs/test
"""


class TestConfig:
    def test_parse_and_typed_access(self):
        cfg = RunConfig.from_text(CONFIG_TEXT)
        assert cfg.get("experiment", "kind") == "combined_limit"
        assert EXPERIMENTS["combined_limit"][0] == "scan"
        assert cfg.get_float("scan", "k") == 0.5
        assert cfg.get_float_list("scan", "hbar_list") == [1.0, 0.1]
        V = cfg.potential()
        assert V.kind == "harmonic" and V.omega == 1.0

    def test_missing_key(self):
        cfg = RunConfig.from_text(CONFIG_TEXT)
        with pytest.raises(DomainError):
            cfg.get("numerics", "no_such_key")

    def test_bad_syntax(self):
        with pytest.raises(DomainError):
            RunConfig.from_text("key_without_section = 1")
        with pytest.raises(DomainError):
            RunConfig.from_text("[s]\nnot a pair")

    def test_overrides(self):
        cfg = RunConfig.from_text(CONFIG_TEXT).with_overrides(
            ["scan.k=0.25", "numerics.t_final=2.0"])
        assert cfg.get_float("scan", "k") == 0.25
        assert cfg.get_float("numerics", "t_final") == 2.0
        with pytest.raises(DomainError):
            cfg.with_overrides(["nodots=1"])

    def test_echo_lines_round_trip(self):
        cfg = RunConfig.from_text(CONFIG_TEXT)
        echo = cfg.echo_lines()
        assert "experiment.kind = combined_limit" in echo
        assert "scan.hbar_list = 1.0,0.1" in echo

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = RunConfig.from_text(
            "[experiment]\nkind = warp_drive\n")
        with pytest.raises(DomainError, match="warp_drive"):
            run_experiment(cfg)
        for command in ("simulate", "scan", "detpot", "phj", "liouville"):
            code = main([command, "--config", "combined_free",
                         "--set", "experiment.kind=warp_drive",
                         "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 1
            assert "error:" in err and "warp_drive" in err
            assert not os.listdir(tmp_path)

    def test_grid_spec(self):
        cfg = RunConfig.from_text(
            CONFIG_TEXT).with_overrides(["numerics.grid=-5,5,64"])
        g = cfg.grid_spec()
        assert (g.x_min, g.x_max, g.n) == (-5.0, 5.0, 64)

    def test_tabulated_file(self, tmp_path):
        g = np.linspace(-4, 4, 64, endpoint=False)
        path = tmp_path / "table.txt"
        np.savetxt(path, np.column_stack([g, g ** 2]))
        field = load_potential_table(str(path))
        assert field.grid.n == 64
        assert field.grid.x_min == -4.0
        cfg = RunConfig.from_text(
            "[potential]\nkind = tabulated\n"
            f"table = {path}\n")
        assert cfg.potential().kind == "tabulated"


def _preset_names():
    preset_dir = resources.files("hbarlab").joinpath("presets")
    return sorted(p.name[:-len(".cfg")] for p in preset_dir.iterdir()
                  if p.name.endswith(".cfg"))


# documented numeric failures; every other preset exits 0
PRESET_EXIT_CODES = {"phj_focusing": 2}     # the caustic at t = 1
# the quartic packet grows a low-mass tail lobe that splits the density
# support, so to_madelung raises NodeError and the scan exits 2
QUARTIC_NODE_ERROR = pytest.mark.xfail(
    strict=True, reason="NodeError on a low-mass tail lobe (ROADMAP 4b)")


class TestPresets:
    def test_all_presets_parse_and_build(self):
        from importlib import resources
        preset_dir = resources.files("hbarlab").joinpath("presets")
        names = sorted(p.name for p in preset_dir.iterdir()
                       if p.name.endswith(".cfg"))
        assert len(names) >= 10
        for name in names:
            text = preset_dir.joinpath(name).read_text(encoding="utf-8")
            cfg = RunConfig.from_text(text, origin=name)
            cfg.potential()          # potential section is well formed
            assert cfg.get("experiment", "kind", None) in EXPERIMENTS
            cfg.output_directory()

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=QUARTIC_NODE_ERROR)
        if name == "combined_quartic" else name
        for name in _preset_names()])
    def test_preset_runs_as_shipped(self, name, tmp_path, capsys):
        text = resources.files("hbarlab").joinpath(
            "presets", f"{name}.cfg").read_text(encoding="utf-8")
        kind = RunConfig.from_text(text).get("experiment", "kind", None)
        code = main([EXPERIMENTS[kind][0], "--config", name,
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == PRESET_EXIT_CODES.get(name, 0), err
        assert "Traceback" not in err


class TestRecords:
    def test_csv_golden_header(self):
        rec = RunRecord("simulate", "demo", ("a.b = 1",), QUANTUM_COLUMNS,
                        ((0.0,) * len(QUANTUM_COLUMNS),))
        text = to_csv_text(rec)
        lines = text.splitlines()
        assert lines[0] == "# schema_version = 1"
        assert lines[3] == "# a.b = 1"
        assert lines[4] == ("t,x_mean,p_mean,var_x,var_p,"
                            "uncertainty_product,width,kurtosis_excess,"
                            "quantum_term_norm,hj_classical_residual")

    def test_round_trip(self, tmp_path):
        rec = RunRecord("simulate", "demo", ("a.b = 1",), ("t", "v"),
                        ((0.5, 2.5), (1.0, 0.1)))
        path = tmp_path / "r.csv"
        path.write_text(to_csv_text(rec))
        meta, columns, data = read_csv(str(path))
        assert meta["experiment"] == "simulate"
        assert columns == ("t", "v")
        assert np.allclose(data, [[0.5, 2.5], [1.0, 0.1]])

    def test_rewrite_removes_earlier_run_files_only(self, tmp_path):
        x = np.linspace(0.0, 1.0, 4)
        dumps = tuple((t, x, x, x) for t in (0.0, 0.5, 1.0))

        def result(n_records, n_dumps):
            records = [RunRecord("simulate", f"r{i}", (), ("t",), ((0.0,),),
                                 field_dumps=dumps[:n_dumps])
                       for i in range(n_records)]
            return ScanResult("simulate", records, {})

        (tmp_path / "notes.txt").write_text("kept\n")
        write_outputs(result(3, 3), str(tmp_path))
        paths = write_outputs(result(2, 1), str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == sorted(
            [os.path.basename(p) for p in paths] + ["notes.txt"])
        assert (tmp_path / "notes.txt").read_text() == "kept\n"


def small_config(text_overrides):
    return RunConfig.from_text(CONFIG_TEXT).with_overrides(text_overrides)


class TestExperiments:
    def test_combined_limit_small(self):
        result = run_combined_limit(small_config([]))
        assert len(result.records) == 2
        assert result.fits["detpot_verdict"] == "Deterministic"
        devs = result.fits["trajectory_deviation_max"]
        assert max(devs) <= 1e-4
        assert result.fits["terminal_widths"][1] < \
            result.fits["terminal_widths"][0]

    def test_standard_limit_requires_three_points(self):
        cfg = small_config(["experiment.kind=standard_limit",
                            "packet.epsilon=0.5"])
        with pytest.raises(DomainError):
            run_standard_limit(cfg)

    def test_standard_limit_hbar_squared_scaling(self):
        # Fixed width, shrinking hbar, measured where the harmonic width
        # returns to its initial value: the coupling-term norms scale as
        # hbar^2 and classical-mode residuals reproduce them.
        cfg = small_config([
            "experiment.kind=standard_limit",
            "packet.epsilon=0.5",
            "scan.hbar_list=1.0,0.1,0.01",
            "numerics.t_final=3.141592653589793",
            "numerics.n_snapshots=4",
        ])
        result = run_standard_limit(cfg)
        norms = result.fits["terminal_quantum_term_norms"]
        assert norms[1] / norms[0] == pytest.approx(1e-2, rel=0.05)
        assert norms[2] / norms[0] == pytest.approx(1e-4, rel=0.05)
        assert result.fits["quantum_term_exponent"] == pytest.approx(
            2.0, abs=0.05)
        for ratio in result.fits["classical_residual_over_quantum_norm"]:
            assert ratio == pytest.approx(1.0, abs=0.02)

    def test_standard_limit_free_classical_residual_matches_norm(self):
        cfg = small_config([
            "experiment.kind=standard_limit",
            "potential.kind=free",
            "packet.epsilon=0.5",
            "scan.hbar_list=1.0,0.1,0.01",
            "numerics.t_final=1.0",
            "numerics.n_snapshots=4",
        ])
        result = run_standard_limit(cfg)
        for ratio in result.fits["classical_residual_over_quantum_norm"]:
            assert ratio == pytest.approx(1.0, abs=0.02)

    def test_autowiden_recovers_from_boundary_leak(self):
        from hbarlab.experiments import quantum_run, quantum_run_autowiden
        from hbarlab.grid import make_grid
        from hbarlab.errors import BoundaryLeak
        V = PotentialSpec.free()
        tight = make_grid(-6, 6, 256)
        with pytest.raises(BoundaryLeak):
            quantum_run(V, tight, 0.5, 0.0, 0.0, 1.0, 2.0, 4)
        data = quantum_run_autowiden(V, tight, 0.5, 0.0, 0.0, 1.0, 2.0, 4)
        assert data.grid.x_max >= 24.0    # two doublings
        assert data.column("width")[-1] == pytest.approx(8.5, rel=1e-4)

    def test_autowiden_counts_its_retries(self):
        from hbarlab.experiments import quantum_run_autowiden
        from hbarlab.grid import make_grid
        V = PotentialSpec.free()
        data = quantum_run_autowiden(V, make_grid(-6, 6, 256), 0.5, 0.0,
                                     0.0, 1.0, 2.0, 4)
        assert data.widen_retries == 2
        wide = make_grid(-24, 24, 1024)
        data = quantum_run_autowiden(V, wide, 0.5, 0.0, 0.0, 1.0, 2.0, 4)
        assert data.widen_retries == 0

    @pytest.mark.parametrize("cap_fraction", [None, 0.3])
    def test_quantum_run_step_schedule(self, cap_fraction, monkeypatch):
        # one step dt throughout: a backward and a forward step around
        # t = 0, then per snapshot one span call and a centred triple
        from hbarlab import schrodinger
        from hbarlab.experiments import quantum_run
        from hbarlab.grid import make_grid
        V = PotentialSpec.harmonic(1.0, 1.0)
        grid = make_grid(-10, 10, 256)
        hbar, t_final, n_snapshots = 1.0, 0.4, 4
        limit = schrodinger.max_stable_dt(grid, V, hbar, 1.0)
        dt_cap = np.inf if cap_fraction is None else cap_fraction * limit
        t_snap = t_final / n_snapshots
        n_sub = int(np.ceil(t_snap / min(limit, dt_cap)))
        assert n_sub >= 10

        calls = []
        propagate = schrodinger.propagate

        def spy(psi, V, dt, n_steps):
            calls.append((dt, n_steps))
            return propagate(psi, V, dt, n_steps)

        monkeypatch.setattr(schrodinger, "propagate", spy)
        data = quantum_run(V, grid, 0.5, 0.5, 0.5, hbar, t_final,
                           n_snapshots, dt_cap)

        dt = data.dt
        assert dt == t_snap / n_sub
        assert dt <= min(limit, dt_cap)
        assert calls == ([(dt, 1), (dt, 1)]
                         + [(dt, n_sub - 2), (dt, 1), (dt, 1)] * n_snapshots)
        assert np.array_equal(data.column("t"),
                              [i * t_snap for i in range(n_snapshots + 1)])
        assert data.propagation_steps == n_snapshots * n_sub + 2

    def test_snapshot_norms_share_one_region(self):
        # the classical residual of the propagated S is the quantum-term
        # norm when both are taken over the same points; a support-edge
        # point of psi(t +- dt) left in one norm only shifts the ratio by
        # ~1e-2
        from hbarlab.experiments import quantum_run
        free, force = PotentialSpec.free(), PotentialSpec.constant_force(1.0)
        for V, hbar, t_final in ((free, 0.1, 1.0), (free, 1.0, 1.0),
                                 (force, 1.0, 2.0)):
            grid = auto_grid(V, 0.5, 0.0, 1.0, hbar, t_final)
            data = quantum_run(V, grid, 0.5, 0.0, 1.0, hbar, t_final, 16)
            ratio = (data.column("hj_classical_residual")[1:]
                     / data.column("quantum_term_norm")[1:])
            assert np.max(np.abs(ratio - 1.0)) <= 1e-3

    def test_deterministic_limit_slopes(self):
        cfg = small_config([
            "experiment.kind=deterministic_limit",
            "potential.kind=free",
            "scan.hbar=1.0",
            "scan.epsilon_list=0.1,0.0316227766016838,0.01",
            "numerics.t_star=1.0",
            "numerics.n_snapshots=4",
        ])
        result = run_deterministic_limit(cfg)
        assert result.fits["width_over_epsilon_exponent"] == pytest.approx(
            -2.0, abs=0.05)
        assert result.fits["bracket_exponent"] == pytest.approx(-2.0,
                                                                abs=0.1)

    def test_deterministic_limit_harmonic_quarter_period(self):
        # at w t* = pi/2 the width is exactly hbar^2/(eps m^2 w^2), so
        # A(t*) scales as 1/eps
        cfg = small_config([
            "experiment.kind=deterministic_limit",
            "scan.hbar=1.0",
            "scan.epsilon_list=0.1,0.0447,0.02",
            "numerics.t_star=1.5707963267948966",
            "numerics.n_snapshots=4",
        ])
        result = run_deterministic_limit(cfg)
        assert result.fits["width_exponent"] == pytest.approx(-1.0, abs=0.05)
        for eps, width in zip(result.fits["epsilon_list"],
                              result.fits["terminal_widths"]):
            assert width == pytest.approx(1.0 / eps, rel=1e-3)

    def test_deterministic_limit_rejects_coherent_width(self):
        cfg = small_config([
            "experiment.kind=deterministic_limit",
            "scan.hbar=1.0",
            "scan.epsilon_list=10.0,1.0,0.1",  # 1.0 = hbar/(m w): stationary
            "numerics.t_star=1.0",
        ])
        with pytest.raises(DomainError):
            run_deterministic_limit(cfg)

    def test_combined_limit_coherent_width_and_free_spreading_law(self):
        # k = 1/(m w): the width stays k*hbar for the whole run
        cfg = small_config(["scan.k=1.0", "numerics.n_snapshots=8"])
        result = run_combined_limit(cfg)
        for rec, hbar in zip(result.records, result.fits["hbar_list"]):
            widths = np.array([row[6] for row in rec.rows])
            assert np.max(np.abs(widths - 1.0 * hbar)) <= 1e-4 * hbar
            assert rec.fits["trajectory_deviation_max"] <= 1e-4
        # free case: terminal width matches k hbar (1 + t^2/(k m)^2)
        cfg_f = small_config(["potential.kind=free", "scan.k=1.0",
                              "scan.hbar_list=1.0,0.1",
                              "numerics.t_final=1.5"])
        result_f = run_combined_limit(cfg_f)
        for hbar, width in zip(result_f.fits["hbar_list"],
                               result_f.fits["terminal_widths"]):
            expected = hbar * (1.0 + 1.5 ** 2)
            assert width == pytest.approx(expected, rel=1e-4)

    def test_combined_limit_quartic_keeps_deforming(self):
        cfg = small_config([
            "potential.kind=polynomial",
            "potential.coeffs=0,0,0,0,1.0",
            "scan.k=1.0",
            "scan.hbar_list=1.0,0.3",
            "numerics.t_final=1.0",
            "numerics.n_snapshots=20",
        ])
        result = run_combined_limit(cfg)
        assert result.fits["detpot_verdict"] == "NonDeterministic"
        for kurt in result.fits["kurtosis_excess_max"]:
            assert kurt > 1e-2

    def test_detpot_runner(self):
        cfg = RunConfig.from_text(
            "[experiment]\nkind = detpot\n"
            "[potential]\nkind = polynomial\ncoeffs = 0,0,0,0,1.0\n")
        result = run_detpot(cfg)
        assert result.fits["verdict"] == "NonDeterministic"
        assert result.records[0].columns == (
            "epsilon", "residual", "fourier_residual_norm")
        report = classify(cfg.potential())
        assert result.records[0].rows == tuple(zip(
            report.epsilon_list, report.residual_per_epsilon,
            report.fourier_residual_norms))

    def test_uncertainty_runner(self):
        cfg = RunConfig.from_text(
            "[potential]\nkind = harmonic\nmass = 1.0\nomega = 1.0\n"
            "[packet]\nepsilon = 1.0\np0 = 1.0\n"
            "[scan]\nhbar = 1.0\n"
            "[numerics]\nt_final = 2.0\nn_snapshots = 16\n")
        result = run_uncertainty(cfg)
        assert result.fits["floor_satisfied"]
        assert result.fits["uncertainty_min"] == pytest.approx(0.5,
                                                               rel=1e-6)

    def test_uncertainty_grows_for_spreading_packet(self):
        cfg = RunConfig.from_text(
            "[potential]\nkind = free\n"
            "[packet]\nepsilon = 0.5\n"
            "[scan]\nhbar = 1.0\n"
            "[numerics]\nt_final = 1.0\nn_snapshots = 8\n")
        result = run_uncertainty(cfg)
        products = np.array([row[5] for row in result.records[0].rows])
        assert np.all(np.diff(products) > 0)
        assert products[0] == pytest.approx(0.5, abs=1e-8)

    def test_uncertainty_floor_scales_with_hbar(self):
        base = ("[potential]\nkind = harmonic\nmass = 1.0\nomega = 1.0\n"
                "[packet]\nepsilon = {eps}\np0 = 1.0\n"
                "[scan]\nhbar = {hbar}\n"
                "[numerics]\nt_final = 1.0\nn_snapshots = 8\n")
        for hbar in (1.0, 0.5, 0.1):
            cfg = RunConfig.from_text(base.format(eps=hbar, hbar=hbar))
            result = run_uncertainty(cfg)
            assert result.fits["uncertainty_min"] == pytest.approx(
                hbar / 2, rel=1e-6)

    def test_detpot_runner_tabulated_file(self, tmp_path):
        from hbarlab.detpot import default_grid
        g = default_grid()
        path = tmp_path / "vtable.txt"
        np.savetxt(path, np.column_stack([g.x, g.x ** 2]))
        cfg = RunConfig.from_text(
            "[experiment]\nkind = detpot\n"
            "[potential]\nkind = tabulated\n"
            f"table = {path}\n")
        result = run_detpot(cfg)
        assert result.fits["verdict"] == "Deterministic"

    def test_phj_runner(self):
        cfg = RunConfig.from_text(
            "[experiment]\nkind = phj_demo\n"
            "[potential]\nkind = harmonic\nmass = 1.0\nomega = 1.0\n"
            "[packet]\nepsilon = 0.0001\np0 = 1.0\n"
            "[numerics]\ngrid = -8,8,256\nt_final = 1.2\nn_snapshots = 5\n")
        result = run_phj_demo(cfg)
        assert result.fits["caustic_time"] is None
        assert result.fits["projected_newton_residual_max"] <= 1e-5

    def test_liouville_runner(self):
        cfg = RunConfig.from_text(
            "[experiment]\nkind = liouville_demo\n"
            "[potential]\nkind = harmonic\nmass = 1.0\nomega = 1.0\n"
            "[packet]\nepsilon = 0.18\nr0 = 1.0\np0 = 0.0\n"
            "[numerics]\nphase_grid = -3,3,-3,3,128,128\n"
            "t_final = 1.5707963267948966\nn_snapshots = 2\ndt = 0.002\n")
        result = run_liouville_demo(cfg)
        t, mass, cx, cp, _ = result.records[0].rows[-1]
        assert mass == pytest.approx(1.0, abs=1e-3)
        assert cx == pytest.approx(0.0, abs=0.05)
        assert cp == pytest.approx(-1.0, abs=0.05)


class TestAutoGrid:
    def test_harmonic_covers_swing(self):
        V = PotentialSpec.harmonic(1.0, 1.0)
        g = auto_grid(V, 0.005, 0.0, 1.0, 0.01, 2 * np.pi)
        assert g.x_max >= 1.5
        assert np.pi / g.dx >= 1.5 * (1.0 / 0.01)   # resolves p0/hbar

    def test_quartic_turning_points(self):
        V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        g = auto_grid(V, 0.5, 0.0, 1.0, 1.0, 1.0)
        assert g.x_max >= 1.5   # E ~ 1 -> turning point ~ 1. plus margin


class TestCLI:
    def test_missing_config_exits_1(self, capsys):
        code = main(["scan", "--config", "/no/such/file.cfg"])
        assert code == 1
        assert "/no/such/file.cfg" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        code = main(["detpot", "--config", "detpot_quartic",
                     "--frobnicate"])
        assert code == 1

    def test_detpot_preset_runs(self, tmp_path, capsys):
        code = main(["detpot", "--config", "detpot_quartic",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "run_000.csv").is_file()
        assert (tmp_path / "summary.txt").is_file()
        assert "NonDeterministic" in capsys.readouterr().out

    def test_scan_wrong_experiment_kind_exits_1(self, tmp_path):
        code = main(["scan", "--config", "detpot_quartic",
                     "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("command, preset", [
        ("simulate", "detpot_quartic"),
        ("detpot", "uncertainty_coherent"),
        ("phj", "liouville_harmonic"),
    ])
    def test_run_command_must_match_config_kind(self, command, preset,
                                                tmp_path, capsys):
        code = main([command, "--config", preset, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{command} expects experiment kind" in err
        if command == "simulate":
            assert "None" not in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("overrides", [
        ("numerics.t_final=0.005",),       # first report time at 5e-4
        ("numerics.t_final=0.1", "numerics.n_snapshots=50"),  # spacing 1.7e-3
    ])
    def test_phj_crowded_report_times_exit_1(self, overrides, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        sets = [arg for o in overrides for arg in ("--set", o)]
        code = main(["phj", "--config", "phj_harmonic", *sets,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert "t_final" in err and "n_snapshots" in err
        assert not out.exists()

    @pytest.mark.parametrize("module", ["hbarlab", "hbarlab.cli"])
    def test_module_entry_points(self, module, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src"))

        def run(*args):
            return subprocess.run([sys.executable, "-m", module, *args],
                                  env=env, capture_output=True, text=True)

        proc = run("detpot", "--config", "detpot_quadratic",
                   "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run_000.csv").is_file()
        proc = run("detpot", "--config", "detpot_quadratic", "--frobnicate")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    def test_phj_focusing_past_caustic_exits_2(self, tmp_path, capsys):
        code = main(["phj", "--config", "phj_focusing",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "t_caustic=1.0" in err or "t=1" in err

    def test_report(self, tmp_path, capsys):
        code = main(["detpot", "--config", "detpot_quadratic",
                     "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        code = main(["report", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment=detpot" in out

    def test_report_lists_run_records_only(self, tmp_path, capsys):
        code = main(["scan", "--config", "combined_harmonic",
                     "--set", "scan.hbar_list=1.0,0.5",
                     "--set", "numerics.t_final=0.5",
                     "--set", "numerics.n_snapshots=4",
                     "--dump-fields", "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = (tmp_path / "summary.txt").read_text()
        assert f"runs: {len(lines)}\n" in summary
        assert all("experiment=combined_limit" in line for line in lines)

    @pytest.mark.parametrize("body", ["t,v\n0.5,abc\n",
                                      "t,v\n0.5,1.0\n0.5\n"])
    def test_report_malformed_csv_exits_1(self, body, tmp_path, capsys):
        path = tmp_path / "run_000.csv"
        path.write_text(body)
        code = main(["report", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert str(path) in err

    def test_malformed_potential_table_exits_1(self, tmp_path, capsys):
        table = tmp_path / "vtable.txt"
        table.write_text("x V\n0.0 0.0\n0.1 0.01\n")
        config = tmp_path / "tabulated.cfg"
        config.write_text("[experiment]\nkind = detpot\n"
                          f"[potential]\nkind = tabulated\ntable = {table}\n")
        out = tmp_path / "out"
        code = main(["detpot", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert str(table) in err
        assert not out.exists()

    def test_dump_fields_flag(self, tmp_path):
        code = main(["simulate", "--config", "uncertainty_coherent",
                     "--set", "numerics.t_final=0.2",
                     "--set", "numerics.n_snapshots=2",
                     "--dump-fields", "--out", str(tmp_path)])
        assert code == 0
        dumps = [f for f in os.listdir(tmp_path) if "fields" in f]
        assert len(dumps) == 3
        summary = (tmp_path / "summary.txt").read_text()
        grid_n = int(summary.split("grid_n=")[1].split()[0])
        for j in range(3):
            lines = (tmp_path / f"run_000_fields_{j:03d}.csv").read_text() \
                .splitlines()
            assert lines[0] == f"# t = {j * (0.2 / 2)!r}"
            assert lines[1] == "x,rho,S"
            assert len(lines) == 2 + grid_n

    def test_set_override(self, tmp_path):
        code = main(["detpot", "--config", "detpot_quartic",
                     "--set", "numerics.tol=1e-1",
                     "--out", str(tmp_path)])
        assert code == 0
        meta, _, _ = read_csv(str(tmp_path / "run_000.csv"))
        assert meta["numerics.tol"] == "1e-1"

    @pytest.mark.parametrize("command, preset, override", [
        ("scan", "standard_free", "numerics.n_snapshots=0"),
        ("scan", "deterministic_free", "numerics.n_snapshots=0"),
        ("scan", "combined_free", "numerics.n_snapshots=0"),
        ("simulate", "uncertainty_coherent", "numerics.n_snapshots=0"),
        ("liouville", "liouville_harmonic", "numerics.n_snapshots=0"),
        ("phj", "phj_harmonic", "numerics.n_snapshots=0"),
        ("scan", "standard_free", "numerics.grid=-5,5,abc"),
        ("scan", "standard_free", "numerics.grid=-8,8,2048.5"),
        ("liouville", "liouville_harmonic",
         "numerics.phase_grid=-3,3,-3,3,x,256"),
        ("scan", "standard_free", "packet.epsilon=0"),
        ("scan", "standard_free", "packet.epsilon=-0.5"),
        ("simulate", "uncertainty_coherent", "packet.epsilon=0"),
        ("simulate", "uncertainty_coherent", "scan.hbar=0"),
        ("scan", "deterministic_free", "scan.hbar=0"),
        ("scan", "deterministic_free", "numerics.t_star=0"),
        ("scan", "combined_free", "numerics.t_final=0"),
    ])
    def test_malformed_config_value_exits_1(self, command, preset, override,
                                            tmp_path, capsys):
        code = main([command, "--config", preset, "--set", override,
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("error", [
        NodeError("phase support is disconnected"),
        LabError("norm drifted by 1e-06 over 10 steps"),
    ])
    def test_every_lab_error_exits_2(self, error, monkeypatch, tmp_path,
                                     capsys):
        def fail(cfg):
            raise error
        monkeypatch.setattr("hbarlab.cli.run_experiment", fail)
        code = main(["scan", "--config", "combined_harmonic",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"numeric failure: {error}" in err
        assert "Traceback" not in err

    def test_run_numerics_in_summary_and_cli_line(self, tmp_path, capsys):
        code = main(["simulate", "--config", "uncertainty_coherent",
                     "--set", "numerics.t_final=0.2",
                     "--set", "numerics.n_snapshots=2",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        summary = (tmp_path / "summary.txt").read_text()
        meta, columns, _ = read_csv(str(tmp_path / "run_000.csv"))
        for key in ("grid_n", "dt", "propagation_steps", "widen_retries"):
            assert f" {key}=" in out
            # once, on the record line; not as a scan-level line
            assert summary.count(f" {key}=") == 1
            assert f"\n{key} = " not in summary
            assert key not in meta and key not in columns
        assert "grid_n=256" in out
        assert "widen_retries=0" in out
        assert "\nfloor_satisfied = 1\n" in summary
        # the CLI prints the summary's record line, booleans as 1/0 too
        records = [line[2:] for line in summary.splitlines()
                   if line.startswith("  ")]
        assert out.splitlines() == [f"simulate {line}  -> {tmp_path}"
                                    for line in records]
        assert "floor_satisfied=1" in out
        # the one run timer writes the summary's wall clock
        wall = [line for line in summary.splitlines()
                if line.startswith("wall_clock_s = ")]
        assert len(wall) == 1 and float(wall[0].split("=")[1]) > 0

    def test_scan_preset_writes_csv(self, tmp_path):
        code = main(["scan", "--config", "combined_harmonic",
                     "--set", "scan.hbar_list=1.0,0.5",
                     "--set", "numerics.t_final=0.5",
                     "--set", "numerics.n_snapshots=4",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "run_000.csv").is_file()
        assert (tmp_path / "run_001.csv").is_file()
        assert (tmp_path / "summary.txt").is_file()


class TestAuditProperty:
    def test_record_echo_suffices_to_rerun(self, tmp_path):
        # A run CSV alone carries enough configuration to reproduce itself.
        cfg = small_config(["numerics.n_snapshots=4",
                            "numerics.t_final=0.5",
                            "scan.hbar_list=1.0,0.5"])
        write_outputs(run_combined_limit(cfg), str(tmp_path))
        path = str(tmp_path / "run_000.csv")
        meta, _, _ = read_csv(path)
        entries = {}
        for key, value in meta.items():
            if "." in key:
                section, name = key.split(".", 1)
                entries[(section, name)] = value
        rebuilt = RunConfig(entries, origin="rebuilt")
        rerun_dir = tmp_path / "rerun"
        write_outputs(run_combined_limit(rebuilt), str(rerun_dir))
        assert (rerun_dir / "run_000.csv").read_bytes() == \
            open(path, "rb").read()


class TestDeterminism:
    def test_identical_configs_give_byte_identical_csvs(self, tmp_path):
        cfg = small_config(["numerics.n_snapshots=4",
                            "numerics.t_final=0.5",
                            "scan.hbar_list=1.0,0.5"])
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        write_outputs(run_combined_limit(cfg), str(out_a))
        write_outputs(run_combined_limit(cfg), str(out_b))
        names = sorted(f for f in os.listdir(out_a) if f.endswith(".csv"))
        assert names
        for name in names:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            assert a == b

    def test_dump_fields(self, tmp_path):
        cfg = RunConfig.from_text(
            "[potential]\nkind = free\n"
            "[packet]\nepsilon = 0.5\n"
            "[scan]\nhbar = 1.0\n"
            "[numerics]\nt_final = 0.2\nn_snapshots = 2\n"
            "[output]\ndump_fields = true\n")
        result = run_uncertainty(cfg)
        write_outputs(result, str(tmp_path))
        dumps = [f for f in os.listdir(tmp_path) if "fields" in f]
        assert len(dumps) == 3      # t=0 plus two snapshots
        text = (tmp_path / sorted(dumps)[0]).read_text()
        assert text.splitlines()[1] == "x,rho,S"
