import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbarlab import hjflow
from hbarlab.classical import gaussian_phase_blob, newton_integrate
from hbarlab.cli import cli_main as main
from hbarlab.config import KEYS, RunConfig, load_potential_table
from hbarlab.detpot import classify
from hbarlab.errors import (
    BoundaryLeak,
    CausticError,
    DomainError,
    EscapeError,
    InconclusiveError,
    LabError,
    MassDriftError,
)
from hbarlab.experiments import (
    DEFAULT_FLOOR,
    EXPERIMENTS,
    NEWTON_DT,
    QuantumRunData,
    ScanResult,
    _newton_reference,
    _packet_need,
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
from hbarlab.grid import MAX_GRID_N, make_grid
from hbarlab.potential import PotentialSpec
from hbarlab.records import (
    QUANTUM_COLUMNS,
    RunRecord,
    read_csv,
    to_csv_text,
    write_outputs,
)
from hbarlab.schrodinger import WaveFunction, init_gaussian

from helpers import observables

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
        grid, values = load_potential_table(str(path))
        assert grid.n == 64
        assert grid.x_min == -4.0
        assert np.array_equal(values, g ** 2)
        cfg = RunConfig.from_text(
            "[potential]\nkind = tabulated\n"
            f"table = {path}\n")
        V = cfg.potential()
        assert V.kind == "tabulated"
        assert np.array_equal(V.grid.x, g) and np.array_equal(V.table, g ** 2)

    def test_tabulated_file_off_the_grid_sizes_names_the_file(self,
                                                              tmp_path):
        # 48 rows is no power of two; make_grid's refusal names the file
        g = np.linspace(-4, 4, 48, endpoint=False)
        path = tmp_path / "table.txt"
        np.savetxt(path, np.column_stack([g, g ** 2]))
        with pytest.raises(DomainError) as err:
            load_potential_table(str(path))
        assert str(err.value).startswith(f"{path}: grid size must be ")

    def test_tabulated_file_holding_nan_names_the_file(self, tmp_path):
        g = np.linspace(-4, 4, 64, endpoint=False)
        v = g ** 2
        v[10] = np.nan
        path = tmp_path / "table.txt"
        np.savetxt(path, np.column_stack([g, v]))
        with pytest.raises(DomainError) as err:
            load_potential_table(str(path))
        assert str(path) in str(err.value)


def _preset_names():
    preset_dir = resources.files("hbarlab").joinpath("presets")
    return sorted(p.name[:-len(".cfg")] for p in preset_dir.iterdir()
                  if p.name.endswith(".cfg"))


def _preset_config(name):
    return RunConfig.from_text(resources.files("hbarlab").joinpath(
        "presets", f"{name}.cfg").read_text(encoding="utf-8"),
        origin=f"preset:{name}")


# documented numeric failures; every other preset exits 0
PRESET_EXIT_CODES = {"phj_focusing": 2}     # the caustic at t = 1


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Run a preset through the CLI as shipped, once per module however
    many tests read it: name -> (exit code, stderr, output directory)."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            kind = _preset_config(name).get("experiment", "kind", None)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([EXPERIMENTS[kind][0], "--config", name,
                             "--out", str(out)])
            runs[name] = (code, err.getvalue(), out)
        return runs[name]
    return run


def _summary_fits(path):
    """The scan-level `key = value` lines of a summary.txt; lists and
    numbers parsed, anything else kept as text."""
    fits = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not line.startswith(" "):
            try:
                fits[key] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                fits[key] = value
    return fits


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

    @pytest.mark.parametrize("name", _preset_names())
    def test_preset_runs_as_shipped(self, name, shipped):
        code, err, out = shipped(name)
        assert code == PRESET_EXIT_CODES.get(name, 0), err
        assert "Traceback" not in err
        # every row after t = 0 satisfies the density-weighted Madelung
        # identity: the classical residual of S is the quantum-term norm
        for path in sorted(out.glob("run_*.csv")):
            _, columns, data = read_csv(str(path))
            if "quantum_term_norm" not in columns:
                continue
            ratio = (data[1:, columns.index("hj_classical_residual")]
                     / data[1:, columns.index("quantum_term_norm")])
            assert np.max(np.abs(ratio - 1.0)) <= 1e-3, path.name


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
        dumps = tuple((t, x, x + 1j * x) for t in (0.0, 0.5, 1.0))

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

    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from((128, 256)),
           coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
           eps=st.floats(0.2, 1.0), r0=st.floats(-1.0, 1.0),
           p0=st.floats(-2.0, 2.0), hbar=st.floats(0.5, 2.0),
           dt_frac=st.floats(0.01, 1.0), steps=st.integers(1, 20))
    def test_dump_round_trip_is_bit_exact(self, n, coeffs, eps, r0, p0,
                                          hbar, dt_frac, steps):
        # a field dump holds the exact psi: written by write_outputs and
        # read back by read_csv, every dump rebuilds its WaveFunction bit
        # for bit, on the grid's own nodes
        from hbarlab.schrodinger import max_stable_dt, propagate
        g = make_grid(-8.0, 8.0, n)
        V = PotentialSpec.polynomial(coeffs)
        psi = init_gaussian(g, eps, r0, p0, hbar)
        states = [psi]
        for _ in range(2):
            states.append(propagate(states[-1], V,
                                    dt_frac * max_stable_dt(g, V, hbar),
                                    steps))
        dumps = tuple((s.t, g.x, s.values) for s in states)
        record = RunRecord("simulate", "dump", (), ("t",), ((0.0,),),
                           field_dumps=dumps)
        with tempfile.TemporaryDirectory() as outdir:
            write_outputs(ScanResult("simulate", [record], {}), outdir)
            for j, state in enumerate(states):
                meta, columns, data = read_csv(
                    os.path.join(outdir, f"run_000_fields_{j:03d}.csv"))
                assert columns == ("x", "re_psi", "im_psi")
                assert float(meta["t"]) == state.t
                assert data[:, 0].tobytes() == g.x.tobytes()
                values = data[:, 1].astype(complex)
                values.imag = data[:, 2]
                back = WaveFunction(g, values, hbar, t=float(meta["t"]))
                assert back.values.tobytes() == state.values.tobytes()


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

    @staticmethod
    def _free_packet_run(grid, *overrides):
        # a free packet (eps 0.5, at rest, hbar 1) to t = 2 on `grid`
        return run_uncertainty(RunConfig.from_text(
            "[potential]\nkind = free\n"
            "[packet]\nepsilon = 0.5\nr0 = 0.0\np0 = 0.0\n"
            "[scan]\nhbar = 1.0\n"
            f"[numerics]\nt_final = 2.0\nn_snapshots = 4\ngrid = {grid}\n"
            "[output]\ndump_fields = true\n").with_overrides(overrides))

    def test_autowiden_recovers_from_boundary_leak(self):
        from hbarlab.experiments import quantum_run
        V = PotentialSpec.free()
        with pytest.raises(BoundaryLeak):
            quantum_run(V, make_grid(-6, 6, 256), 0.5, 0.0, 0.0, 1.0, 2.0, 4)
        [record] = self._free_packet_run("-6,6,256").records
        x = record.field_dumps[-1][1]
        assert x[-1] + (x[1] - x[0]) >= 24.0    # two doublings
        width = record.rows[-1][QUANTUM_COLUMNS.index("width")]
        assert width == pytest.approx(8.5, rel=1e-4)

    def test_autowiden_counts_its_retries(self):
        [record] = self._free_packet_run("-6,6,256").records
        assert record.fits["widen_retries"] == 2
        [record] = self._free_packet_run("-24,24,1024").records
        assert record.fits["widen_retries"] == 0

    def test_widening_doubles_about_the_grid_centre(self):
        # a packet at rest at r0 = 20 leaks from [12, 28) and runs on
        # [4, 36), as the same packet at 0 runs on [-16, 16) from [-8, 8)
        for grid, r0 in (("12,28,256", 20.0), ("-8,8,256", 0.0)):
            [record] = self._free_packet_run(
                grid, f"packet.r0={r0}").records
            assert record.fits["widen_retries"] == 1
            assert record.fits["grid_n"] == 512
            x = record.field_dumps[0][1]
            assert (x[0], x[-1] + (x[1] - x[0])) == (r0 - 16.0, r0 + 16.0)
            x_mean = record.rows[-1][QUANTUM_COLUMNS.index("x_mean")]
            assert x_mean == pytest.approx(r0, abs=1e-9)

    def test_capped_widening_short_of_k_need_is_refused(self, monkeypatch):
        # capped at 256 points, the second doubling of [-6, 6) halves
        # k_max twice, to 16.76, below the packet's 1.3 p0 / hbar + 4 /
        # sigma_min = 27.5: refused before it runs, not left to alias
        from hbarlab import experiments
        monkeypatch.setattr(experiments, "MAX_GRID_N", 256)
        with pytest.raises(DomainError) as err:
            self._free_packet_run("-6,6,256", "packet.p0=15.0",
                                  "numerics.t_final=1.0")
        assert str(err.value).endswith(
            ": [numerics] grid reaches k_max 16.76 at hbar=1.0 after 2 "
            "widenings, but the packet needs 27.5")

    def test_quantum_run_step_schedule(self, monkeypatch):
        # a backward and a forward probe step around t = 0, then per
        # snapshot one span call of composed steps and a centred triple of
        # probe steps; the probe step is t_snap / n_sub throughout
        from hbarlab import schrodinger
        from hbarlab._kernels import SUZUKI
        from hbarlab.experiments import quantum_run
        from hbarlab.grid import make_grid
        V = PotentialSpec.harmonic(1.0, 1.0)
        grid = make_grid(-10, 10, 256)
        hbar, t_final, n_snapshots = 1.0, 0.4, 4
        limit = schrodinger.max_stable_dt(grid, V, hbar)
        t_snap = t_final / n_snapshots
        n_sub = int(np.ceil(t_snap / limit))
        assert n_sub >= 10
        dt = t_snap / n_sub
        span = t_snap - 2 * dt
        n_span = int(np.ceil(span / (schrodinger.SPAN_FACTOR * limit)))
        dt_span = span / n_span

        calls = []
        propagate = schrodinger.propagate

        def spy(psi, V, dt, n_steps, weights=(1.0,)):
            calls.append((dt, n_steps) if weights == (1.0,)
                         else (dt, n_steps, weights))
            return propagate(psi, V, dt, n_steps, weights)

        monkeypatch.setattr(schrodinger, "propagate", spy)
        data = quantum_run(V, grid, 0.5, 0.5, 0.5, hbar, t_final,
                           n_snapshots)

        assert data.dt == dt
        assert dt <= limit
        assert data.span_dt == dt_span
        assert dt_span <= schrodinger.SPAN_FACTOR * limit
        assert calls == ([(dt, 1), (dt, 1)]
                         + [(dt_span, n_span, SUZUKI), (dt, 1), (dt, 1)]
                         * n_snapshots)
        assert np.array_equal(data.column("t"),
                              [i * t_snap for i in range(n_snapshots + 1)])
        # FFT pairs: one per probe step, five per composed step
        assert data.propagation_steps == 2 + n_snapshots * (2 + 5 * n_span)

    def test_one_quantum_run_makes_propagation_steps_fft_pairs(
            self, monkeypatch):
        import scipy.fft

        from hbarlab.experiments import quantum_run
        from hbarlab.grid import make_grid
        calls = []
        fft = scipy.fft.fft

        def counting_fft(*args, **kwargs):
            calls.append(1)
            return fft(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, "fft", counting_fft)
        data = quantum_run(PotentialSpec.harmonic(1.0, 1.0),
                           make_grid(-10, 10, 256), 0.5, 0.5, 0.5, 1.0, 1.0,
                           8)
        assert len(calls) == data.propagation_steps

    def test_combined_scan_points_take_their_own_step(self):
        # each point steps at its own auto grid's limit, whatever the
        # points before it took
        from hbarlab.schrodinger import max_stable_dt
        cfg = small_config(["scan.hbar_list=1.0,0.1,0.01",
                            "numerics.t_final=0.5",
                            "numerics.n_snapshots=4"])
        V = cfg.potential()
        r0, p0 = cfg.packet_center()
        t_snap = 0.5 / 4
        result = run_combined_limit(cfg)
        for rec, hbar in zip(result.records, [1.0, 0.1, 0.01]):
            grid = auto_grid(V, 0.5 * hbar, r0, p0, hbar, 0.5)
            limit = max_stable_dt(grid, V, hbar)
            assert rec.fits["grid_n"] == grid.n
            assert rec.fits["dt"] == t_snap / max(3, int(np.ceil(
                t_snap / limit)))

    def test_snapshot_norms_share_one_region(self):
        # the classical residual of the propagated S is the quantum-term
        # norm: both are density-weighted and taken over the whole grid
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

    def test_combined_limit_quartic_keeps_deforming(self, shipped):
        # the paper's generic case, as the preset ships it: on a quartic
        # well the combined limit does not give Newton, so at every hbar
        # the packet centre leaves the Newton trajectory and the density
        # leaves the Gaussian shape.  Read from the preset smoke run.
        code, err, out = shipped("combined_quartic")
        assert code == 0, err
        fits = _summary_fits(out / "summary.txt")
        assert fits["detpot_verdict"] == "NonDeterministic"
        assert len(list(out.glob("run_*.csv"))) == 2
        for dev in fits["trajectory_deviation_max"]:
            assert dev >= 0.05
        for kurt in fits["kurtosis_excess_max"]:
            assert kurt >= 1.0

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
        g = make_grid(-8, 8, 2048)
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
        assert result.fits["projected_newton_residual_max"] <= 1e-5

    def test_phj_report_rows_sit_between_neighbours_at_delta(
            self, monkeypatch):
        # every report row's dS/dt is the centred difference over the
        # snapshots at t -+ delta, so both must sit exactly delta away
        solve = hjflow.solve_hj
        solved = []

        def solve_and_keep(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]
        monkeypatch.setattr(hjflow, "solve_hj", solve_and_keep)
        result = run_phj_demo(_preset_config("phj_harmonic"))
        times = solved[0].times
        rows = result.records[0].rows
        assert len(rows) == 9
        for row in rows:
            i = int(np.flatnonzero(times == row[0])[0])
            assert times[i] - times[i - 1] == pytest.approx(1e-3, abs=1e-15)
            assert times[i + 1] - times[i] == pytest.approx(1e-3, abs=1e-15)

    @pytest.mark.parametrize("name", ["combined_free", "combined_constforce",
                                      "combined_harmonic", "combined_quartic"])
    def test_newton_reference_error_by_step_halving(self, name):
        # criterion 3 orders the deviations from the reference within an
        # additive 1e-9, so the reference must err by less at its shipped
        # step; for a fourth-order step |r(h) - r(h/2)| 16/15 estimates the
        # error of r(h) (Richardson), here on the preset's own row times
        cfg = _preset_config(name)
        V = cfg.potential()
        r0, p0 = cfg.packet_center()
        t_final = cfg.get_positive("numerics", "t_final")
        n_snapshots = cfg.get_int("numerics", "n_snapshots", 64)
        times = t_final / n_snapshots * np.arange(n_snapshots + 1)
        r_h, _ = _newton_reference(V, r0, p0, times)
        r_half, _ = newton_integrate(V, r0, p0, times,
                                     2 * np.ceil(t_final / NEWTON_DT))
        assert np.max(np.abs(r_h - r_half)) * 16 / 15 <= 1e-9

    @pytest.mark.parametrize("name, overrides", [
        ("phj_harmonic", []),
        # before the focusing caustic at t = 1
        ("phj_focusing", ["numerics.t_final=0.9"])],
        ids=["phj_harmonic", "phj_focusing"])
    def test_fan_error_by_step_halving(self, name, overrides, monkeypatch):
        # criterion 7 differences the fan's p over 2 delta = 2e-3 against a
        # 1e-5 pin, so p must err by well under 2e-9 at the shipped step;
        # |a(h) - a(h/2)| 16/15 estimates the error of a(h), here on the
        # run's own potential, initial action and snapshot times
        solve = hjflow.solve_hj
        calls = []

        def solve_and_keep(*args, **kwargs):
            calls.append((args, kwargs))
            return solve(*args, **kwargs)
        monkeypatch.setattr(hjflow, "solve_hj", solve_and_keep)
        run_phj_demo(_preset_config(name).with_overrides(overrides))
        [(args, kwargs)] = calls
        assert kwargs["dt"] == NEWTON_DT
        fan = hjflow.integrate_fan(*args, **kwargs)
        half = hjflow.integrate_fan(*args, **{**kwargs, "dt": NEWTON_DT / 2})
        assert fan.t_crossing is None
        assert np.max(np.abs(fan.s - half.s)) * 16 / 15 <= 1e-8
        assert np.max(np.abs(fan.p - half.p)) * 16 / 15 <= 2e-9

    def test_liouville_runner(self):
        cfg = RunConfig.from_text(
            "[experiment]\nkind = liouville_demo\n"
            "[potential]\nkind = harmonic\nmass = 1.0\nomega = 1.0\n"
            "[packet]\nepsilon = 0.18\nr0 = 1.0\np0 = 0.0\n"
            "[numerics]\nphase_grid = -3,3,-3,3,128,128\n"
            "t_final = 1.5707963267948966\nn_snapshots = 2\ndt = 0.1\n")
        result = run_liouville_demo(cfg)
        t, mass, cx, cp, _ = result.records[0].rows[-1]
        assert mass == pytest.approx(1.0, abs=1e-3)
        assert cx == pytest.approx(0.0, abs=0.05)
        assert cp == pytest.approx(-1.0, abs=0.05)

    def test_liouville_preset_rotates_the_blob(self):
        # m = omega = 1: the phase flow is a rigid rotation, so the shipped
        # preset's blob at (1, 0) passes the quarter-period points in turn
        cfg = _preset_config("liouville_harmonic")
        x_min, x_max, p_min, p_max, nx, n_p = cfg.phase_grid()
        dx = (x_max - x_min) / (nx - 1)
        dp = (p_max - p_min) / (n_p - 1)
        result = run_liouville_demo(cfg)
        rows = result.records[0].rows
        assert len(rows) == 4
        for (_, mass, cx, cp, _), (x, p) in zip(
                rows, [(0.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]):
            assert mass == pytest.approx(1.0, abs=1e-3)
            assert abs(cx - x) <= 2 * dx
            assert abs(cp - p) <= 2 * dp
        assert result.fits["l1_final"] <= 0.02


# the bundled quantum presets whose potentials have closed-form packets
CLOSED_FORM_PRESETS = ("standard_free", "standard_harmonic",
                       "deterministic_free", "deterministic_harmonic",
                       "combined_free", "combined_constforce",
                       "combined_harmonic", "uncertainty_coherent")


def _scan_points(cfg):
    """((hbar, eps) per scan point, time span) of a quantum preset, as its
    runner reads them."""
    kind = cfg.get("experiment", "kind", None)
    if kind == "deterministic_limit":
        hbar = cfg.get_positive("scan", "hbar", 1.0)
        return ([(hbar, eps) for eps in
                 cfg.get_float_list("scan", "epsilon_list")],
                cfg.get_positive("numerics", "t_star", 1.0))
    t_final = cfg.get_positive("numerics", "t_final")
    if kind == "combined_limit":
        k = cfg.get_positive("scan", "k")
        return ([(hbar, k * hbar) for hbar in
                 cfg.get_float_list("scan", "hbar_list")], t_final)
    eps0 = cfg.packet()[0]
    if kind == "standard_limit":
        return ([(hbar, eps0) for hbar in
                 cfg.get_float_list("scan", "hbar_list")], t_final)
    return [(cfg.get_positive("scan", "hbar", 1.0), eps0)], t_final


class TestAutoGrid:
    @pytest.mark.parametrize("name", CLOSED_FORM_PRESETS)
    def test_spectral_headroom(self, name):
        # the auto grid's k_max clears the packet's spectrum: at every
        # snapshot the outer 5% of |k| holds at most DEFAULT_FLOOR of the
        # spectral peak
        from hbarlab.schrodinger import (
            init_gaussian,
            max_stable_dt,
            propagate,
        )
        cfg = _preset_config(name)
        V = cfg.potential()
        r0, p0 = cfg.packet_center()
        points, t_final = _scan_points(cfg)
        n_snapshots = 16
        t_snap = t_final / n_snapshots
        for hbar, eps in points:
            grid = auto_grid(V, eps, r0, p0, hbar, t_final)
            outer = np.abs(grid.k) >= 0.95 * np.max(np.abs(grid.k))
            n_sub = int(np.ceil(
                t_snap / max_stable_dt(grid, V, hbar)))
            psi = init_gaussian(grid, eps, r0, p0, hbar)
            for i in range(n_snapshots + 1):
                if i:
                    psi = propagate(psi, V, t_snap / n_sub, n_sub)
                power = np.abs(np.fft.fft(psi.values)) ** 2
                assert power[outer].max() <= DEFAULT_FLOOR * power.max(), \
                    (hbar, eps, psi.t)

    def test_harmonic_covers_swing(self):
        V = PotentialSpec.harmonic(1.0, 1.0)
        g = auto_grid(V, 0.005, 0.0, 1.0, 0.01, 2 * np.pi)
        assert g.x_max >= 1.5
        assert np.pi / g.dx >= 1.5 * (1.0 / 0.01)   # resolves p0/hbar

    def test_quartic_turning_points(self):
        V = PotentialSpec.polynomial([0, 0, 0, 0, 1.0])
        g = auto_grid(V, 0.5, 0.0, 1.0, 1.0, 1.0)
        assert g.x_max >= 1.5   # E ~ 1 -> turning point ~ 1. plus margin

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(("free", "constant_force", "harmonic",
                                 "quartic")),
           hbar=st.floats(0.01, 1.0), eps=st.floats(0.005, 1.0),
           r0=st.floats(-2.0, 2.0), p0=st.floats(-2.0, 2.0),
           t_final=st.floats(0.1, 2.0), f0=st.floats(-2.0, 2.0),
           omega=st.floats(0.5, 2.0), c2=st.floats(-1.0, 1.0),
           c4=st.floats(0.1, 1.0))
    # a packet auto_grid refuses: it needs 9.08e4 points
    @example(kind="quartic", hbar=0.01, eps=1.0, r0=-2.0, p0=-2.0,
             t_final=0.1, f0=0.0, omega=1.0, c2=-1.0, c4=1.0)
    # a subnormal force, whose turning time -p0/f0 overflows a float
    @example(kind="constant_force", hbar=1.0, eps=0.5, r0=0.0, p0=1.0,
             t_final=1.0, f0=5e-324, omega=1.0, c2=0.0, c4=1.0)
    # needs past the largest float, whose extent must overflow to inf
    # without a warning
    @example(kind="constant_force", hbar=1.0, eps=0.5, r0=0.0, p0=1.0,
             t_final=1e10, f0=1e300, omega=1.0, c2=0.0, c4=1.0)
    @example(kind="free", hbar=1.0, eps=0.5, r0=0.0, p0=1e300,
             t_final=1e10, f0=0.0, omega=1.0, c2=0.0, c4=1.0)
    def test_grid_resolves_initial_packet(self, kind, hbar, eps, r0, p0,
                                          t_final, f0, omega, c2, c4):
        # with no floor padding the resolution, the t = 0 packet must still
        # sit inside the grid's spectrum and away from its edges, unless
        # auto_grid refuses it for needing more than MAX_GRID_N points
        from hbarlab.schrodinger import (
            LEAK_TOL,
            boundary_leak_fraction,
            init_gaussian,
        )
        V = {"free": PotentialSpec.free(),
             "constant_force": PotentialSpec.constant_force(f0),
             "harmonic": PotentialSpec.harmonic(1.0, omega),
             "quartic": PotentialSpec.polynomial([0, 0, c2, 0, c4])}[kind]
        try:
            grid = auto_grid(V, eps, r0, p0, hbar, t_final)
        except DomainError:
            half, k_need = _packet_need(V, eps, r0, p0, hbar, t_final)
            assert k_need * (2 * half) / np.pi > MAX_GRID_N
            return
        assert 64 <= grid.n <= MAX_GRID_N and grid.n & (grid.n - 1) == 0
        psi = init_gaussian(grid, eps, r0, p0, hbar)
        power = np.abs(np.fft.fft(psi.values)) ** 2
        assert power[grid.n // 2] <= DEFAULT_FLOOR * power.max()
        assert boundary_leak_fraction(psi) <= LEAK_TOL


class TestCLI:
    def test_missing_config_exits_1(self, capsys):
        code = main(["scan", "--config", "/no/such/file.cfg"])
        assert code == 1
        assert "/no/such/file.cfg" in capsys.readouterr().err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe[experiment]\n")
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"error: {path}: not a UTF-8 text file" in err
        assert not (tmp_path / "out").exists()

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

    def test_phj_newton_reference_takes_any_step_count(self, tmp_path,
                                                       capsys):
        # a t_final that is no whole number of reference steps: the
        # reference still lands on every one of the fan's times
        code = main(["phj", "--config", "phj_harmonic",
                     "--set", "numerics.t_final=1.20013",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 0, err
        assert (tmp_path / "run_000.csv").is_file()

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

    def test_newton_side_imports_no_quantum_solver(self):
        # classical and madelung stand without schrodinger and scipy, and
        # the whole CLI without any scipy module: the phj action is
        # evaluated in numpy, and scipy serves only propagate's FFT, which
        # imports it at its first call
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src"))
        code = ("import sys\n"
                "import hbarlab.classical, hbarlab.madelung\n"
                "print(sorted(m for m in ('hbarlab.schrodinger', 'scipy')\n"
                "             if m in sys.modules))\n"
                "import hbarlab.cli\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]"]

    def test_failed_run_leaves_no_earlier_outputs(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["detpot", "--config", "detpot_quadratic",
                     "--out", out]) == 0
        (tmp_path / "notes.txt").write_text("kept\n")
        assert main(["phj", "--config", "phj_focusing", "--out", out]) == 2
        assert os.listdir(tmp_path) == ["notes.txt"]
        assert (tmp_path / "notes.txt").read_text() == "kept\n"

    def test_phj_focusing_past_caustic_exits_2(self, tmp_path, capsys):
        code = main(["phj", "--config", "phj_focusing",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        # the crossing time is interpolated within the detecting step, so
        # it reads the exact caustic of the free focusing flow, t = 1
        assert "crossed at t=1;" in err
        t_caustic = float(err.split("t_caustic=")[1].split(")")[0])
        assert abs(t_caustic - 1.0) <= 1e-9

    def _quadratic_table(self, tmp_path):
        g = make_grid(-20, 20, 4096)
        path = tmp_path / "vtable.txt"
        np.savetxt(path, np.column_stack([g.x, 0.5 * g.x ** 2]))
        return ["detpot", "--config", "detpot_quadratic",
                "--set", "potential.kind=tabulated",
                "--set", f"potential.table={path}"]

    def test_detpot_classifies_table_on_its_own_grid(self, tmp_path, capsys):
        args = self._quadratic_table(tmp_path)
        code = main(args + ["--set", "numerics.grid=auto",
                            "--out", str(tmp_path / "out")])
        assert code == 0
        assert "verdict=Deterministic" in capsys.readouterr().out

    def test_detpot_refuses_table_on_another_grid(self, tmp_path, capsys):
        # the preset's grid = -8,8,2048 is not the table's
        args = self._quadratic_table(tmp_path)
        code = main(args + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("error: preset:detpot_quadratic: ")
        assert "[numerics] grid" in line and "its own grid" in line
        assert not (tmp_path / "out").exists()

    def _table_run(self, tmp_path, command, preset, bound=8):
        # V = x^2 / 2 tabulated on [-bound, bound)
        g = make_grid(-bound, bound, 256)
        path = tmp_path / "vtable.txt"
        np.savetxt(path, np.column_stack([g.x, 0.5 * g.x ** 2]))
        return [command, "--config", preset,
                "--set", "potential.kind=tabulated",
                "--set", f"potential.table={path}",
                "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("command, preset", [
        ("phj", "phj_harmonic"), ("liouville", "liouville_harmonic")])
    def test_table_without_force_polynomial_names_kind(
            self, tmp_path, capsys, command, preset):
        code = main(self._table_run(tmp_path, command, preset))
        [line] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert line.startswith(f"error: preset:{preset}: [potential] kind: "
                               f"a tabulated potential has no force "
                               f"polynomial")
        assert not (tmp_path / "out").exists()

    def test_grid_beyond_table_names_table_and_grid(self, tmp_path, capsys):
        # the auto grid reaches past the table's [-8, 8)
        code = main(self._table_run(tmp_path, "simulate",
                                    "uncertainty_coherent"))
        [line] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert line.startswith("error: preset:uncertainty_coherent: "
                               "[numerics] grid spans [")
        assert line.endswith(", beyond the range [-8, 8) of [potential] "
                             "table")
        assert not (tmp_path / "out").exists()

    def test_widened_grid_beyond_table_names_table_and_grid(self, tmp_path,
                                                            capsys):
        # [-6, 6) leaks; its doubling to [-12, 12) would read past the table
        code = main(self._table_run(tmp_path, "simulate",
                                    "uncertainty_coherent")
                    + ["--set", "numerics.grid=-6,6,256"])
        [line] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert line == ("error: preset:uncertainty_coherent: [numerics] grid "
                        "spans [-12, 12) at hbar=1.0 after 1 widening, "
                        "beyond the range [-8, 8) of [potential] table")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, spans", [
        ((), "[-13.53, 13.53) at hbar=1.0"),
        (("packet.r0=9", "numerics.grid=-4,4,256"),
         "[-8, 8) at hbar=1.0 after 1 widening")], ids=["auto", "r0=9"])
    def test_packet_need_probes_a_table_only_in_its_range(
            self, tmp_path, capsys, overrides, spans):
        # the grid estimate reads V inside the table's [-4, 4) only, so
        # the refusal is the grid's, naming the table
        args = self._table_run(tmp_path, "simulate", "uncertainty_coherent",
                               bound=4)
        for override in overrides:
            args += ["--set", override]
        code = main(args)
        [line] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert line == (f"error: preset:uncertainty_coherent: [numerics] "
                        f"grid spans {spans}, beyond the range [-4, 4) of "
                        f"[potential] table")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("body", [
        "t,v\n0.5,abc\n",
        "t,v\n0.5,1.0\n0.5\n",
        # a field dump, and a table with no header: no experiment line
        "# t = 0.0\nx,re_psi,im_psi\n-1.0,0.5,0.0\n",
        "a,b\n1,2\n",
    ])
    def test_report_malformed_csv_exits_1(self, body, tmp_path, capsys):
        path = tmp_path / "run_000.csv"
        path.write_text(body)
        code = main(["report", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert str(path) in err

    @pytest.mark.parametrize("key", ["packet.p0", "packet.s0_curvature"])
    def test_overflowing_initial_action_exits_1(self, key, tmp_path,
                                                capsys):
        code = main(["phj", "--config", "phj_harmonic", "--set",
                     f"{key}=1e308", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "[packet] p0" in err and "s0_curvature" in err
        assert "Traceback" not in err

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
            assert lines[1] == "x,re_psi,im_psi"
            assert len(lines) == 2 + grid_n

    def test_dump_fields_of_a_split_density(self, tmp_path):
        # a packet launched from the barrier top of a double well splits in
        # two; the run succeeds, so asking for its dumps must not fail it
        code = main(["simulate", "--config", "uncertainty_coherent",
                     "--set", "potential.kind=polynomial",
                     "--set", "potential.coeffs=0,0,-2,0,1",
                     "--set", "scan.hbar=0.3", "--set", "packet.epsilon=0.3",
                     "--set", "packet.r0=0", "--set", "packet.p0=1",
                     "--set", "numerics.t_final=0.82",
                     "--set", "numerics.n_snapshots=1",
                     "--dump-fields", "--out", str(tmp_path)])
        assert code == 0
        assert sorted(f for f in os.listdir(tmp_path) if "fields" in f) == [
            "run_000_fields_000.csv", "run_000_fields_001.csv"]

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
        ("scan", "standard_free", "scan.hbar_list=1,0.1,nan"),
        ("simulate", "uncertainty_coherent", "packet.epsilon=inf"),
        ("simulate", "uncertainty_coherent", "numerics.t_final=inf"),
        ("simulate", "uncertainty_coherent", "scan.hbar=inf"),
        ("simulate", "uncertainty_coherent", "packet.p0=nan"),
        ("simulate", "uncertainty_coherent", "packet.r0=inf"),
        ("scan", "deterministic_free", "scan.epsilon_list=0.1,nan,0.01"),
        ("scan", "combined_free", "scan.k=inf"),
        ("detpot", "detpot_quadratic", "numerics.tol=-1"),
    ])
    def test_malformed_config_value_exits_1(self, command, preset, override,
                                            tmp_path, capsys):
        code = main([command, "--config", preset, "--set", override,
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("phase_grid", [
        "3,-3,-3,3,64,64", "-3,3,3,-3,64,64", "-3,-3,-3,3,64,64"])
    def test_reversed_or_empty_phase_grid_exits_1(self, phase_grid, tmp_path,
                                                  capsys):
        code = main(["liouville", "--config", "liouville_harmonic",
                     "--set", f"numerics.phase_grid={phase_grid}",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "phase_grid" in err and "Traceback" not in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("error", [
        LabError("norm drifted by 1e-06 over 10 steps"),
        BoundaryLeak("boundary density fraction 1e-06 exceeds 1e-08"),
        CausticError("characteristics crossed at t=1", t_caustic=1.0),
        MassDriftError("phase-space mass drifted by 1e-03"),
        EscapeError("trajectory left |x| <= 100"),
        InconclusiveError("residuals straddle the tolerance"),
    ], ids=lambda error: type(error).__name__)
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
        if isinstance(error, CausticError):
            assert "t_caustic=1.0" in err
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
        for key in ("grid_n", "dt", "span_dt", "propagation_steps",
                    "widen_retries"):
            assert f" {key}=" in out
            # once, on the record line; not as a scan-level line
            assert summary.count(f" {key}=") == 1
            assert f"\n{key} = " not in summary
            assert key not in meta and key not in columns
        assert "grid_n=64" in out
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

    UNRESOLVABLE = [
        ("simulate", "uncertainty_coherent", "packet.r0=1e6"),
        ("simulate", "uncertainty_coherent", "packet.r0=1e100"),
        # refused by the deterministic scan's shared reference grid
        ("scan", "deterministic_harmonic", "packet.r0=1e200"),
        # needs past the largest float: Python's ** overflows, or the point
        # count is inf
        ("simulate", "uncertainty_coherent", "packet.p0=1e300"),
        ("simulate", "uncertainty_coherent", "packet.r0=1e300"),
        ("simulate", "uncertainty_coherent", "packet.epsilon=1e300"),
        ("simulate", "uncertainty_coherent", "potential.mass=1e-300"),
        ("simulate", "uncertainty_coherent", "scan.hbar=1e-300"),
        ("simulate", "uncertainty_coherent", "scan.hbar=1e300"),
        ("scan", "deterministic_harmonic", "potential.omega=1e-300"),
        ("scan", "combined_harmonic", "scan.k=1e300"),
        ("scan", "standard_free", "scan.hbar_list=1e300,1e299,1e297"),
        ("scan", "combined_free", "packet.p0=1e308"),
    ]

    @pytest.mark.parametrize("command, preset, override", UNRESOLVABLE,
                             ids=[case[2] for case in UNRESOLVABLE])
    def test_unresolvable_packet_exits_1(self, command, preset, override,
                                         tmp_path, capsys):
        code = main([command, "--config", preset,
                     "--set", override, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        keys = f"error: preset:{preset}: [packet] and [numerics] grid: "
        assert keys + "the packet needs a grid of " in err
        assert "at most 65536" in err
        # the point count prints in short form, however large the need:
        # the refusal after the named sections keeps within 160 columns
        assert all(len("error: " + line[len(keys):]) <= 160
                   for line in err.splitlines() if line.startswith("error:"))
        assert not os.listdir(tmp_path)

    UNRESOLVED_GRID = [
        ("simulate", "uncertainty_coherent", "numerics.grid=-1000,1000,16"),
        ("simulate", "uncertainty_coherent", "numerics.grid=-1e300,1e300,64"),
        ("simulate", "uncertainty_coherent", "numerics.grid=-20,20,16"),
        ("detpot", "detpot_quadratic", "numerics.grid=-1e300,1e300,64"),
    ]

    @pytest.mark.parametrize("command, preset, override", UNRESOLVED_GRID,
                             ids=[case[2] for case in UNRESOLVED_GRID])
    def test_unresolving_explicit_grid_exits_1(self, command, preset,
                                               override, tmp_path, capsys):
        # an explicit quantum grid must reach the k_max auto_grid asks for
        code = main([command, "--config", preset,
                     "--set", override, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert "error: preset:" in err and "[numerics] grid" in err
        assert not os.listdir(tmp_path)

    def test_explicit_grid_that_resolves_the_packet_runs(self, tmp_path,
                                                         capsys):
        # k_max = pi / 0.25 = 12.6 against the packet's need of 6.96
        code = main(["simulate", "--config", "uncertainty_coherent",
                     "--set", "numerics.grid=-8,8,64",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "grid_n=64" in capsys.readouterr().out

    NON_FINITE = [
        ("phj", "phj_harmonic", "packet.s0_curvature=1e300",
         "phj_demo characteristics"),
        ("phj", "phj_harmonic", "packet.s0_curvature=1e200",
         "phj_demo characteristics"),
        ("phj", "phj_harmonic", "packet.s0_curvature=1e150",
         "phj_demo characteristics"),
        ("detpot", "detpot_quadratic", "numerics.grid=-1e150,1e150,64",
         "detpot classification"),
        ("detpot", "detpot_quartic", "numerics.grid=-1e150,1e150,64",
         "detpot classification"),
        # the moments of a 1e150-wide packet overflow a float's ** 2
        ("simulate", "uncertainty_coherent",
         "scan.hbar=1e300 packet.epsilon=1e300", "simulate hbar=1e+300"),
    ]

    @pytest.mark.parametrize("command, preset, overrides, record", NON_FINITE,
                             ids=[case[2] for case in NON_FINITE])
    def test_non_finite_row_exits_2(self, command, preset, overrides, record,
                                    tmp_path, capsys):
        # an overflowed run is a numeric failure, not a result, and the
        # failure line is all it prints: no numpy warnings ahead of it
        sets = [arg for o in overrides.split() for arg in ("--set", o)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", preset, *sets,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert not caught
        [line] = err.splitlines()
        assert line.startswith(f"numeric failure: {record}: column ")
        assert line.endswith(" holds nan or inf")
        assert not os.listdir(tmp_path)

    TOO_MANY_STEPS = [
        ("liouville", "liouville_harmonic", "numerics.t_final=1e300",
         "t_final, dt and n_snapshots"),
        ("liouville", "liouville_harmonic", "numerics.dt=1e-300",
         "t_final, dt and n_snapshots"),
        ("simulate", "uncertainty_coherent", "numerics.t_final=1e300",
         "t_final (or t_star) and n_snapshots"),
        ("simulate", "uncertainty_coherent", "numerics.n_snapshots=100000000",
         "t_final (or t_star) and n_snapshots"),
        # the quartic's potential phase bounds its step, but the snapshot
        # count alone is over the bound at the kinetic step too
        ("scan", "combined_quartic", "numerics.n_snapshots=100000000",
         "t_final (or t_star) and n_snapshots"),
        # the first point's quantum run refuses before the reference runs
        ("scan", "combined_harmonic", "numerics.t_final=1e308",
         "t_final (or t_star) and n_snapshots"),
        # the shared Newton reference is checked before any point runs
        ("scan", "deterministic_harmonic", "numerics.t_star=1e300",
         "t_final (or t_star) and n_snapshots"),
        ("phj", "phj_harmonic", "numerics.t_final=1e300", "t_final"),
    ]

    @pytest.mark.parametrize("command, preset, override, keys",
                             TOO_MANY_STEPS,
                             ids=[f"{case[0]}-{case[2]}"
                                  for case in TOO_MANY_STEPS])
    def test_too_many_steps_exits_1(self, command, preset, override, keys,
                                    tmp_path, capsys):
        # refused before the first step, where it used to run without end
        code = main([command, "--config", preset,
                     "--set", override, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert "error: the run would take " in err
        assert (f" steps (one per FFT pair or force evaluation), more than "
                f"1e+07; the count follows from [numerics] {keys}\n") in err
        assert not os.listdir(tmp_path)

    def test_potential_bound_step_names_potential(self, tmp_path, capsys):
        # a constant V = 1e300 sets the step through its phase; no
        # [numerics] value is at fault
        code = main(["scan", "--config", "combined_quartic",
                     "--set", "potential.coeffs=1e300",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert "error: the run would take " in err
        assert ("; the count follows from [potential], whose phase bounds "
                "the step to 5e-301\n") in err
        assert "[numerics]" not in err
        assert not os.listdir(tmp_path)

    # a misspelled key or section, once in the file and once through --set
    UNKNOWN_KEYS = [("numerics", "n_snapshot", "4"), ("pakcet", "p0", "3")]

    @pytest.mark.parametrize("via_file", [True, False],
                             ids=["file", "override"])
    @pytest.mark.parametrize("section, key, value", UNKNOWN_KEYS,
                             ids=[f"{s}.{k}" for s, k, _ in UNKNOWN_KEYS])
    def test_unknown_key_exits_1(self, section, key, value, via_file,
                                 tmp_path, capsys):
        # both used to run, echoing the key into the record unused
        preset = resources.files("hbarlab").joinpath(
            "presets", "uncertainty_coherent.cfg").read_text(encoding="utf-8")
        path = tmp_path / "run.cfg"
        sets = []
        if via_file:
            preset += f"\n[{section}]\n{key} = {value}\n"
        else:
            sets = ["--set", f"{section}.{key}={value}"]
        path.write_text(preset, encoding="utf-8")
        code = main(["simulate", "--config", str(path), *sets,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith(f"error: {path}: [{section}] {key}: unknown ")
        assert not (tmp_path / "out").exists()

    # point counts no run could allocate: each is refused before any array
    HUGE_GRIDS = [
        ("detpot", "detpot_quadratic", "grid", "-8,8,17592186044416"),
        ("liouville", "liouville_harmonic", "phase_grid",
         "-3,3,-3,3,10000000,10000000"),
    ]

    @pytest.mark.parametrize("command, preset, key, value", HUGE_GRIDS,
                             ids=[case[2] for case in HUGE_GRIDS])
    def test_huge_grid_exits_1(self, command, preset, key, value, tmp_path,
                               capsys):
        code = main([command, "--config", preset,
                     "--set", f"numerics.{key}={value}",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith(f"error: preset:{preset}: [numerics] {key}: ")
        assert " the most allowed, " in line
        assert not os.listdir(tmp_path)

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


# edge values per config key: zero, negative, nan, inf, +-1e300, empty,
# reversed or empty bounds, and sizes that are not powers of two
EDGE = ("0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "")
FUZZ_VALUES = {
    "packet.epsilon": EDGE,
    "packet.r0": EDGE,
    "packet.p0": EDGE + ("1e308",),
    "packet.s0_curvature": EDGE + ("1e308",),
    "potential.mass": EDGE,
    "potential.omega": EDGE,
    "potential.f0": EDGE,
    "potential.coeffs": EDGE + ("1,,2", "0,0,0,0,0,0,0,0,0,1"),
    "scan.hbar": EDGE,
    "scan.k": EDGE,
    "scan.hbar_list": EDGE + ("0.01,0.1,1", "1,1,1"),
    "scan.epsilon_list": EDGE + ("0.01,0.1,1", "0.1,0.1,0.01"),
    "numerics.grid": EDGE + ("8,-8,64", "-8,-8,64", "-8,8,100",
                             "-8,8,64.5", "-8,8,8", "-8,8"),
    "numerics.t_final": EDGE,
    "numerics.t_star": EDGE,
    "numerics.n_snapshots": ("0", "-1", "2.5", "", "1e300", "100000000"),
    "numerics.dt": EDGE,
    "numerics.tol": EDGE,
    "numerics.phase_grid": EDGE + ("3,-3,-3,3,32,32", "-3,-3,-3,3,32,32",
                                   "-3,3,-3,3,31,32", "-3,3,-3,3,1,32",
                                   "-3,3,-3,3,32"),
    "output.dump_fields": ("1", "maybe", ""),
}

# set ahead of the drawn overrides, so that a draw that runs stays short
CHEAP = {
    "scan": ("numerics.t_final=0.05", "numerics.t_star=0.05",
             "numerics.n_snapshots=2"),
    "simulate": ("numerics.t_final=0.05", "numerics.n_snapshots=2"),
    "phj": ("numerics.t_final=0.2", "numerics.n_snapshots=3"),
    "liouville": ("numerics.t_final=0.05", "numerics.n_snapshots=2",
                  "numerics.phase_grid=-3,3,-3,3,32,32"),
    "detpot": ("numerics.grid=-8,8,256",),
}


def _names_a_key(message, keys):
    """True when message names one of the section.key overrides: the
    key's name appears as a word.  Two refusals answer for a joint need
    instead of one key: a packet no grid resolves (its need follows from
    the packet, hbar, the potential and the time span at once), and a run
    whose step, set by the potential's range over the grid, makes too many
    steps."""
    if "the packet needs a grid of " in message:
        return True
    if "the run would take " in message and any(
            key.startswith("potential.") for key in keys):
        return True
    return any(re.search(rf"(?<![\w.]){re.escape(key.split('.', 1)[1])}"
                         rf"(?!\w)", message) for key in keys)


class TestCLIFuzzProperty:
    @settings(max_examples=150, deadline=None)
    @given(preset=st.sampled_from(_preset_names()), data=st.data())
    def test_edge_overrides_exit_cleanly(self, preset, data):
        keys = data.draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)),
                                  min_size=1, max_size=2, unique=True))
        overrides = [f"{key}={data.draw(st.sampled_from(FUZZ_VALUES[key]))}"
                     for key in keys]
        command = EXPERIMENTS[
            _preset_config(preset).get("experiment", "kind", None)][0]
        args = [command, "--config", preset]
        for override in CHEAP[command] + tuple(overrides):
            args += ["--set", override]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(args + ["--out", out])
        err = err.getvalue()
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 1:
            assert _names_a_key(err.splitlines()[-1], keys), err


    def test_fuzz_values_cover_every_number_key(self):
        # every key the config takes is fuzzed, except the five whose
        # values are names, not numbers
        names = {"experiment.kind", "experiment.seed", "potential.kind",
                 "potential.table", "output.directory"}
        keys = {f"{section}.{key}"
                for section, section_keys in KEYS.items()
                for key in section_keys}
        assert set(FUZZ_VALUES) == keys - names


class TestBenchmarkTracer:
    # perfbench's tracer binds these layers' arguments by name and reads
    # attributes of their results, so a rename shows here and not only in
    # a traced benchmark run
    RUNS = [("scan", "combined_free"), ("simulate", "uncertainty_coherent"),
            ("phj", "phj_harmonic"), ("liouville", "liouville_harmonic"),
            ("detpot", "detpot_quadratic")]
    COUNTED = ["schrodinger.propagate.calls",
               "classical.liouville.node_steps", "hjflow.char_steps",
               "classical.newton.steps", "records.bytes_written"]

    def test_every_counted_layer_counts(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "perfbench"))
        tracing = importlib.import_module("tracer")
        tracer = tracing.Tracer().install()
        try:
            for command, preset in self.RUNS:
                args = [command, "--config", preset]
                for override in CHEAP[command]:
                    args += ["--set", override]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(args + ["--out", str(tmp_path / preset)])
                assert code == 0, preset
        finally:
            tracer.restore()
        metrics = tracing.per_layer(tracer.spans)
        for name in self.COUNTED:
            assert metrics[name][0] > 0, name


def _array_holders():
    """Two objects built from the same inputs, per dataclass that holds an
    ndarray."""
    g = make_grid(-4.0, 4.0, 64)
    V = PotentialSpec.harmonic(1.0, 1.0)
    return {
        "PotentialSpec": lambda: PotentialSpec.harmonic(1.0, 1.0),
        "WaveFunction": lambda: WaveFunction(g, np.ones(64), 1.0),
        "PhaseDensity": lambda: gaussian_phase_blob(
            0.0, 0.0, 0.5, 0.5, -3.0, 3.0, -3.0, 3.0, 32, 32),
        "CharacteristicFan": lambda: hjflow.integrate_fan(
            g, 0.5 * g.x, V, 0.1, dt=2e-4, snapshot_times=[0.0]),
        "QuantumRunData": lambda: QuantumRunData(0.1, np.zeros((2, 3)), []),
        "RunRecord": lambda: RunRecord("e", "l", (), ("a",),
                                       np.zeros((1, 1))),
    }


class TestArrayHolders:
    @pytest.mark.parametrize("name", sorted(_array_holders()))
    def test_compare_and_hash_by_identity(self, name):
        build = _array_holders()[name]
        a, b = build(), build()
        assert a == a
        assert a != b
        hash(a)


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
            "[packet]\nepsilon = 0.5\np0 = 1.0\n"
            "[scan]\nhbar = 1.0\n"
            "[numerics]\nt_final = 0.2\nn_snapshots = 2\n"
            "[output]\ndump_fields = true\n")
        result = run_uncertainty(cfg)
        write_outputs(result, str(tmp_path))
        dumps = sorted(f for f in os.listdir(tmp_path) if "fields" in f)
        assert len(dumps) == 3      # t=0 plus two snapshots
        text = (tmp_path / dumps[0]).read_text()
        assert text.splitlines()[1] == "x,re_psi,im_psi"
        # a dump is its snapshot's exact state: read back, it gives the
        # run's own row, and the first dump is the initial packet
        V = cfg.potential()
        eps, r0, p0 = cfg.packet()
        grid = auto_grid(V, eps, r0, p0, 1.0, 0.2)
        assert result.records[0].fits["widen_retries"] == 0
        _, columns, rows = read_csv(str(tmp_path / "run_000.csv"))
        for name, row in zip(dumps, rows):
            row = dict(zip(columns, row))
            meta, _, data = read_csv(str(tmp_path / name))
            assert float(meta["t"]) == row["t"]
            assert np.array_equal(data[:, 0], grid.x)
            psi = WaveFunction(grid, data[:, 1] + 1j * data[:, 2], 1.0)
            obs = observables(psi)
            assert (obs.x_mean, obs.var_x, obs.width) == (
                row["x_mean"], row["var_x"], row["width"])
        _, _, data = read_csv(str(tmp_path / dumps[0]))
        packet = init_gaussian(grid, eps, r0, p0, 1.0).values
        assert np.array_equal(data[:, 1] + 1j * data[:, 2], packet)
