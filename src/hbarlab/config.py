"""Run configuration: a flat, human-readable key = value format with
section headers, no structured-format dependency.

    [experiment]
    kind = combined_limit
    seed = 0

    [potential]
    kind = harmonic
    mass = 1.0
    omega = 1.0

    [packet]
    epsilon = 0.5
    r0 = 0.0
    p0 = 1.0

    [scan]
    hbar_list = 1,0.1,0.01
    k = 0.5
    hbar = 1.0

    [numerics]
    grid = auto
    t_final = 6.283185307179586

    [output]
    directory = runs

'#' starts a comment.  Every key can be overridden from the command line as
--set section.key=value; the effective configuration is echoed verbatim
into each run record, so a record alone suffices to rerun.  KEYS lists
every section and the keys it takes; any other key, in a file or an
override, is refused with DomainError before a run starts, so a
misspelling cannot be echoed as if it had been used.
"""

import os

import numpy as np

from .errors import DomainError
from .grid import make_grid
from .potential import PotentialSpec

__all__ = ["KEYS", "MAX_PHASE_NODES", "RunConfig"]

_MISSING = object()

# every [section] and the keys the lab reads there; [experiment] seed is
# echoed into the record but read by no run
KEYS = {
    "experiment": ("kind", "seed"),
    "potential": ("kind", "mass", "omega", "f0", "coeffs", "table"),
    "packet": ("epsilon", "r0", "p0", "s0_curvature"),
    "scan": ("hbar_list", "hbar", "k", "epsilon_list"),
    "numerics": ("grid", "phase_grid", "t_final", "t_star", "n_snapshots",
                 "dt", "tol"),
    "output": ("directory", "dump_fields"),
}

# most nodes nx * np of a [numerics] phase_grid: a 5-step Liouville run's
# peak RSS reads 39 MB at 256^2 nodes and 160 MB at 1024^2 (numpy on an
# 8 GB host), about 150 bytes a node, so near 0.6 GB at this bound
MAX_PHASE_NODES = 1 << 22


def _parse_text(text, origin):
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise DomainError(f"{origin}:{lineno}: empty section name")
            continue
        if "=" not in line:
            raise DomainError(
                f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise DomainError(
                f"{origin}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise DomainError(f"{origin}:{lineno}: empty key")
        entries[(section, key)] = value
    return entries


class RunConfig:
    """Parsed configuration with typed accessors.

    Keys live in (section, key) pairs; insertion order is preserved for the
    deterministic echo.  A pair that KEYS does not list is refused.  Every
    run divides its time span by [numerics] n_snapshots, so a config whose
    n_snapshots is not >= 1 is refused."""

    def __init__(self, entries, origin="<config>"):
        self.entries = dict(entries)
        self.origin = origin
        for section, key in self.entries:
            if section not in KEYS:
                raise DomainError(
                    f"{origin}: [{section}] {key}: unknown section; the "
                    f"sections are {', '.join(KEYS)}")
            if key not in KEYS[section]:
                raise DomainError(
                    f"{origin}: [{section}] {key}: unknown key; [{section}] "
                    f"takes {', '.join(KEYS[section])}")
        if self.get_int("numerics", "n_snapshots", 1) < 1:
            raise DomainError(f"{origin}: [numerics] n_snapshots must be >= 1")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text, origin="<config>"):
        return cls(_parse_text(text, origin), origin)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as err:
                raise DomainError(
                    f"{path}: not a UTF-8 text file: {err}") from None
        return cls.from_text(text, origin=str(path))

    def with_overrides(self, pairs):
        """Apply 'section.key=value' override strings."""
        entries = dict(self.entries)
        for pair in pairs:
            if "=" not in pair:
                raise DomainError(f"override {pair!r} is not key=value")
            key, value = pair.split("=", 1)
            if "." not in key:
                raise DomainError(
                    f"override key {key!r} must be section.key")
            section, name = key.split(".", 1)
            entries[(section.strip(), name.strip())] = value.strip()
        return RunConfig(entries, self.origin)

    # -- raw access --------------------------------------------------------

    def get(self, section, key, default=_MISSING):
        try:
            return self.entries[(section, key)]
        except KeyError:
            if default is _MISSING:
                raise DomainError(
                    f"{self.origin}: missing required key [{section}] {key}")
            return default

    def get_float(self, section, key, default=_MISSING):
        """A finite number; nan and inf are refused like any non-number."""
        val = self.get(section, key, default)
        if val is default and default is not _MISSING:
            return default
        try:
            out = float(val)
        except (TypeError, ValueError):
            raise DomainError(
                f"{self.origin}: [{section}] {key} = {val!r} is not a number")
        if not np.isfinite(out):
            raise DomainError(
                f"{self.origin}: [{section}] {key} = {val!r} is not finite")
        return out

    def get_positive(self, section, key, default=_MISSING):
        """get_float for a quantity that must be > 0: a packet width, hbar,
        a time span, a step or a tolerance."""
        val = self.get_float(section, key, default)
        if not val > 0:
            raise DomainError(
                f"{self.origin}: [{section}] {key} = {val!r} must be positive")
        return val

    def get_int(self, section, key, default=_MISSING):
        val = self.get(section, key, default)
        if val is default and default is not _MISSING:
            return default
        try:
            return int(val)
        except (TypeError, ValueError):
            raise DomainError(
                f"{self.origin}: [{section}] {key} = {val!r} is not an integer")

    def get_bool(self, section, key, default=_MISSING):
        val = self.get(section, key, default)
        if isinstance(val, bool):
            return val
        low = str(val).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise DomainError(
            f"{self.origin}: [{section}] {key} = {val!r} is not a boolean")

    def get_float_list(self, section, key, default=_MISSING):
        val = self.get(section, key, default)
        if val is default and default is not _MISSING:
            return default
        try:
            out = [float(part) for part in str(val).split(",") if part.strip()]
        except ValueError:
            raise DomainError(
                f"{self.origin}: [{section}] {key} = {val!r} is not a "
                f"comma-separated number list")
        if not out:
            raise DomainError(f"{self.origin}: [{section}] {key} is empty")
        if not np.all(np.isfinite(out)):
            raise DomainError(
                f"{self.origin}: [{section}] {key} = {val!r} has an entry "
                f"that is not finite")
        return out

    def echo_lines(self):
        return tuple(f"{section}.{key} = {value}"
                     for (section, key), value in self.entries.items())

    # -- typed views -------------------------------------------------------

    def potential(self):
        kind = self.get("potential", "kind")
        mass = self.get_float("potential", "mass", 1.0)
        if kind == "free":
            return PotentialSpec.free(mass)
        if kind == "constant_force":
            return PotentialSpec.constant_force(
                self.get_float("potential", "f0"), mass)
        if kind == "harmonic":
            return PotentialSpec.harmonic(
                mass, self.get_float("potential", "omega"))
        if kind == "polynomial":
            return PotentialSpec.polynomial(
                self.get_float_list("potential", "coeffs"), mass)
        if kind == "tabulated":
            return PotentialSpec.tabulated(
                *load_potential_table(self.get("potential", "table")), mass)
        raise DomainError(f"unknown potential kind {kind!r}")

    def packet(self):
        """(epsilon, r0, p0) of the initial packet; epsilon must be > 0."""
        return (self.get_positive("packet", "epsilon", 0.5),
                *self.packet_center())

    def packet_center(self):
        """(r0, p0) of the initial packet, for runs that set its width
        elsewhere."""
        return (self.get_float("packet", "r0", 0.0),
                self.get_float("packet", "p0", 0.0))

    def _bounds_and_counts(self, key, form, n_counts, default=_MISSING):
        """[numerics] key as the number list `form`, whose last n_counts
        entries are point counts (integers >= 2)."""
        vals = self.get_float_list("numerics", key, default)
        counts = vals[len(vals) - n_counts:]
        if len(vals) != form.count(",") + 1 or not all(
                v.is_integer() and v >= 2 for v in counts):
            raise DomainError(
                f"{self.origin}: [numerics] {key} must be {form} with integer "
                f"point counts >= 2, got {self.get('numerics', key)!r}")
        return vals[:-n_counts] + [int(v) for v in counts]

    def grid_spec(self):
        """Explicit grid from [numerics] grid = xmin,xmax,n; None for auto."""
        if str(self.get("numerics", "grid", "auto")).strip().lower() == "auto":
            return None
        bounds = self._bounds_and_counts("grid", "xmin,xmax,n", 1)
        try:
            return make_grid(*bounds)
        except DomainError as err:
            raise DomainError(
                f"{self.origin}: [numerics] grid: {err}") from None

    def phase_grid(self):
        """[numerics] phase_grid = xmin,xmax,pmin,pmax,nx,np, with
        xmax > xmin, pmax > pmin and at most MAX_PHASE_NODES nodes nx np."""
        x_min, x_max, p_min, p_max, nx, n_p = self._bounds_and_counts(
            "phase_grid", "xmin,xmax,pmin,pmax,nx,np", 2,
            [-3.0, 3.0, -3.0, 3.0, 256.0, 256.0])
        if x_max <= x_min or p_max <= p_min:
            raise DomainError(
                f"{self.origin}: [numerics] phase_grid needs xmax > xmin and "
                f"pmax > pmin, got {self.get('numerics', 'phase_grid')!r}")
        if nx * n_p > MAX_PHASE_NODES:
            raise DomainError(
                f"{self.origin}: [numerics] phase_grid: {nx} x {n_p} nodes "
                f"exceed the most allowed, {MAX_PHASE_NODES}")
        return [x_min, x_max, p_min, p_max, nx, n_p]

    def output_directory(self):
        return self.get("output", "directory", "runs")

    def dump_fields(self):
        return self.get_bool("output", "dump_fields", False)


def load_potential_table(path):
    """Two-column whitespace-delimited (x, V) file -> (grid, V samples),
    on the periodic grid implied by the uniform x column."""
    if not os.path.isfile(path):
        raise DomainError(f"tabulated potential file not found: {path}")
    try:
        data = np.loadtxt(path)
    except ValueError as err:
        raise DomainError(f"{path}: not a table of numbers: {err}") from None
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError(
            f"{path}: expected two columns (x, V), got shape {data.shape}")
    x, v = data[:, 0], data[:, 1]
    dx = np.diff(x)
    if dx.size == 0 or not np.allclose(dx, dx[0], rtol=1e-9, atol=1e-12):
        raise DomainError(f"{path}: x column must be uniformly spaced")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{path}: V column holds nan or inf")
    try:
        return make_grid(x[0], x[0] + dx[0] * x.size, x.size), v
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from None
