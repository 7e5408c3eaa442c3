"""hbarlab: a numerical laboratory for 1D wave-packet dynamics,
Hamilton-Jacobi flows, phase-space transport, and classical-limit
experiments with hbar as an explicit runtime parameter.  Import its
submodules, e.g. `from hbarlab import schrodinger`."""

__version__ = "0.1.0"
