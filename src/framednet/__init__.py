"""Exact characters of code lattices and their order-2 orbifolds.

From a doubly-even binary code the package builds the two associated
even lattices, the Z4 quotient codes used by the framed construction,
the lattice-net vacuum characters by two independent routes, and the
twisted orbifold character, all as exact integer q-series.

The API is the submodules: `framednet.codes`, `framednet.qseries`,
`framednet.netchar`, `framednet.orbifold` and `framednet.fusion`.
`import framednet` loads none of them, so a CLI process imports only
the modules its command runs.
"""

__version__ = "0.1.0"
