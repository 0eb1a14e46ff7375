"""Stochastic unravelings of a single-coupling GKLS master equation.

Simulation library and CLI for comparing members of a one-parameter family
of diffusive stochastic state equations that all average to the same
master-equation flow: conditional (trajectory-level) statistics depend on
the family member, density-matrix statistics do not.
"""

__version__ = "0.1.0"
