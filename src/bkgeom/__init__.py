"""Bochner-Kaehler geometry from su(n,1).

Orbit classification of generators, the parabolic 2-grading and its
structure functions, algebraic curvature templates, the concrete cone /
section geometry with its quotient charts, Sasaki checks, tower
embeddings, and a finite-difference oracle that independently verifies
the analytic claims.

The modules are the public API (`from bkgeom.orbits import classify`);
importing the package loads none of them.
"""

__version__ = "0.1.0"
