"""Numerical laboratory for the exterior displacement problem of plane
elastostatics: boundary-element paradox diagnostics, an annulus energy
solver, and an exact counter-example oracle.

Names are imported from their modules (stokes_lab.bem, stokes_lab.annulus,
...), so importing one module loads only what it needs."""

__version__ = "0.1.0"
