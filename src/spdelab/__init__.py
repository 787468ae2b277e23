"""Simulation and verification lab for exponential-integrator spectral
Galerkin schemes driven by space-time white noise with rough bounded drifts.

The entry point is `spdelab.cli:main`, also run as `python -m spdelab`.
The package imports nothing; every name is imported from its own module.
"""
