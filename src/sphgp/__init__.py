"""Sparse variational GPs on the sphere with spherical-harmonic inducing features."""

__version__ = "0.1.0"
