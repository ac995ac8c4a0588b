"""Numerical certificates of global minimality, minimal foliations, and the
two-dimensional rigidity experiment for compactly supported perturbations of
Laplace's equation."""

__version__ = "0.1.0"
