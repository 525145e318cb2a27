"""Exact combinatorics of chain excludants: partition statistics,
weight-preserving bijections, truncated q-series, and an identity
verification harness."""

__version__ = "0.1.0"
