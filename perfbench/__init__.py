"""Benchmark of the Marsit simulator: workloads, output checks, traced layers."""
