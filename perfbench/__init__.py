"""Benchmark of the twodiag package; the entry point is perfbench/run.py."""
