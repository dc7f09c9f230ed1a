"""Benchmark of cpp-lab; see perfbench/README.md."""
