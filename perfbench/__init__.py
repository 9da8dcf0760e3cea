"""Benchmark for paramdex: workloads, oracles, tracing. Entry point: perfbench/run.py."""
