"""Benchmark for sphdescent; run it as `python3 sphbench/run.py --help`."""
