"""Benchmark harness, one submodule each: ``data`` (dataset ingestion),
``experiment`` (streaming regression), ``synth`` (acceptance) and ``cli``."""
