"""Benchmark harness: dataset ingestion, streaming regression experiments,
synthetic acceptance scenarios, and the CLI driver."""

from .data import Dataset, ingest, load_dataset, synthetic_regression
from .experiment import ExperimentConfig, emit_table, run_experiment

__all__ = [
    "Dataset", "ingest", "load_dataset", "synthetic_regression",
    "ExperimentConfig", "emit_table", "run_experiment",
]
