"""Experiment harness reproducing the paper's evaluation (Section VI)."""

from repro.eval.workloads import Workload, WORKLOADS, workload, build_workload_dag
from repro.eval.experiments import (
    ExperimentRow,
    PAPER_ROWS,
    run_experiment,
    run_table1,
    run_table2,
    PAPER_TABLE1,
    PAPER_TABLE2,
)
from repro.eval.reporting import format_rows, format_comparison, optimal_bench_report
from repro.eval.sweeps import (
    RankEntry,
    SweepPoint,
    SweepResult,
    sweep,
    register_file_sweep,
)
from repro.eval.applications import Application, APPLICATIONS, application

__all__ = [
    "Workload",
    "WORKLOADS",
    "workload",
    "build_workload_dag",
    "ExperimentRow",
    "PAPER_ROWS",
    "run_experiment",
    "run_table1",
    "run_table2",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "format_rows",
    "format_comparison",
    "optimal_bench_report",
    "RankEntry",
    "SweepPoint",
    "SweepResult",
    "sweep",
    "register_file_sweep",
    "Application",
    "APPLICATIONS",
    "application",
]
