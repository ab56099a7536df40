"""Workloads: paper example DAGs, the synthetic Perfect Club
stand-ins and the hot-path CFG of the trace-scheduling demo."""

from .cfg_demo import hot_path_cfg
from .kernels import PROGRAM_ORDER, PROGRAM_SOURCES
from .paper_dags import figure1_block, figure4_block, figure7_block, label_order
from .perfect import clear_cache, load_program, load_suite, program_names

__all__ = [
    "hot_path_cfg",
    "PROGRAM_ORDER",
    "PROGRAM_SOURCES",
    "figure1_block",
    "figure4_block",
    "figure7_block",
    "label_order",
    "clear_cache",
    "load_program",
    "load_suite",
    "program_names",
]
