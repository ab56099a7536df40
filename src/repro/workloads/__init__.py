"""Workloads: paper example DAGs, the synthetic Perfect Club
stand-ins and the hot-path CFG of the trace-scheduling demo."""
