"""Experiments: one module per table/figure of the paper's evaluation.

Each ``run_*`` function returns a result object with a ``format()``
method that renders the table the way the paper lays it out, plus
shape-check helpers the test suite asserts on.  The ``balanced-sched``
CLI (see :mod:`repro.experiments.runner`) regenerates everything.
"""
