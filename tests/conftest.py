"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend.lowering import compile_minif
from repro.workloads.paper_dags import (
    figure1_block,
    figure4_block,
    figure7_block,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(20250607)


@pytest.fixture
def figure1():
    """(block, labels) of the paper's Figure 1 DAG."""
    return figure1_block()


@pytest.fixture
def figure4():
    return figure4_block()


@pytest.fixture
def figure7():
    return figure7_block()


SAXPY_SOURCE = """
program saxpy
  array a[1024], b[1024], c[1024]
  kernel body freq 100 unroll 2
    t1 = a[i] * x0
    c[i] = t1 + b[i]
  end
end
"""


@pytest.fixture
def saxpy_block():
    """A small realistic block from the frontend."""
    program = compile_minif(SAXPY_SOURCE)
    return program.functions[0].blocks[0]


REDUCTION_SOURCE = """
program dot
  array a[1024], b[1024]
  kernel body freq 10 unroll 4
    s = s + a[i] * b[i]
  end
end
"""


@pytest.fixture
def reduction_block():
    """An unrolled reduction (serial spine) block."""
    program = compile_minif(REDUCTION_SOURCE)
    return program.functions[0].blocks[0]
