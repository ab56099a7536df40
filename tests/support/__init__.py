"""Test-only references and fixtures.

Code here is imported by tests and benchmarks, never by ``repro``:

* :mod:`.equivalence` -- the symbolic-execution equivalence checker,
  the reference for the legality oracle's block effect;
* :mod:`.ir_parser` -- the inverse of :mod:`repro.ir.printer`;
* :mod:`.verifier` -- structural well-formedness checks for IR blocks;
* :mod:`.generator` -- seeded random blocks and DAGs;
* :mod:`.dag_height` -- a DAG's unweighted height, for tests that
  measure dependence chains;
* :mod:`.series_key` -- the string series-key codec, the reference
  for the metrics exporters' text form.

Import it from the repository root (``python -m pytest`` puts the
working directory on ``sys.path``).
"""
