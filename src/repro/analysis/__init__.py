"""Program analyses: dependences, code DAGs, aliasing, liveness.

The analyses here are the substrate shared by both schedulers: the
code DAG (:func:`~repro.analysis.dependence.build_dag`), transitive
closures (:mod:`repro.analysis.reachability`), connected components and
load-path counting (:mod:`repro.analysis.components`), and live
intervals for the register allocator (:mod:`repro.analysis.liveness`).
"""
