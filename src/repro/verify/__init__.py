"""Independent verification of the compilation and simulation pipeline.

Three layers (see docs/verification.md):

* :mod:`repro.verify.oracle` -- the schedule-legality oracle: an
  independent checker, built from the IR definitions alone, for
  dependence preservation, completeness, register-allocation soundness
  and machine-model admissibility of every emitted schedule.
* :mod:`repro.verify.fuzz` / :mod:`repro.verify.shrink` -- the
  differential oracle: seeded random minif programs run through both
  schedulers and both simulators, with failing programs greedily
  minimized and written to ``results/fuzz/`` as replayable artifacts.
* :mod:`repro.verify.hooks` / :mod:`repro.verify.replay` -- wiring: an
  opt-in post-schedule assertion hook for the experiments engine
  (``balanced-sched run --verify``) and a whole-suite replay
  (``balanced-sched verify``).
"""
