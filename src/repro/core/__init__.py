"""The paper's primary contribution: balanced scheduling.

* :mod:`repro.core.weights` -- Figure 6's weight computation.
* :mod:`repro.core.balanced` / :mod:`repro.core.traditional` -- the two
  policies over the shared bottom-up list scheduler
  (:mod:`repro.core.scheduler`).
* :mod:`repro.core.pipeline` -- the two-pass schedule /
  register-allocate / re-schedule pipeline.
"""
