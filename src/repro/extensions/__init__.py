"""Section 6 extensions: multi-cycle units, known latencies,
block enlarging, trace scheduling, software pipelining (modulo
scheduling).  Superscalar issue is a processor model
(:func:`repro.machine.processor.superscalar`), measured by
:func:`repro.experiments.ablations.run_superscalar_ablation`."""
