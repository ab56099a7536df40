"""The minif frontend: a small FORTRAN-style kernel language.

The synthetic Perfect Club stand-ins are written in minif and lowered
to the RISC IR here: :mod:`repro.frontend.parser` (source -> AST),
:mod:`repro.frontend.lowering` (AST -> IR, and
:func:`~repro.frontend.lowering.compile_minif` for both).
"""
