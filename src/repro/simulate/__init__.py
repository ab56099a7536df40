"""Instruction-level simulation and the paper's bootstrap statistics."""
