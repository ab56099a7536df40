"""RISC intermediate representation (the compiler substrate).

* :mod:`repro.ir.operands` -- virtual and physical registers,
  immediates and memory references;
* :mod:`repro.ir.instructions` -- instructions, opcodes and the
  ``load`` / ``store`` / ``alu`` / ``li`` / ``mov`` / ``nop`` builders;
* :mod:`repro.ir.block` -- basic blocks, functions and programs;
* :mod:`repro.ir.printer` -- the text form.
"""
