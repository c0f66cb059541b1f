"""MIPS-like instruction-set model.

The WCET analyses in this library only need instruction *addresses*
(to derive cache references), instruction *kinds* (to recognise control
flow) and a fixed encoding width.  This package models exactly that: a
RISC ISA in the style of the MIPS R2000/R3000 targeted by the paper,
with 4-byte instructions and a conventional mnemonic set.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "INSTRUCTION_SIZE": ".instruction",
    "Instruction": ".instruction",
    "InstructionKind": ".instruction",
    "FunctionImage": ".layout",
    "MemoryLayout": ".layout",
})
