"""MiniC: a bounded structured language standing in for the benchmark C.

The paper analyses MIPS binaries compiled from the Mälardalen C
benchmarks with gcc 4.1 -O0.  Offline we cannot run that toolchain, so
this package provides the substitute: a structured AST (computation,
bounded loops, conditionals, calls), a -O0-flavoured code generator to
the MIPS-like ISA of :mod:`repro.isa`, the default-linker memory
layout, and virtual inlining into the analysis CFG.

The cache/WCET analyses consume only instruction addresses, control
structure and loop bounds — exactly what this toolchain produces — so
programs written here exercise the same analysis code paths as the
original binaries.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Call": ".ast",
    "Compute": ".ast",
    "Function": ".ast",
    "If": ".ast",
    "Loop": ".ast",
    "Program": ".ast",
    "Stmt": ".ast",
    "FunctionCode": ".codegen",
    "compile_function": ".codegen",
    "CompiledProgram": ".link",
    "compile_program": ".link",
})
