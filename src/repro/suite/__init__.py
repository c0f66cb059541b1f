"""The 25-benchmark evaluation suite (Mälardalen stand-ins).

The paper evaluates 25 programs of the Mälardalen WCET benchmark suite
compiled to MIPS.  The original C sources cannot be compiled offline,
so each entry here is a MiniC program *mimicking the documented control
structure and code footprint of its namesake* — loop-nest shapes,
bounds, call structure and straight-line body sizes are modelled on
the originals.  The WCET analyses consume only addresses, structure
and bounds, so these stand-ins exercise the same code paths.

Public interface:

* :data:`EVALUATED_BENCHMARKS` — the 25 names of Figure 4;
* :func:`build` — the MiniC AST of one benchmark;
* :func:`load` — compiled (linked + inlined) program, memoised.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.minic import CompiledProgram, Program

#: Benchmarks of the paper's Figure 4, in the suite's canonical order.
EVALUATED_BENCHMARKS: tuple[str, ...] = (
    "adpcm", "bs", "bsort100", "cnt", "cover", "crc", "duff", "edn",
    "expint", "fdct", "fft", "fibcall", "fir", "insertsort",
    "janne_complex", "jfdctint", "lcdnum", "ludcmp", "matmult", "minver",
    "ns", "nsichneu", "prime", "qurt", "ud",
)


@dataclass(frozen=True)
class BenchmarkInfo:
    """Metadata of one suite entry."""

    name: str
    description: str
    code_bytes: int
    instruction_count: int


_PROGRAM_CACHE: dict[str, Program] = {}
_COMPILED_CACHE: dict[str, CompiledProgram] = {}


def build(name: str) -> Program:
    """The MiniC AST of benchmark ``name`` (memoised)."""
    if name not in EVALUATED_BENCHMARKS:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; see EVALUATED_BENCHMARKS")
    if name not in _PROGRAM_CACHE:
        module = importlib.import_module(f"repro.suite.programs.{name}")
        _PROGRAM_CACHE[name] = module.build()
    return _PROGRAM_CACHE[name]


def load(name: str) -> CompiledProgram:
    """Compiled and linked benchmark ``name`` (memoised)."""
    if name not in _COMPILED_CACHE:
        from repro.minic import compile_program
        _COMPILED_CACHE[name] = compile_program(build(name))
    return _COMPILED_CACHE[name]


def info(name: str) -> BenchmarkInfo:
    """Size metadata of one benchmark."""
    compiled = load(name)
    module = importlib.import_module(f"repro.suite.programs.{name}")
    description = (module.__doc__ or "").strip().splitlines()[0]
    return BenchmarkInfo(name=name, description=description,
                         code_bytes=compiled.code_size_bytes(),
                         instruction_count=compiled.cfg.instruction_count())
