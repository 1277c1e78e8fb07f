"""repro — a reproduction of the AVIV retargetable code generator.

AVIV (Hanono & Devadas, DAC 1998) generates size-optimized machine code
for ILP/VLIW embedded processors from an application program plus an
ISDL machine description, performing instruction selection, resource
allocation, and scheduling *concurrently* via the Split-Node DAG.

Quick start::

    from repro import (
        compile_source, compile_function, example_architecture,
        run_program, interpret_function,
    )

    function = compile_source("y = (a + b) * (a - c);")
    machine = example_architecture(registers_per_file=4)
    compiled = compile_function(function, machine)
    print(compiled.program.listing())
    result = run_program(compiled.program, machine, {"a": 7, "b": 3, "c": 2})
    assert result.variables["y"] == interpret_function(
        function, {"a": 7, "b": 3, "c": 2}
    )["y"]

Subsystem map (see DESIGN.md for the full inventory):

=================  ====================================================
``repro.frontend``  minic language → IR (SUIF/SPAM stand-in)
``repro.ir``        basic-block expression DAGs + CFG + interpreter
``repro.opt``       machine-independent passes incl. loop unrolling
``repro.isdl``      machine descriptions (ISDL-lite) + databases
``repro.sndag``     the Split-Node DAG (Section III)
``repro.covering``  the concurrent covering engine (Section IV)
``repro.regalloc``  detailed register allocation by graph coloring
``repro.peephole``  load/spill removal + schedule compaction
``repro.asmgen``    VLIW instructions, control flow, whole programs
``repro.assembler`` text assembly + binary encode/decode
``repro.simulator`` cycle-level VLIW simulator
``repro.baselines`` phase-ordered baseline compiler
``repro.optimal``   constraint-solver optimal backend (proven minima)
``repro.eval``      Tables I/II workloads and experiment harness
``repro.telemetry`` phase spans, search counters, Chrome-trace export
=================  ====================================================
"""

from repro.errors import (
    ReproError,
    CoverageError,
    ISDLError,
    FrontendError,
    RegisterAllocationError,
    AssemblerError,
    SimulationError,
)
from repro.ir import (
    BlockDAG,
    Opcode,
    BasicBlock,
    Function,
    Jump,
    Branch,
    Return,
    interpret_function,
)
from repro.isdl import (
    Machine,
    parse_machine,
    machine_to_isdl,
    example_architecture,
    architecture_two,
    pipelined_dsp_architecture,
    lint_machine,
    BUILTIN_MACHINES,
)
from repro.frontend import compile_source, parse_program
from repro.sndag import build_split_node_dag, SplitNodeDAG
from repro.covering import (
    HeuristicConfig,
    generate_block_solution,
    solve_block,
    BlockSolution,
)
from repro.regalloc import allocate_registers
from repro.peephole import peephole_optimize
from repro.asmgen import compile_function, compile_dag, Program
from repro.assembler import (
    program_to_text,
    parse_assembly,
    encode_program,
    decode_program,
    save_object,
    load_object,
)
from repro.simulator import run_program, Debugger, profile_run
from repro.baselines import sequential_block_solution
from repro.eval import (
    WORKLOADS,
    APPLICATIONS,
    run_table1,
    run_table2,
    sweep,
    register_file_sweep,
)
from repro.opt import eliminate_dead_stores
from repro.telemetry import (
    TelemetrySession,
    TelemetryReport,
    use_session,
    chrome_trace,
    Stopwatch,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "CoverageError",
    "ISDLError",
    "FrontendError",
    "RegisterAllocationError",
    "AssemblerError",
    "SimulationError",
    "BlockDAG",
    "Opcode",
    "BasicBlock",
    "Function",
    "Jump",
    "Branch",
    "Return",
    "interpret_function",
    "Machine",
    "parse_machine",
    "machine_to_isdl",
    "example_architecture",
    "architecture_two",
    "pipelined_dsp_architecture",
    "lint_machine",
    "BUILTIN_MACHINES",
    "compile_source",
    "parse_program",
    "build_split_node_dag",
    "SplitNodeDAG",
    "HeuristicConfig",
    "generate_block_solution",
    "solve_block",
    "BlockSolution",
    "allocate_registers",
    "peephole_optimize",
    "compile_function",
    "compile_dag",
    "Program",
    "program_to_text",
    "parse_assembly",
    "encode_program",
    "decode_program",
    "save_object",
    "load_object",
    "run_program",
    "Debugger",
    "profile_run",
    "sequential_block_solution",
    "WORKLOADS",
    "APPLICATIONS",
    "run_table1",
    "run_table2",
    "sweep",
    "register_file_sweep",
    "eliminate_dead_stores",
    "TelemetrySession",
    "TelemetryReport",
    "use_session",
    "chrome_trace",
    "Stopwatch",
    "__version__",
]
