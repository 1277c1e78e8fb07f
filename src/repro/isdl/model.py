"""In-memory machine model.

A :class:`Machine` captures what the Split-Node DAG builder and the
covering engine need to know about a target processor:

- **functional units**, each bound to one register file and supporting a
  set of operations (with evaluable semantics, so the simulator can
  execute them);
- **register files** with finite sizes (the resource the covering step's
  liveness bound protects);
- **memories** (data memory holds variables, constants, and spill slots);
- **buses** — shared transfer paths connecting storage locations; one
  value may cross a bus per cycle, which is what makes data transfers
  schedulable resources;
- **constraints** — ISDL-style "never" rules describing illegal
  instruction groupings (Section III, IV-C.3);
- **patterns** — complex instructions (e.g. multiply-accumulate) matched
  against the expression DAG (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import MachineValidationError
from repro.ir.arith import apply_operation
from repro.ir.ops import Opcode, arity_of, is_operation


# ----------------------------------------------------------------------
# Operation semantics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArgRef:
    """A reference to the i-th input operand of a machine operation."""

    index: int

    def __str__(self) -> str:
        return f"${self.index}"


@dataclass(frozen=True)
class OpExpr:
    """An expression tree over IR opcodes and operand references.

    Used both as the *semantics* of a machine operation (so the simulator
    can evaluate it) and as the *pattern* of a complex instruction (so the
    Split-Node DAG builder can match it against the expression DAG).
    """

    opcode: Opcode
    args: Tuple[Union["OpExpr", ArgRef], ...]

    def __post_init__(self) -> None:
        if len(self.args) != arity_of(self.opcode):
            raise MachineValidationError(
                f"semantics for {self.opcode} needs {arity_of(self.opcode)} "
                f"args, got {len(self.args)}"
            )

    def input_count(self) -> int:
        """Number of distinct operand slots referenced (max index + 1)."""
        highest = -1
        for arg in self.args:
            if isinstance(arg, ArgRef):
                highest = max(highest, arg.index)
            else:
                highest = max(highest, arg.input_count() - 1)
        return highest + 1

    def evaluate(self, operands: Sequence[int]) -> int:
        """Evaluate the tree against concrete word operands."""
        values = []
        for arg in self.args:
            if isinstance(arg, ArgRef):
                values.append(operands[arg.index])
            else:
                values.append(arg.evaluate(operands))
        return apply_operation(self.opcode, *values)

    def operation_count(self) -> int:
        """How many IR operations this tree performs (pattern size)."""
        return 1 + sum(
            arg.operation_count() for arg in self.args if isinstance(arg, OpExpr)
        )

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{self.opcode.name}({args})"


def basic_semantics(opcode: Opcode) -> OpExpr:
    """The identity semantics of a basic operation: op($0, $1, ...)."""
    if not is_operation(opcode):
        raise MachineValidationError(f"{opcode} is not an executable operation")
    return OpExpr(opcode, tuple(ArgRef(i) for i in range(arity_of(opcode))))


# ----------------------------------------------------------------------
# Structural elements
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterFile:
    """A register bank: ``size`` general-purpose word registers."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise MachineValidationError(
                f"register file {self.name!r} must have at least 1 register"
            )


@dataclass(frozen=True)
class Memory:
    """A word-addressed memory (the DM of the paper's Fig. 3)."""

    name: str
    size: int = 1024

    def __post_init__(self) -> None:
        if self.size < 1:
            raise MachineValidationError(f"memory {self.name!r} too small")


@dataclass(frozen=True)
class MachineOp:
    """One operation a functional unit can perform.

    ``name`` is the assembly mnemonic; ``semantics`` defines its meaning
    as an expression tree (a plain ``ADD`` has semantics ``ADD($0,$1)``;
    a MAC might be ``ADD(MUL($0,$1), $2)``).  ``latency`` is in cycles —
    the paper's targets are single-cycle, but the field allows modeling
    others.
    """

    name: str
    semantics: OpExpr
    latency: int = 1

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise MachineValidationError(f"op {self.name!r}: latency must be >= 1")

    @property
    def arity(self) -> int:
        """Number of input operands the op consumes."""
        return self.semantics.input_count()

    @property
    def is_complex(self) -> bool:
        """True unless this op is a plain, identity-operand implementation
        of its root opcode.

        Multi-operation semantics (``MAC = ADD(MUL($0,$1),$2)``) are
        complex, but so are single-operation semantics that permute or
        duplicate operands (``SUBR = SUB($1,$0)``): selecting such an op
        for a plain IR operation would silently reorder its inputs, so
        they go through the pattern matcher, which binds operand slots
        explicitly.
        """
        if self.semantics.operation_count() > 1:
            return True
        return self.semantics != basic_semantics(self.semantics.opcode)


@dataclass(frozen=True)
class FunctionalUnit:
    """A functional unit with its own register file (Fig. 3 topology)."""

    name: str
    register_file: str
    operations: Tuple[MachineOp, ...]

    def op_named(self, name: str) -> Optional[MachineOp]:
        """The unit's op with this mnemonic, or None."""
        for op in self.operations:
            if op.name == name:
                return op
        return None

    def supports(self, opcode: Opcode) -> bool:
        """True if some *basic* (non-complex) op implements ``opcode``."""
        return any(
            not op.is_complex and op.semantics.opcode is opcode
            for op in self.operations
        )


@dataclass(frozen=True)
class Bus:
    """A transfer path connecting storage locations.

    One word may cross a bus per cycle; transfers on the same bus can
    never be grouped into the same instruction.
    """

    name: str
    connects: Tuple[str, ...]  # names of register files / memories

    def __post_init__(self) -> None:
        if len(self.connects) < 2:
            raise MachineValidationError(
                f"bus {self.name!r} must connect at least two storages"
            )


@dataclass(frozen=True)
class ConstraintTerm:
    """One term of a "never" constraint: a (resource, op-name) matcher.

    ``resource`` names a functional unit or a bus; ``op_name`` is an
    assembly mnemonic, or ``"*"`` to match anything on that resource.
    """

    resource: str
    op_name: str = "*"

    def __str__(self) -> str:
        return f"{self.resource}.{self.op_name}"


@dataclass(frozen=True)
class Constraint:
    """An illegal grouping: an instruction may not match *all* terms.

    This mirrors ISDL's approach: operations are treated as fully
    orthogonal and illegal combinations are listed explicitly and checked
    against each proposed instruction (maximal clique).
    """

    terms: Tuple[ConstraintTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise MachineValidationError(
                "a constraint needs at least one term"
            )
        # A single-term constraint is legal ISDL: it bans the matched
        # operation outright (every instruction containing it — including
        # the singleton — violates the constraint).  The covering layer
        # reports such tasks as having no legal implementation.

    def __str__(self) -> str:
        return "never " + " & ".join(str(t) for t in self.terms)


# ----------------------------------------------------------------------
# Machine
# ----------------------------------------------------------------------


@dataclass
class Machine:
    """A complete target-processor description."""

    name: str
    units: Tuple[FunctionalUnit, ...]
    register_files: Tuple[RegisterFile, ...]
    memories: Tuple[Memory, ...]
    buses: Tuple[Bus, ...]
    constraints: Tuple[Constraint, ...] = ()
    word_size: int = 32
    data_memory: str = "DM"

    _unit_index: Dict[str, FunctionalUnit] = field(init=False, repr=False)
    _rf_index: Dict[str, RegisterFile] = field(init=False, repr=False)
    _memory_index: Dict[str, Memory] = field(init=False, repr=False)
    _bus_index: Dict[str, Bus] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._unit_index = {u.name: u for u in self.units}
        self._rf_index = {r.name: r for r in self.register_files}
        self._memory_index = {m.name: m for m in self.memories}
        self._bus_index = {b.name: b for b in self.buses}
        self.validate()

    # -- lookups --------------------------------------------------------

    def unit(self, name: str) -> FunctionalUnit:
        """Look up a functional unit by name."""
        try:
            return self._unit_index[name]
        except KeyError:
            raise MachineValidationError(f"no functional unit {name!r}") from None

    def register_file(self, name: str) -> RegisterFile:
        """Look up a register file by name."""
        try:
            return self._rf_index[name]
        except KeyError:
            raise MachineValidationError(f"no register file {name!r}") from None

    def memory(self, name: str) -> Memory:
        """Look up a memory by name."""
        try:
            return self._memory_index[name]
        except KeyError:
            raise MachineValidationError(f"no memory {name!r}") from None

    def bus(self, name: str) -> Bus:
        """Look up a bus by name."""
        try:
            return self._bus_index[name]
        except KeyError:
            raise MachineValidationError(f"no bus {name!r}") from None

    def has_unit(self, name: str) -> bool:
        """True when a unit with this name exists."""
        return name in self._unit_index

    def has_bus(self, name: str) -> bool:
        """True when a bus with this name exists."""
        return name in self._bus_index

    def unit_names(self) -> List[str]:
        """Functional-unit names in declaration order."""
        return [u.name for u in self.units]

    def bus_names(self) -> List[str]:
        """Bus names in declaration order."""
        return [b.name for b in self.buses]

    def storage_names(self) -> List[str]:
        """Names of all storage locations (register files + memories)."""
        return [r.name for r in self.register_files] + [
            m.name for m in self.memories
        ]

    def rf_of_unit(self, unit_name: str) -> RegisterFile:
        """The register file a unit reads operands from / writes results to."""
        return self.register_file(self.unit(unit_name).register_file)

    def units_supporting(self, opcode: Opcode) -> List[FunctionalUnit]:
        """All units with a basic op implementing ``opcode`` (stable order)."""
        return [u for u in self.units if u.supports(opcode)]

    def complex_ops(self) -> List[Tuple[FunctionalUnit, MachineOp]]:
        """All (unit, op) pairs whose semantics span multiple operations."""
        result = []
        for unit in self.units:
            for op in unit.operations:
                if op.is_complex:
                    result.append((unit, op))
        return result

    def buses_connecting(self, source: str, destination: str) -> List[Bus]:
        """Buses that can move a word from ``source`` to ``destination``."""
        return [
            b
            for b in self.buses
            if source in b.connects and destination in b.connects
        ]

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity; raise on violation."""
        names: List[str] = []
        names.extend(u.name for u in self.units)
        names.extend(r.name for r in self.register_files)
        names.extend(m.name for m in self.memories)
        names.extend(b.name for b in self.buses)
        seen = set()
        for name in names:
            if name in seen:
                raise MachineValidationError(
                    f"machine {self.name!r}: duplicate element name {name!r}"
                )
            seen.add(name)
        if not self.units:
            raise MachineValidationError(
                f"machine {self.name!r} has no functional units"
            )
        if self.data_memory not in self._memory_index:
            raise MachineValidationError(
                f"machine {self.name!r}: data memory {self.data_memory!r} "
                f"is not declared"
            )
        storages = set(self.storage_names())
        for unit in self.units:
            if unit.register_file not in self._rf_index:
                raise MachineValidationError(
                    f"unit {unit.name!r} references missing register file "
                    f"{unit.register_file!r}"
                )
            mnemonics = [op.name for op in unit.operations]
            if len(mnemonics) != len(set(mnemonics)):
                raise MachineValidationError(
                    f"unit {unit.name!r} has duplicate op mnemonics"
                )
        for bus in self.buses:
            for storage in bus.connects:
                if storage not in storages:
                    raise MachineValidationError(
                        f"bus {bus.name!r} connects missing storage "
                        f"{storage!r}"
                    )
        resources = set(self.unit_names()) | set(self.bus_names())
        for constraint in self.constraints:
            for term in constraint.terms:
                if term.resource not in resources:
                    raise MachineValidationError(
                        f"constraint {constraint} references missing "
                        f"resource {term.resource!r}"
                    )
                if term.op_name != "*" and term.resource in self._unit_index:
                    if self.unit(term.resource).op_named(term.op_name) is None:
                        raise MachineValidationError(
                            f"constraint {constraint}: unit "
                            f"{term.resource!r} has no op {term.op_name!r}"
                        )

    def summary(self) -> Dict[str, object]:
        """A JSON-serializable summary of the machine.

        Element order follows declaration order (which the encoder and
        the covering engine also use); ``repro describe --json`` prints
        this verbatim.
        """
        return {
            "name": self.name,
            "word_size": self.word_size,
            "data_memory": self.data_memory,
            "units": [
                {
                    "name": unit.name,
                    "register_file": unit.register_file,
                    "operations": [
                        {
                            "name": op.name,
                            "arity": op.arity,
                            "latency": op.latency,
                            "complex": op.is_complex,
                            "semantics": str(op.semantics),
                        }
                        for op in unit.operations
                    ],
                }
                for unit in self.units
            ],
            "register_files": [
                {"name": rf.name, "size": rf.size}
                for rf in self.register_files
            ],
            "memories": [
                {"name": m.name, "size": m.size} for m in self.memories
            ],
            "buses": [
                {"name": b.name, "connects": list(b.connects)}
                for b in self.buses
            ],
            "constraints": [str(c) for c in self.constraints],
        }

    def describe(self) -> str:
        """A multi-line human-readable summary (used by Fig. 3 bench)."""
        lines = [f"machine {self.name} (word {self.word_size} bits)"]
        for unit in self.units:
            ops = ", ".join(op.name for op in unit.operations)
            rf = self.rf_of_unit(unit.name)
            lines.append(
                f"  unit {unit.name}: ops [{ops}]  regfile {rf.name} "
                f"({rf.size} regs)"
            )
        for memory in self.memories:
            lines.append(f"  memory {memory.name}: {memory.size} words")
        for bus in self.buses:
            lines.append(f"  bus {bus.name}: connects {', '.join(bus.connects)}")
        for constraint in self.constraints:
            lines.append(f"  constraint: {constraint}")
        return "\n".join(lines)
