"""Seeded candidate-machine populations for architecture exploration.

The paper's closing pitch is that a retargetable code generator turns
architecture design into a search problem: "by varying the machine
description and evaluating the resulting object code, the design space
of both hardware and software components can be effectively explored."
This module produces that variation deterministically: a population is
a pure function of ``(seed, size, base machines)``, built from two
streams —

- **parametric mutants** of the base machines (the eight bundled
  ``machines/*.isdl`` files by default), produced by a fixed registry
  of mutation operators: register-file scaling, unit removal and
  cloning, multi-cycle latencies, bus splits and shortcut buses, and
  ISDL "never" constraints;
- **free-form samples** from the fuzzer's machine generator
  (:func:`repro.fuzz.machgen.random_machine`), which reaches corners
  of the machine space no bundled description is near.

Every candidate is structurally valid (mutants that would not validate
are discarded and the operator retried), carries a unique name, and is
deduplicated by its name-independent ISDL text so the evaluator never
pays for the same datapath twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MachineValidationError
from repro.isdl.model import (
    Bus,
    Constraint,
    ConstraintTerm,
    Machine,
    MachineOp,
    RegisterFile,
)
from repro.isdl.writer import machine_to_isdl
from repro.telemetry import current as _telemetry


@dataclass(frozen=True)
class ExploreCandidate:
    """One machine in the population.

    ``origin`` records provenance (``base:arch1``, ``mutant:arch1``,
    ``machgen``); ``area`` is the datapath area proxy the Pareto
    frontier uses as its hardware-cost axis.
    """

    name: str
    origin: str
    isdl: str
    area: int


def area_proxy(machine: Machine) -> int:
    """A deterministic integer proxy for datapath area.

    Functional units dominate (decode + datapath), registers and bus
    wiring cost per element, and every implemented operation adds
    control logic.  The absolute scale is arbitrary; only comparisons
    between candidates matter, so the weights just need to order "a
    third functional unit" above "two more registers".
    """
    operations = sum(len(unit.operations) for unit in machine.units)
    registers = sum(rf.size for rf in machine.register_files)
    wires = sum(len(bus.connects) for bus in machine.buses)
    return (
        16 * len(machine.units)
        + 4 * registers
        + 3 * len(machine.buses)
        + 2 * operations
        + wires
    )


def structure_fingerprint(machine: Machine) -> str:
    """The machine's ISDL text with the name normalised away — two
    candidates with the same fingerprint are the same datapath."""
    return machine_to_isdl(replace(machine, name="_"))


# ----------------------------------------------------------------------
# Mutation operators
# ----------------------------------------------------------------------
#
# Each operator takes (rng, machine) and returns a mutated Machine or
# ``None`` when the mutation does not apply (the driver then tries
# another operator).  Operators must consume rng deterministically and
# never mutate their input.

_REGISTER_SIZES = (2, 3, 4, 6, 8)


def _scale_register_files(rng: random.Random, machine: Machine) -> Optional[Machine]:
    """Re-size every register file to a sampled depth."""
    files = tuple(
        RegisterFile(rf.name, rng.choice(_REGISTER_SIZES))
        for rf in machine.register_files
    )
    if all(a.size == b.size for a, b in zip(files, machine.register_files)):
        return None
    return replace(machine, register_files=files)


def _drop_unit(rng: random.Random, machine: Machine) -> Optional[Machine]:
    """Remove one functional unit (the cheap-datapath question)."""
    if len(machine.units) < 2:
        return None
    victim = rng.choice(machine.units)
    units = tuple(u for u in machine.units if u.name != victim.name)
    constraints = tuple(
        c
        for c in machine.constraints
        if all(term.resource != victim.name for term in c.terms)
    )
    return replace(machine, units=units, constraints=constraints)


def _clone_unit(rng: random.Random, machine: Machine) -> Optional[Machine]:
    """Add a copy of one unit with a private register file (more ILP)."""
    source = rng.choice(machine.units)
    taken = set(machine.storage_names()) | set(machine.unit_names())
    taken |= set(machine.bus_names())
    number = len(machine.units) + 1
    while f"U{number}" in taken or f"RF{number}" in taken:
        number += 1
    unit_name, rf_name = f"U{number}", f"RF{number}"
    new_rf = RegisterFile(rf_name, machine.register_file(source.register_file).size)
    new_unit = replace(source, name=unit_name, register_file=rf_name)
    # Wire the new register file wherever the source's file is reachable
    # so the clone is actually usable.
    buses: List[Bus] = []
    wired = False
    for bus in machine.buses:
        if source.register_file in bus.connects:
            buses.append(Bus(bus.name, bus.connects + (rf_name,)))
            wired = True
        else:
            buses.append(bus)
    if not wired:
        buses.append(Bus(f"B{len(buses) + 1}", (machine.data_memory, rf_name)))
    return replace(
        machine,
        units=machine.units + (new_unit,),
        register_files=machine.register_files + (new_rf,),
        buses=tuple(buses),
    )


_SLOW_OPCODES = ("MUL", "DIV", "MOD", "MAC")


def _slow_multipliers(rng: random.Random, machine: Machine) -> Optional[Machine]:
    """Give multiply-class operations a multi-cycle latency."""
    latency = rng.choice((2, 3))
    changed = False
    units = []
    for unit in machine.units:
        ops: List[MachineOp] = []
        for op in unit.operations:
            if op.name in _SLOW_OPCODES and op.latency != latency:
                ops.append(replace(op, latency=latency))
                changed = True
            else:
                ops.append(op)
        units.append(replace(unit, operations=tuple(ops)))
    if not changed:
        return None
    return replace(machine, units=tuple(units))


def _split_bus(rng: random.Random, machine: Machine) -> Optional[Machine]:
    """Split one wide bus into two narrower buses sharing a pivot."""
    wide = [bus for bus in machine.buses if len(bus.connects) >= 4]
    if not wide:
        return None
    bus = rng.choice(wide)
    members = list(bus.connects)
    pivot = machine.data_memory if machine.data_memory in members else members[0]
    rest = [name for name in members if name != pivot]
    cut = rng.randint(1, len(rest) - 1)
    first = Bus(f"{bus.name}a", (pivot,) + tuple(rest[:cut]))
    second = Bus(f"{bus.name}b", (pivot,) + tuple(rest[cut:]))
    buses = tuple(
        replacement
        for b in machine.buses
        for replacement in ((first, second) if b.name == bus.name else (b,))
    )
    constraints = tuple(
        c
        for c in machine.constraints
        if all(term.resource != bus.name for term in c.terms)
    )
    return replace(machine, buses=buses, constraints=constraints)


def _shortcut_bus(rng: random.Random, machine: Machine) -> Optional[Machine]:
    """Add a redundant point-to-point bus (path diversity)."""
    storages = machine.storage_names()
    if len(storages) < 3:
        return None
    pair = tuple(sorted(rng.sample(storages, 2)))
    if any(set(pair) == set(bus.connects) for bus in machine.buses):
        return None
    name_number = len(machine.buses) + 1
    taken = set(machine.bus_names())
    while f"BX{name_number}" in taken:
        name_number += 1
    return replace(
        machine, buses=machine.buses + (Bus(f"BX{name_number}", pair),)
    )


def _add_never_constraint(rng: random.Random, machine: Machine) -> Optional[Machine]:
    """Forbid one cross-unit operation pairing (ISDL "never" rule)."""
    if len(machine.units) < 2:
        return None
    first, second = rng.sample(list(machine.units), 2)

    def term(unit) -> ConstraintTerm:
        if rng.random() < 0.5:
            return ConstraintTerm(unit.name, "*")
        return ConstraintTerm(unit.name, rng.choice(unit.operations).name)

    constraint = Constraint((term(first), term(second)))
    if any(str(constraint) == str(existing) for existing in machine.constraints):
        return None
    return replace(machine, constraints=machine.constraints + (constraint,))


#: The fixed, ordered operator registry — order is part of the
#: determinism contract (``rng.choice`` indexes into it).
MUTATION_OPERATORS: Tuple[Tuple[str, Callable], ...] = (
    ("scale_register_files", _scale_register_files),
    ("drop_unit", _drop_unit),
    ("clone_unit", _clone_unit),
    ("slow_multipliers", _slow_multipliers),
    ("split_bus", _split_bus),
    ("shortcut_bus", _shortcut_bus),
    ("add_never_constraint", _add_never_constraint),
)


def mutate_machine(
    rng: random.Random, machine: Machine, attempts: int = 8
) -> Optional[Tuple[str, Machine]]:
    """Apply one applicable mutation operator; ``None`` if none stuck."""
    for _ in range(attempts):
        op_name, operator = rng.choice(MUTATION_OPERATORS)
        try:
            mutated = operator(rng, machine)
        except MachineValidationError:
            mutated = None
        if mutated is not None:
            return op_name, mutated
    return None


# ----------------------------------------------------------------------
# Population driver
# ----------------------------------------------------------------------


def load_base_machines(machines_dir: Optional[str] = None) -> List[Machine]:
    """The population's seeds: every ``*.isdl`` in ``machines_dir``
    (sorted by file name), or the built-in machines when the directory
    is absent."""
    from pathlib import Path

    from repro.isdl.parser import parse_machine

    if machines_dir is not None:
        files = sorted(Path(machines_dir).glob("*.isdl"))
        if files:
            return [parse_machine(path.read_text()) for path in files]
    from repro.isdl.builtin_machines import BUILTIN_MACHINES

    return [BUILTIN_MACHINES[key]() for key in sorted(BUILTIN_MACHINES)]


def build_population(
    seed: int,
    size: int,
    bases: Optional[Sequence[Machine]] = None,
    machgen_share: float = 0.35,
) -> List[ExploreCandidate]:
    """The deterministic candidate population for one exploration run.

    The base machines come first (a designer always wants the current
    datapaths on the chart), then mutants and machgen samples
    interleave — ``machgen_share`` of the generated tail is sampled
    from the fuzzer's generator, the rest are parametric mutants.
    Candidates whose name-independent ISDL text duplicates an earlier
    candidate are skipped, so the returned population may briefly fall
    behind the requested size before fresh mutations catch up; the
    driver stops after a bounded number of consecutive duplicates.
    """
    from repro.fuzz.machgen import random_machine

    tm = _telemetry()
    rng = random.Random(seed)
    if bases is None:
        bases = load_base_machines()
    candidates: List[ExploreCandidate] = []
    seen: Dict[str, str] = {}

    def admit(machine: Machine, origin: str) -> bool:
        fingerprint = structure_fingerprint(machine)
        if fingerprint in seen:
            tm.count("explore.dedup_skips")
            return False
        seen[fingerprint] = machine.name
        candidates.append(
            ExploreCandidate(
                name=machine.name,
                origin=origin,
                isdl=machine_to_isdl(machine),
                area=area_proxy(machine),
            )
        )
        return True

    for base in bases:
        if len(candidates) >= size:
            break
        if admit(base, f"base:{base.name}"):
            tm.count("explore.base_candidates")

    serial = 0
    stale = 0
    while len(candidates) < size and stale < 64:
        serial += 1
        if rng.random() < machgen_share:
            machine = replace(random_machine(rng, serial), name=f"gen{serial}")
            if admit(machine, "machgen"):
                tm.count("explore.machgen_candidates")
                stale = 0
            else:
                stale += 1
            continue
        base = rng.choice(list(bases))
        mutation = mutate_machine(rng, base)
        if mutation is None:
            stale += 1
            continue
        op_name, mutated = mutation
        mutated = replace(mutated, name=f"{base.name}_x{serial}")
        if admit(mutated, f"mutant:{base.name}:{op_name}"):
            tm.count("explore.mutant_candidates")
            stale = 0
        else:
            stale += 1
    return candidates
