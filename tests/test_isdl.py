"""Tests for machine descriptions: model, parser, writer, databases."""

import pytest

from repro.errors import (
    ISDLParseError,
    MachineValidationError,
    NoTransferPathError,
)
from repro.ir.ops import Opcode
from repro.isdl import (
    ArgRef,
    Bus,
    Constraint,
    ConstraintTerm,
    FunctionalUnit,
    Machine,
    MachineOp,
    Memory,
    OpExpr,
    OperationDatabase,
    RegisterFile,
    TransferDatabase,
    basic_semantics,
    machine_to_isdl,
    parse_machine,
)
from repro.isdl.builtin_machines import BUILTIN_MACHINES


class TestSemantics:
    def test_basic_semantics_shape(self):
        semantics = basic_semantics(Opcode.ADD)
        assert semantics.opcode is Opcode.ADD
        assert semantics.input_count() == 2
        assert semantics.operation_count() == 1

    def test_basic_semantics_rejects_leaf(self):
        with pytest.raises(MachineValidationError):
            basic_semantics(Opcode.CONST)

    def test_evaluate_simple(self):
        assert basic_semantics(Opcode.SUB).evaluate([10, 3]) == 7

    def test_mac_semantics(self):
        mac = OpExpr(
            Opcode.ADD,
            (OpExpr(Opcode.MUL, (ArgRef(0), ArgRef(1))), ArgRef(2)),
        )
        assert mac.input_count() == 3
        assert mac.operation_count() == 2
        assert mac.evaluate([2, 3, 10]) == 16

    def test_wrong_arity_tree_rejected(self):
        with pytest.raises(MachineValidationError):
            OpExpr(Opcode.ADD, (ArgRef(0),))

    def test_machine_op_properties(self):
        op = MachineOp("ADD", basic_semantics(Opcode.ADD))
        assert op.arity == 2
        assert not op.is_complex
        mac = MachineOp(
            "MAC",
            OpExpr(
                Opcode.ADD,
                (OpExpr(Opcode.MUL, (ArgRef(0), ArgRef(1))), ArgRef(2)),
            ),
        )
        assert mac.is_complex

    def test_zero_latency_rejected(self):
        with pytest.raises(MachineValidationError):
            MachineOp("ADD", basic_semantics(Opcode.ADD), latency=0)


class TestModelValidation:
    def _machine(self, **overrides):
        parts = dict(
            name="m",
            units=(
                FunctionalUnit(
                    "U1",
                    "RF1",
                    (MachineOp("ADD", basic_semantics(Opcode.ADD)),),
                ),
            ),
            register_files=(RegisterFile("RF1", 4),),
            memories=(Memory("DM", 64),),
            buses=(Bus("B1", ("DM", "RF1")),),
        )
        parts.update(overrides)
        return Machine(**parts)

    def test_valid_machine(self):
        machine = self._machine()
        assert machine.unit("U1").supports(Opcode.ADD)
        assert machine.rf_of_unit("U1").size == 4

    def test_no_units_rejected(self):
        with pytest.raises(MachineValidationError):
            self._machine(units=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(MachineValidationError):
            self._machine(
                register_files=(RegisterFile("RF1", 4),),
                memories=(Memory("RF1", 64), Memory("DM", 64)),
            )

    def test_unit_missing_regfile_rejected(self):
        with pytest.raises(MachineValidationError):
            self._machine(
                units=(
                    FunctionalUnit(
                        "U1",
                        "GHOST",
                        (MachineOp("ADD", basic_semantics(Opcode.ADD)),),
                    ),
                )
            )

    def test_bus_missing_storage_rejected(self):
        with pytest.raises(MachineValidationError):
            self._machine(buses=(Bus("B1", ("DM", "GHOST")),))

    def test_missing_data_memory_rejected(self):
        with pytest.raises(MachineValidationError):
            self._machine(memories=(Memory("OTHER", 64),))

    def test_constraint_referencing_ghost_resource_rejected(self):
        with pytest.raises(MachineValidationError):
            self._machine(
                constraints=(
                    Constraint(
                        (
                            ConstraintTerm("U1", "ADD"),
                            ConstraintTerm("GHOST", "*"),
                        )
                    ),
                )
            )

    def test_constraint_referencing_ghost_op_rejected(self):
        with pytest.raises(MachineValidationError):
            self._machine(
                constraints=(
                    Constraint(
                        (
                            ConstraintTerm("U1", "MUL"),
                            ConstraintTerm("B1", "*"),
                        )
                    ),
                )
            )

    def test_single_term_constraint_allowed(self):
        # Legal ISDL: bans the matched operation outright; the covering
        # layer diagnoses affected tasks as having no implementation.
        constraint = Constraint((ConstraintTerm("U1", "ADD"),))
        assert str(constraint) == "never U1.ADD"

    def test_empty_constraint_rejected(self):
        with pytest.raises(MachineValidationError):
            Constraint(())

    def test_empty_regfile_rejected(self):
        with pytest.raises(MachineValidationError):
            RegisterFile("RF1", 0)

    def test_bus_needs_two_endpoints(self):
        with pytest.raises(MachineValidationError):
            Bus("B1", ("DM",))

    def test_units_supporting(self):
        machine = self._machine()
        assert [u.name for u in machine.units_supporting(Opcode.ADD)] == ["U1"]
        assert machine.units_supporting(Opcode.MUL) == []

    def test_describe_mentions_everything(self):
        text = self._machine().describe()
        assert "U1" in text and "DM" in text and "B1" in text


class TestParserAndWriter:
    SOURCE = """
    machine demo {
      wordsize 16;
      memory DM size 256;
      regfile RF1 size 4;
      regfile RF2 size 2;
      unit U1 regfile RF1 { op ADD; op SUB latency 2; }
      unit U2 regfile RF2 { op MUL; op MAC = ADD(MUL($0, $1), $2); }
      bus B1 connects DM, RF1, RF2;
      constraint never U1.ADD & U2.MUL;
      constraint never B1.* & U2.MAC;
    }
    """

    def test_parse_structure(self):
        machine = parse_machine(self.SOURCE)
        assert machine.name == "demo"
        assert machine.word_size == 16
        assert machine.unit("U1").op_named("SUB").latency == 2
        assert machine.unit("U2").op_named("MAC").is_complex
        assert len(machine.constraints) == 2

    def test_round_trip(self):
        machine = parse_machine(self.SOURCE)
        text = machine_to_isdl(machine)
        again = parse_machine(text)
        assert machine_to_isdl(again) == text
        assert again.unit("U2").op_named("MAC").semantics.evaluate(
            [2, 3, 4]
        ) == 10

    def test_comments_allowed(self):
        machine = parse_machine(
            "machine m { # comment\n memory DM size 8;\n"
            " regfile R size 2; // other\n"
            " unit U regfile R { op ADD; }\n bus B connects DM, R;\n}"
        )
        assert machine.name == "m"

    def test_unknown_item_raises(self):
        with pytest.raises(ISDLParseError):
            parse_machine("machine m { gadget X; }")

    def test_unknown_opcode_raises(self):
        with pytest.raises(ISDLParseError):
            parse_machine(
                "machine m { memory DM size 8; regfile R size 2;"
                " unit U regfile R { op FROBNICATE; } bus B connects DM, R; }"
            )

    def test_unterminated_block_raises(self):
        with pytest.raises(ISDLParseError):
            parse_machine("machine m { memory DM size 8;")

    def test_bad_character_raises(self):
        with pytest.raises(ISDLParseError):
            parse_machine("machine m @ {}")

    def test_semantic_arg_syntax(self):
        machine = parse_machine(
            "machine m { memory DM size 8; regfile R size 2;"
            " unit U regfile R { op SUBR = SUB($1, $0); }"
            " bus B connects DM, R; }"
        )
        assert machine.unit("U").op_named("SUBR").semantics.evaluate(
            [3, 10]
        ) == 7

    def test_builtins_round_trip(self):
        for factory in BUILTIN_MACHINES.values():
            machine = factory()
            text = machine_to_isdl(machine)
            assert machine_to_isdl(parse_machine(text)) == text


class TestOperationDatabase:
    def test_matches_in_declaration_order(self, arch1):
        db = OperationDatabase(arch1)
        assert [m.unit for m in db.matches(Opcode.ADD)] == ["U1", "U2", "U3"]
        assert [m.unit for m in db.matches(Opcode.MUL)] == ["U2", "U3"]
        assert db.matches(Opcode.DIV) == []

    def test_alternative_count_matches_paper(self, arch1):
        db = OperationDatabase(arch1)
        # Fig. 4: SUB has 2 choices, MUL 2, ADD 3 (2 x 2 x 3 assignments).
        assert db.alternative_count(Opcode.SUB) == 2
        assert db.alternative_count(Opcode.MUL) == 2
        assert db.alternative_count(Opcode.ADD) == 3

    def test_complex_ops_excluded(self, arch_mac):
        db = OperationDatabase(arch_mac)
        assert all(
            not match.op.is_complex for match in db.matches(Opcode.ADD)
        )
        assert arch_mac.complex_ops()[0][1].name == "MAC"


class TestTransferDatabase:
    def test_single_bus_direct_paths(self, arch1):
        db = TransferDatabase(arch1)
        paths = db.paths("DM", "RF2")
        assert len(paths) == 1
        assert len(paths[0]) == 1
        assert paths[0][0].bus == "B1"

    def test_same_storage_empty_path(self, arch1):
        assert TransferDatabase(arch1).paths("RF1", "RF1") == [()]

    def test_multi_hop_expansion(self, arch_dual):
        db = TransferDatabase(arch_dual)
        paths = db.paths("DM", "RF3")
        assert all(len(p) == 2 for p in paths)
        assert {p[0].destination for p in paths} == {"RF1", "RF2"}

    def test_distance(self, arch_dual):
        db = TransferDatabase(arch_dual)
        assert db.distance("DM", "RF1") == 1
        assert db.distance("DM", "RF3") == 2
        assert db.distance("RF3", "RF3") == 0

    def test_unreachable_raises(self):
        machine = parse_machine(
            "machine m { memory DM size 8; regfile R1 size 2;"
            " regfile R2 size 2;"
            " unit U1 regfile R1 { op ADD; } unit U2 regfile R2 { op SUB; }"
            " bus B1 connects DM, R1; }"
        )
        db = TransferDatabase(machine)
        with pytest.raises(NoTransferPathError):
            db.paths("DM", "R2")
        assert not db.has_path("R1", "R2")
        assert db.has_path("DM", "R1")

    def test_direct_transfers_cover_all_bus_pairs(self, arch1):
        db = TransferDatabase(arch1)
        hops = db.direct_transfers()
        # 4 storages fully connected by one bus: 4*3 ordered pairs.
        assert len(hops) == 12

    def test_distance_does_not_enumerate_paths(self, arch_dual):
        # Hop counts come from the BFS distance table; the minimal-path
        # enumeration must stay untouched (it used to be forced just to
        # measure a length).
        db = TransferDatabase(arch_dual)
        assert db.distance("DM", "RF3") == 2
        assert db.has_path("DM", "RF3")
        assert db._paths == {}

    def test_distance_consistent_with_minimal_paths(self, arch_dual):
        db = TransferDatabase(arch_dual)
        storages = arch_dual.storage_names()
        for source in storages:
            for destination in storages:
                if db.has_path(source, destination):
                    paths = db.paths(source, destination)
                    assert db.distance(source, destination) == len(paths[0])

    def test_unreachable_negative_result_is_cached(self):
        machine = parse_machine(
            "machine m { memory DM size 8; regfile R1 size 2;"
            " regfile R2 size 2;"
            " unit U1 regfile R1 { op ADD; } unit U2 regfile R2 { op SUB; }"
            " bus B1 connects DM, R1; }"
        )
        db = TransferDatabase(machine)
        for _ in range(2):  # second round must hit the caches
            with pytest.raises(NoTransferPathError):
                db.paths("DM", "R2")
            with pytest.raises(NoTransferPathError):
                db.distance("R1", "R2")
            assert not db.has_path("R1", "R2")
        # The cached negative entry stays an entry, not a re-search.
        assert db._paths[("DM", "R2")] == []


class TestBuiltinMachines:
    def test_fig3_architecture_op_sets(self, arch1):
        assert arch1.unit("U1").supports(Opcode.ADD)
        assert arch1.unit("U1").supports(Opcode.SUB)
        assert not arch1.unit("U1").supports(Opcode.MUL)
        assert arch1.unit("U2").supports(Opcode.MUL)
        assert arch1.unit("U3").supports(Opcode.MUL)
        assert not arch1.unit("U3").supports(Opcode.SUB)

    def test_architecture_two_removals(self, arch2):
        assert not arch2.unit("U1").supports(Opcode.SUB)
        assert not arch2.has_unit("U3")
        assert len(arch2.units) == 2

    def test_registers_parameter(self):
        from repro.isdl import example_architecture

        assert example_architecture(2).rf_of_unit("U1").size == 2
        assert example_architecture(4).rf_of_unit("U1").size == 4

    def test_registry_complete(self):
        assert set(BUILTIN_MACHINES) == {
            "arch1",
            "arch2",
            "fig6",
            "dualbus",
            "mac",
            "single",
            "cf",
            "pipe",
        }
        for factory in BUILTIN_MACHINES.values():
            factory().validate()
