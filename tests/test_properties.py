"""Property-based tests on core data structures and algorithms.

These compare the production implementations against small brute-force
reference implementations over randomly generated inputs.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.covering.cliques import generate_maximal_clique_masks
from repro.errors import RegisterAllocationError
from repro.regalloc.coloring import color_graph
from repro.regalloc.interference import InterferenceGraph
from repro.regalloc.liveness import LiveRange
from repro.utils.bitset import bits, mask_of


# ----------------------------------------------------------------------
# Maximal cliques vs. brute force
# ----------------------------------------------------------------------


def _is_clique(rows, clique) -> bool:
    return all(
        rows[i] >> j & 1 for i, j in itertools.combinations(bits(clique), 2)
    )


def _brute_force_maximal_cliques(rows):
    """All maximal cliques by subset enumeration (n <= ~12)."""
    cliques = [
        mask_of(subset)
        for r in range(1, len(rows) + 1)
        for subset in itertools.combinations(sorted(rows), r)
        if _is_clique(rows, mask_of(subset))
    ]
    return {
        c
        for c in cliques
        if not any(c != other and c & ~other == 0 for other in cliques)
    }


@st.composite
def parallelism_rows(draw):
    """Bitmask parallelism rows over 1–8 nodes, any edge set."""
    size = draw(st.integers(1, 8))
    rows = {node: 0 for node in range(size)}
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _covered(cliques):
    covered = 0
    for clique in cliques:
        covered |= clique
    return covered


@settings(max_examples=120, deadline=None)
@given(parallelism_rows())
def test_clique_generator_matches_brute_force(rows):
    ours = set(generate_maximal_clique_masks(rows))
    assert ours == _brute_force_maximal_cliques(rows)


@settings(max_examples=60, deadline=None)
@given(parallelism_rows())
def test_cliques_cover_every_node(rows):
    cliques = generate_maximal_clique_masks(rows)
    assert _covered(cliques) == mask_of(rows)


# ----------------------------------------------------------------------
# Graph coloring on random interval sets
# ----------------------------------------------------------------------


@st.composite
def interval_sets(draw):
    count = draw(st.integers(1, 12))
    ranges = []
    for index in range(count):
        start = draw(st.integers(0, 15))
        length = draw(st.integers(1, 6))
        ranges.append(
            LiveRange(
                delivery=index,
                bank="RF",
                def_cycle=start,
                last_use_cycle=start + length,
            )
        )
    return ranges


def _max_overlap(ranges):
    events = []
    for live in ranges:
        events.append((live.def_cycle, 1))
        events.append((live.last_use_cycle, -1))
    # A range occupies (def, last]; at time t = def of one and last of
    # another, the dying one frees first.
    peak = current = 0
    for _time, delta in sorted(events, key=lambda e: (e[0], e[1])):
        current += delta
        peak = max(peak, current)
    return peak


@settings(max_examples=100, deadline=None)
@given(interval_sets())
def test_interval_graphs_color_with_max_overlap_colors(ranges):
    capacity = max(1, _max_overlap(ranges))
    graph = InterferenceGraph(bank="RF", capacity=capacity)
    for live in ranges:
        graph.add_node(live.delivery)
    for a, b in itertools.combinations(ranges, 2):
        if a.overlaps(b):
            graph.add_edge(a.delivery, b.delivery)
    colors = color_graph(graph)  # must not raise: interval graphs are
    # perfect, chromatic number == max overlap
    for a, b in itertools.combinations(ranges, 2):
        if a.overlaps(b):
            assert colors[a.delivery] != colors[b.delivery]


@settings(max_examples=60, deadline=None)
@given(interval_sets())
def test_coloring_fails_only_below_clique_size(ranges):
    overlap = _max_overlap(ranges)
    if overlap < 2:
        return
    graph = InterferenceGraph(bank="RF", capacity=overlap - 1)
    for live in ranges:
        graph.add_node(live.delivery)
    for a, b in itertools.combinations(ranges, 2):
        if a.overlaps(b):
            graph.add_edge(a.delivery, b.delivery)
    with pytest.raises(RegisterAllocationError):
        color_graph(graph)


# ----------------------------------------------------------------------
# Assembler round-trips over random (valid) programs
# ----------------------------------------------------------------------


@st.composite
def random_programs(draw):
    from repro.asmgen.instruction import (
        ControlKind,
        ControlSlot,
        Instruction,
        MemRef,
        OpSlot,
        Program,
        RegRef,
        TransferSlot,
    )
    from repro.isdl import example_architecture

    machine = example_architecture(4)
    count = draw(st.integers(1, 6))
    program = Program(machine_name=machine.name)
    program.labels["L0"] = 0
    for _ in range(count):
        ops = []
        used_units = set()
        for unit in machine.units:
            if draw(st.booleans()) or unit.name in used_units:
                continue
            used_units.add(unit.name)
            op = draw(st.sampled_from(unit.operations))
            rf = unit.register_file
            ops.append(
                OpSlot(
                    unit=unit.name,
                    op_name=op.name,
                    destination=RegRef(rf, draw(st.integers(0, 3))),
                    sources=tuple(
                        RegRef(rf, draw(st.integers(0, 3)))
                        for _ in range(op.arity)
                    ),
                )
            )
        transfers = []
        if draw(st.booleans()):
            source = MemRef("DM", draw(st.integers(0, 63)))
            destination = RegRef(
                draw(st.sampled_from(["RF1", "RF2", "RF3"])),
                draw(st.integers(0, 3)),
            )
            transfers.append(TransferSlot("B1", source, destination))
        control = None
        if draw(st.booleans()):
            control = ControlSlot(ControlKind.JMP, target="L0")
        program.instructions.append(
            Instruction(tuple(ops), tuple(transfers), control)
        )
    program.instructions.append(
        Instruction(control=ControlSlot(ControlKind.HALT))
    )
    program.symbols = {"a": 0, "b": 1}
    program.data = {5: draw(st.integers(-100, 100))}
    return program, machine


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(random_programs())
def test_text_round_trip_random_programs(pair):
    from repro.assembler import parse_assembly, program_to_text

    program, machine = pair
    text = program_to_text(program)
    reparsed = parse_assembly(text, machine)
    assert program_to_text(reparsed) == text


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(random_programs())
def test_binary_round_trip_random_programs(pair):
    from repro.assembler import decode_program, encode_program

    program, machine = pair
    image = encode_program(program, machine)
    decoded = decode_program(image, machine)
    assert len(decoded.instructions) == len(program.instructions)
    for original, recovered in zip(
        program.instructions, decoded.instructions
    ):
        assert len(original.ops) == len(recovered.ops)
        for a, b in zip(original.ops, recovered.ops):
            assert (a.unit, a.op_name, a.destination, a.sources) == (
                b.unit,
                b.op_name,
                b.destination,
                b.sources,
            )
        assert original.transfers == recovered.transfers
        if original.control is None:
            assert recovered.control is None
        else:
            assert recovered.control.kind == original.control.kind


# ----------------------------------------------------------------------
# Clique budget: singleton top-up keeps every node covered
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(parallelism_rows(), st.integers(1, 4))
def test_clique_budget_still_covers_every_node(rows, budget):
    cliques = generate_maximal_clique_masks(rows, max_cliques=budget)
    assert _covered(cliques) == mask_of(rows)
    reference = _brute_force_maximal_cliques(rows)
    for clique in cliques:
        # Every returned group is a genuine clique, and is either one of
        # the true maximal cliques or a singleton top-up.
        assert _is_clique(rows, clique)
        assert clique in reference or len(bits(clique)) == 1


def test_tiny_budget_tops_up_with_singletons():
    # A 6-node path graph (i parallel with i+1 only) has 5 maximal
    # 2-cliques; budget 1 keeps one of them and must cover the other
    # four nodes with singletons.
    size = 6
    rows = {node: 0 for node in range(size)}
    for i in range(size - 1):
        rows[i] |= 1 << (i + 1)
        rows[i + 1] |= 1 << i
    cliques = generate_maximal_clique_masks(rows, max_cliques=1)
    assert _covered(cliques) == mask_of(range(size))
    pairs = [c for c in cliques if len(bits(c)) == 2]
    singletons = [c for c in cliques if len(bits(c)) == 1]
    assert len(pairs) == 1
    assert len(singletons) == size - 2
    unbudgeted = set(generate_maximal_clique_masks(rows))
    assert unbudgeted == _brute_force_maximal_cliques(rows)
