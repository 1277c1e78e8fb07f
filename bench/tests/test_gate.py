"""The correctness gate trips on corrupted output; batch references are
compiled before a pass, not in it."""

from __future__ import annotations

import repro.asmgen.program as asm_program

from bench import gate
from bench.requests import block_dag, block_function, compile_block, isdl_parser
from bench.runner import Size, prepare, run_pass
from bench.workloads import WORKLOADS


def test_judge_counts_failed_mismatched_and_unchecked_outputs():
    distinct = {
        "a": {"digest": "d-a", "errors": []},
        "b": {"digest": "d-b", "errors": ["b: simulator disagrees"]},
    }
    outputs = [
        ("a", "ok", "d-a"),
        ("a", "ok", "d-corrupt"),
        ("a", "error: boom", None),
        ("b", "ok", "d-b"),
        ("c", "ok", "d-c"),
    ]
    attempted, failed, reasons = gate.judge(outputs, distinct)
    assert (attempted, failed) == (5, 4)
    assert "a: listing differs from the checked one" in reasons
    assert "b: simulator disagrees" in reasons


def test_distinct_record_catches_a_corrupted_program():
    item = WORKLOADS["paper-blocks"].smoke_items[1]
    machine = isdl_parser.parse_machine(item.machine_isdl())
    compiled, image = compile_block(item.source(), item.discard(), machine)
    function = block_function(block_dag(item.source(), item.discard()))
    clean = gate.distinct_record(item.label, function, compiled, image, machine, 1)
    assert clean["errors"] == []
    assert clean["cycles"] > 0 and clean["words"] == len(image.words)
    del compiled.program.instructions[0]
    broken = gate.distinct_record(item.label, function, compiled, image, machine, 1)
    assert broken["errors"]


def test_a_corrupted_listing_fails_the_pass(out_dir, monkeypatch):
    original = asm_program.compile_dag
    calls = []

    def corrupting(dag, machine, *args, **kwargs):
        compiled = original(dag, machine, *args, **kwargs)
        calls.append(1)
        if len(calls) == 5:  # warm-up, round 0 (two items), round 1's second
            compiled.program.instructions.pop(0)
        return compiled

    monkeypatch.setattr(asm_program, "compile_dag", corrupting)
    result = run_pass("paper-blocks", 1, Size(rounds=2), smoke=True)
    assert result["attempted"] == 4
    assert result["failed"] == 1
    assert "listing differs" in result["failures"][0]


def test_a_batch_pass_compiles_no_references(out_dir, monkeypatch):
    # A pass's peak_rss_mb is the largest of its own waited-for children,
    # so the reference compiles (pool children too) must happen elsewhere.
    prepared = out_dir / "prepared"
    prepare("batch-warm", 1, prepared, smoke=True)

    def forbidden(*args, **kwargs):
        raise AssertionError("the pass compiled batch references itself")

    monkeypatch.setattr(gate, "reference_batch", forbidden)
    monkeypatch.setattr(gate, "direct_reference", forbidden)
    result = run_pass("batch-warm", 1, Size(rounds=2), smoke=True, prepared=prepared)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 2 * len(WORKLOADS["batch-warm"].smoke_mix)
    assert {row["cache"]["misses"] for row in result["rows"]} == {0}


def test_clean_passes_match_the_goldens(out_dir):
    result = run_pass("paper-blocks", 2, Size(rounds=1), smoke=True)
    assert result["failed"] == 0
    assert result["schedule_changes"] == 0
    golden = gate.load_golden()
    for label, record in result["distinct"].items():
        assert golden[label] == record["digest"]
