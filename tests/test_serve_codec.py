"""The block-solution codec: serialize, rebuild, stay bit-identical.

The codec (``repro/block-solution/v1``) persists only the covering
search's *outputs* — the chosen assignment, the task graph's tasks, and
the schedule — and rebuilds the deterministic parts (the Split-Node DAG)
from the ``(dag, machine)`` pair the cache key pins.  These tests prove
the round trip through JSON text reproduces the schedule and task graph
exactly, survives the independent translation validator, and that every
tampering of the document is rejected with :class:`CodecError` rather
than decoded into a wrong solution.
"""

from __future__ import annotations

import json

import pytest

from repro.covering.engine import generate_block_solution
from repro.serve import CODEC_FORMAT, CodecError, solution_from_dict, solution_to_dict
from repro.verify import verify_solution

from conftest import build_fig2_dag, build_fig6_dag, build_wide_dag


def roundtrip(dag, machine, pin_value=None):
    solution = generate_block_solution(dag, machine, pin_value=pin_value)
    document = solution_to_dict(solution)
    # Through actual JSON text: what the on-disk cache stores.
    decoded = solution_from_dict(
        json.loads(json.dumps(document)), dag, machine
    )
    return solution, decoded


def assert_identical(solution, decoded):
    assert [sorted(w) for w in decoded.schedule] == [
        sorted(w) for w in solution.schedule
    ]
    assert sorted(decoded.graph.tasks) == sorted(solution.graph.tasks)
    for task_id, task in solution.graph.tasks.items():
        other = decoded.graph.tasks[task_id]
        assert other.kind == task.kind
        assert other.reads == task.reads
        assert other.dest_storage == task.dest_storage
        assert other.unit == task.unit
        assert other.op_name == task.op_name
        assert other.bus == task.bus
        assert other.is_spill == task.is_spill
        assert other.is_reload == task.is_reload
    assert decoded.spill_count == solution.spill_count
    assert decoded.reload_count == solution.reload_count
    assert decoded.register_estimate == solution.register_estimate
    assert decoded.graph.pinned == solution.graph.pinned
    assert decoded.graph.condition_read == solution.graph.condition_read


class TestRoundTrip:
    def test_fig2_example(self, arch1):
        solution, decoded = roundtrip(build_fig2_dag(), arch1)
        assert_identical(solution, decoded)
        decoded.validate()

    def test_fig6_example(self, arch_fig6):
        solution, decoded = roundtrip(build_fig6_dag(), arch_fig6)
        assert_identical(solution, decoded)

    @pytest.mark.parametrize(
        "kernel",
        ["bitmask", pytest.param("reference", marks=pytest.mark.reference_kernel)],
    )
    def test_both_clique_kernels(self, arch1, kernel):
        # "reference": solved by the test-only oracle swapped in for the
        # production covering loop.
        solution, decoded = roundtrip(build_wide_dag(3), arch1)
        assert_identical(solution, decoded)

    def test_spilling_block(self, arch1_small):
        # Small register files force spills; spill/reload tasks carry
        # the extra fields (store_symbol, is_spill, extra_after).
        solution, decoded = roundtrip(build_wide_dag(4), arch1_small)
        assert solution.spill_count > 0
        assert_identical(solution, decoded)

    def test_consumer_index_survives_round_trip(self, arch1_small):
        solution, decoded = roundtrip(build_wide_dag(4), arch1_small)
        assert solution.spill_count > 0
        decoded.graph.validate()  # index == full scan of the reads
        for task_id in solution.graph.task_ids():
            assert decoded.graph.consumers_of(
                task_id
            ) == solution.graph.consumers_of(task_id)

    def test_pinned_block(self, arch_cf):
        from repro.ir import BlockDAG, Opcode

        dag = BlockDAG()
        a, b = dag.var("a"), dag.var("b")
        diff = dag.operation(Opcode.SUB, (a, b))
        dag.store("d", diff)
        # Pin the difference as a branch condition would be.
        solution, decoded = roundtrip(dag, arch_cf, pin_value=diff)
        assert_identical(solution, decoded)
        assert decoded.graph.condition_read == solution.graph.condition_read

    def test_decoded_passes_translation_validator(self, arch1):
        _, decoded = roundtrip(build_wide_dag(3), arch1)
        report = verify_solution(decoded)
        assert report.ok, [v.describe() for v in report.violations]


class TestRejection:
    def _document(self, arch):
        dag = build_fig2_dag()
        solution = generate_block_solution(dag, arch)
        return dag, json.loads(json.dumps(solution_to_dict(solution)))

    def test_format_stamp_checked(self, arch1):
        dag, document = self._document(arch1)
        document["format"] = "repro/block-solution/v999"
        with pytest.raises(CodecError):
            solution_from_dict(document, dag, arch1)

    def test_not_an_object(self, arch1):
        with pytest.raises(CodecError):
            solution_from_dict(["nope"], build_fig2_dag(), arch1)

    def test_schedule_referencing_unknown_task(self, arch1):
        dag, document = self._document(arch1)
        document["schedule"][0][0] = 999_999
        with pytest.raises(CodecError):
            solution_from_dict(document, dag, arch1)

    def test_dropped_task_fails_validation(self, arch1):
        dag, document = self._document(arch1)
        document["graph"]["tasks"].pop()
        with pytest.raises(CodecError):
            solution_from_dict(document, dag, arch1)

    def test_wrong_machine_rejected(self, arch1, arch_single):
        # The key pins the machine fingerprint, but the codec's own
        # validation is defense in depth against a broken cache.
        dag, document = self._document(arch1)
        with pytest.raises(CodecError):
            solution_from_dict(document, dag, arch_single)

    def test_stamp_constant(self):
        assert CODEC_FORMAT == "repro/block-solution/v1"
