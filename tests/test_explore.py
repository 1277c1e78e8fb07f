"""Unit tests for the exploration service: Pareto dominance, cost
vectors, the artifact validator's negative cases, and mutation
operators — the pieces the end-to-end concurrency test exercises only
on the happy path."""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.artifacts import validate, write_artifact
from repro.explore import (
    EXPLORE_SCHEMA,
    MUTATION_OPERATORS,
    area_proxy,
    build_population,
    candidate_vector,
    default_workloads,
    dominates,
    evaluate_candidate,
    format_explore_table,
    make_payloads,
    mutate_machine,
    pareto_frontier,
    run_explore,
)
from repro.explore.population import load_base_machines
from repro.isdl import example_architecture
from repro.obs.export import snapshot_export


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 1, 1), (2, 2, 2))

    def test_dominance_needs_one_strict_axis(self):
        assert dominates((1, 2, 3), (1, 2, 4))

    def test_identical_vectors_dominate_neither_way(self):
        assert not dominates((1, 2, 3), (1, 2, 3))
        assert not dominates((1.0, 2.0, 3.0), (1, 2, 3))

    def test_tradeoff_is_incomparable(self):
        assert not dominates((1, 9), (9, 1))
        assert not dominates((9, 1), (1, 9))

    def test_axis_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))


class TestParetoFrontier:
    def test_dominated_candidates_drop(self):
        frontier = pareto_frontier(
            {"cheap": (1, 5), "fast": (5, 1), "bad": (6, 6)}
        )
        assert frontier == ["cheap", "fast"]

    def test_exact_ties_both_stay(self):
        frontier = pareto_frontier({"a": (2, 2), "b": (2, 2), "c": (3, 3)})
        assert frontier == ["a", "b"]

    def test_failed_candidates_excluded(self):
        frontier = pareto_frontier({"ok": (9, 9), "broken": None})
        assert frontier == ["ok"]

    def test_all_failed_gives_empty_frontier(self):
        assert pareto_frontier({"a": None, "b": None}) == []

    def test_order_independent_of_insertion(self):
        vectors = {"z": (1, 2), "a": (2, 1), "m": (1, 2)}
        reversed_vectors = dict(reversed(list(vectors.items())))
        assert pareto_frontier(vectors) == pareto_frontier(reversed_vectors)
        assert pareto_frontier(vectors) == ["m", "z", "a"]


class TestCandidateVector:
    def test_failure_free_candidate_has_vector(self):
        record = {
            "failures": 0,
            "area": 100,
            "metrics": {"instructions": 40, "gap": 3},
        }
        assert candidate_vector(record) == (100, 40, 3)

    def test_failed_candidate_has_none(self):
        record = {"failures": 2, "area": 100, "metrics": None}
        assert candidate_vector(record) is None


class TestMutationOperators:
    def test_registry_order_is_stable(self):
        names = [name for name, _operator in MUTATION_OPERATORS]
        assert names == [
            "scale_register_files",
            "drop_unit",
            "clone_unit",
            "slow_multipliers",
            "split_bus",
            "shortcut_bus",
            "add_never_constraint",
        ]

    def test_mutants_validate_and_differ(self):
        base = example_architecture(4)
        base_text = area_proxy(base)
        rng = random.Random(5)
        for _ in range(20):
            mutation = mutate_machine(rng, base)
            assert mutation is not None
            op_name, mutated = mutation
            assert op_name in dict(MUTATION_OPERATORS)
            mutated.validate()
            assert base_text == area_proxy(base)  # input never mutated

    def test_clone_unit_raises_area(self):
        base = example_architecture(4)
        rng = random.Random(0)
        clone = dict(MUTATION_OPERATORS)["clone_unit"](rng, base)
        assert clone is not None
        assert area_proxy(clone) > area_proxy(base)
        assert len(clone.units) == len(base.units) + 1

    def test_population_respects_machgen_share_extremes(self):
        bases = [example_architecture(4)]
        all_gen = build_population(
            seed=2, size=6, bases=bases, machgen_share=1.0
        )
        kinds = {c.origin.split(":")[0] for c in all_gen[1:]}
        assert kinds == {"machgen"}
        no_gen = build_population(
            seed=2, size=6, bases=bases, machgen_share=0.0
        )
        kinds = {c.origin.split(":")[0] for c in no_gen[1:]}
        assert kinds == {"mutant"}


@pytest.fixture(scope="module")
def tiny_payload():
    payload, _timing = run_explore(
        seed=1,
        population=3,
        workers=0,
        bases=load_base_machines()[:2],
        workloads=default_workloads(None)[:2],
    )
    return payload


class TestArtifact:
    def test_tiny_run_validates(self, tiny_payload):
        validate(tiny_payload, EXPLORE_SCHEMA)
        assert tiny_payload["totals"]["candidates"] == 3
        assert tiny_payload["totals"]["frontier"] >= 1

    def test_report_bytes_round_trip(self, tiny_payload, tmp_path):
        write_artifact(tmp_path / "BENCH_explore.json", tiny_payload)
        raw = (tmp_path / "BENCH_explore.json").read_bytes()
        assert raw.endswith(b"\n")
        assert json.loads(raw.decode("utf-8")) == tiny_payload

    def test_write_validates_first(self, tiny_payload, tmp_path):
        bad = copy.deepcopy(tiny_payload)
        bad["schema"] = "repro/bench-explore/v0"
        target = tmp_path / "BENCH_explore.json"
        with pytest.raises(ValueError):
            write_artifact(target, bad)
        assert not target.exists()
        write_artifact(target, tiny_payload)
        assert target.read_text() == (
            json.dumps(tiny_payload, indent=2, sort_keys=True) + "\n"
        )

    def test_table_renders(self, tiny_payload):
        table = format_explore_table(tiny_payload)
        assert "frontier holds" in table
        for member in tiny_payload["frontier"]:
            assert member["name"] in table

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.pop("candidates"),
            lambda p: p["candidates"].append(dict(p["candidates"][0])),
            lambda p: p["meta"].update(axes=["area"]),
            lambda p: p["meta"].update(seed="zero"),
            lambda p: p["candidates"][0]["metrics"].update(instructions=-1),
            lambda p: p["candidates"][0]["workloads"][0].update(
                status="maybe"
            ),
            lambda p: p["totals"].update(candidates=99),
            lambda p: p["frontier"].append({"name": "ghost"}),
            lambda p: p["frontier"][0].pop("isdl"),
        ],
        ids=[
            "no-candidates",
            "duplicate-name",
            "wrong-axes",
            "seed-not-int",
            "negative-instructions",
            "bad-status",
            "totals-mismatch",
            "unknown-frontier-member",
            "frontier-missing-isdl",
        ],
    )
    def test_corrupt_payload_rejected(self, tiny_payload, corrupt):
        payload = copy.deepcopy(tiny_payload)
        corrupt(payload)
        with pytest.raises(ValueError):
            validate(payload, EXPLORE_SCHEMA)

    def test_dominated_frontier_member_rejected(self, tiny_payload):
        payload = copy.deepcopy(tiny_payload)
        member = copy.deepcopy(payload["frontier"][0])
        donor = next(
            record
            for record in payload["candidates"]
            if record["name"] != member["name"] and not record["failures"]
        )
        # Forge a frontier entry that the real first member dominates.
        member["name"] = donor["name"]
        member["area"] = payload["frontier"][0]["area"] + 1
        member["instructions"] = payload["frontier"][0]["instructions"] + 1
        member["gap"] = payload["frontier"][0]["gap"] + 1
        donor["frontier"] = True
        donor["failures"] = 0
        payload["frontier"].append(member)
        payload["totals"]["frontier"] += 1
        with pytest.raises(ValueError, match="dominated"):
            validate(payload, EXPLORE_SCHEMA)

    def test_failed_member_rejected_from_frontier(self, tiny_payload):
        payload = copy.deepcopy(tiny_payload)
        name = payload["frontier"][0]["name"]
        record = next(
            r for r in payload["candidates"] if r["name"] == name
        )
        record["failures"] = 1
        with pytest.raises(ValueError, match="cannot be on the frontier"):
            validate(payload, EXPLORE_SCHEMA)


class TestEvaluation:
    def test_coverage_failure_is_a_data_point(self):
        # A one-register machine cannot issue binary operations.
        broken = example_architecture(1)
        payloads = make_payloads(
            build_population(seed=0, size=0, bases=[]) or [],
            default_workloads(None)[:1],
        )
        assert payloads == []  # empty population -> no payloads
        from repro.isdl.writer import machine_to_isdl

        result = evaluate_candidate(
            {
                "name": "arch1_r1",
                "isdl": machine_to_isdl(broken),
                "workloads": [
                    {"name": name, "source": source}
                    for name, source in default_workloads(None)[:1]
                ],
            }
        )
        (record,) = result["workloads"]
        assert record["status"] == "coverage_error"
        assert record["metrics"] is None
        assert record["error"]

    def test_ok_workload_reports_quality_metrics(self):
        from repro.isdl.writer import machine_to_isdl

        machine = example_architecture(4)
        result = evaluate_candidate(
            {
                "name": "arch1_r4",
                "isdl": machine_to_isdl(machine),
                "workloads": [
                    {"name": name, "source": source}
                    for name, source in default_workloads(None)[:1]
                ],
            }
        )
        (record,) = result["workloads"]
        assert record["status"] == "ok"
        metrics = record["metrics"]
        assert metrics["instructions"] > 0
        assert metrics["cycles"] >= metrics["lower_bound"]
        assert metrics["gap"] == metrics["cycles"] - metrics["lower_bound"]
        assert 0.0 < metrics["ipc"] <= 4.0
        for fraction in metrics["utilization"].values():
            assert 0.0 <= fraction <= 1.0


@pytest.mark.slow
def test_smoke_population_totals():
    # The seed-0, 12-machine exploration CI's explore-smoke job runs.
    payload, timing = run_explore(seed=0, population=12, workers=0)
    totals = payload["totals"]
    assert (
        totals["candidates"], totals["frontier"], totals["workload_failures"]
    ) == (12, 5, 7)
    export = snapshot_export(timing["obs"])
    counters = export["counters"]
    assert (
        counters["obs.candidates_total"],
        counters["obs.workloads_total"],
        counters["obs.workloads_ok"],
        counters["obs.workloads_failed"],
    ) == (12, 84, 77, 7)
    histograms = export["histograms"]
    assert [
        (histograms[name]["count"], histograms[name]["total"])
        for name in ("obs.request_instructions", "obs.request_spills")
    ] == [(77, 1425), (77, 72)]
    assert export["gauges"]["obs.frontier_size"] == 5.0
