"""One checker for every ``repro/*/v1`` JSON artifact.

Every versioned JSON document the repo writes — the ``repro tables``
and ``repro explore`` reports, the service reports and exports, the
observability artifacts — is declared once in :data:`SCHEMAS`: its
**shape**, built from the spec forms below, and a **rules** function
for the cross-field invariants a shape cannot state (``gap ==
heuristic - optimal``, frontier non-dominance, recomputed quantiles,
...).  Three functions serve every caller:

- :func:`validate` dispatches on ``payload["schema"]``;
- :func:`write_artifact` validates, then writes canonical JSON
  (``indent=2, sort_keys=True``, trailing newline) to a temporary file
  that replaces the target in one rename;
- :func:`read_artifact` loads and validates one file.

Malformed input is always a :class:`ValueError` naming the JSON path of
the first offending value (``$.entries[0].cpu_seconds: expected a
non-negative number, got -1``): the walker checks a value's type before
it descends into it, so no input can crash the check itself.

Out of scope: the block codec and cache envelopes, which decode and
cross-check against the cache key, and Chrome traces
(:func:`repro.telemetry.trace.validate_trace`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.explain.journal import DECISION_KINDS
from repro.explain.report import EXPLAIN_SCHEMA
from repro.explore.evaluate import WORKLOAD_STATUSES
from repro.explore.pareto import dominates
from repro.explore.service import AXES, EXPLORE_SCHEMA
from repro.obs.events import EVENT_KINDS, EVENTS_SCHEMA
from repro.obs.export import METRICS_SCHEMA, QUANTILES
from repro.obs.metrics import METRIC_CATALOG, histogram_quantile
from repro.obs.recorder import FLIGHT_SCHEMA, FLIGHT_SUMMARY_SCHEMA
from repro.optimal.bench import (
    OPTIMAL_BENCH_SCHEMA,
    SOLVER_STAT_KEYS,
    summarize_optimal_bench,
)
from repro.serve.service import CACHE_COUNTERS, JOB_STATUSES, SERVE_SCHEMA

# -- spec forms ---------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A scalar of ``kind`` ``str``/``int``/``num``/``bool``/``any``;
    numbers may be bounded (inclusive), strings non-empty or prefixed.
    ``int`` and ``num`` never accept a bool."""

    kind: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    nonempty: bool = False
    prefix: str = ""


@dataclass(frozen=True)
class OneOf:
    """A literal or enum; ``what`` names the set in errors."""

    values: Tuple[Any, ...]
    what: str = "value"


@dataclass(frozen=True)
class Obj:
    """An object with ``required`` and ``optional`` keys; other keys
    pass unless ``closed``."""

    required: Mapping[str, Any]
    optional: Mapping[str, Any] = field(default_factory=dict)
    closed: bool = False


@dataclass(frozen=True)
class MapOf:
    """An object with uniform ``values`` (and ``keys``)."""

    values: Any
    keys: Any = Leaf("str")
    nonempty: bool = False


@dataclass(frozen=True)
class ListOf:
    """A list of ``item``."""

    item: Any
    nonempty: bool = False


@dataclass(frozen=True)
class Nullable:
    """``null`` or ``spec``."""

    spec: Any


Spec = Union[Leaf, OneOf, Obj, MapOf, ListOf, Nullable]

_LEAF_TYPES = {
    "str": ((str,), "string"),
    "int": ((int,), "int"),
    "num": ((int, float), "number"),
    "bool": ((bool,), "bool"),
}


def _show(value: Any) -> str:
    try:
        text = json.dumps(value, sort_keys=True)
    except (TypeError, ValueError):
        text = type(value).__name__
    return text if len(text) <= 40 else text[:37] + "..."


def _fail(path: str, message: str) -> None:
    raise ValueError(f"{path}: {message}")


def _describe(spec: Leaf) -> str:
    noun = ("non-empty " if spec.nonempty else "") + _LEAF_TYPES[spec.kind][1]
    if spec.prefix:
        noun += f" starting with {spec.prefix!r}"
    if spec.lo == 0 and spec.hi is None:
        noun = "non-negative " + noun
    elif spec.lo is not None or spec.hi is not None:
        noun += f" in [{spec.lo}, {spec.hi}]"
    return ("an " if noun[0] in "aeiou" else "a ") + noun


def _check_leaf(spec: Leaf, value: Any, path: str) -> None:
    if spec.kind == "any":
        return
    ok = isinstance(value, _LEAF_TYPES[spec.kind][0]) and (
        spec.kind == "bool" or not isinstance(value, bool)
    )
    if ok and spec.kind == "str":
        ok = value.startswith(spec.prefix) and bool(value or not spec.nonempty)
    elif ok and spec.kind != "bool":
        ok = (spec.lo is None or value >= spec.lo) and (
            spec.hi is None or value <= spec.hi
        )
    if not ok:
        _fail(path, f"expected {_describe(spec)}, got {_show(value)}")


def check(spec: Spec, value: Any, path: str = "$") -> None:
    """Raise :class:`ValueError` unless ``value`` matches ``spec``.

    The one walker: each form checks the value's type before looking
    inside it; the first mismatch is reported with its JSON path.
    """
    if isinstance(spec, Nullable):
        if value is None:
            return
        spec = spec.spec
    if isinstance(spec, Leaf):
        _check_leaf(spec, value, path)
    elif isinstance(spec, OneOf):
        if not any(
            type(value) is type(option) and value == option
            for option in spec.values
        ):
            _fail(path, f"unknown {spec.what} {_show(value)}")
    elif isinstance(spec, ListOf):
        if not isinstance(value, list):
            _fail(path, f"expected a list, got {_show(value)}")
        if spec.nonempty and not value:
            _fail(path, "expected a non-empty list")
        for index, item in enumerate(value):
            check(spec.item, item, f"{path}[{index}]")
    elif not isinstance(value, dict):
        _fail(path, f"expected an object, got {_show(value)}")
    elif isinstance(spec, MapOf):
        if spec.nonempty and not value:
            _fail(path, "expected a non-empty object")
        for key, item in value.items():
            check(spec.keys, key, path)
            check(spec.values, item, _key_path(path, key))
    else:
        for key, sub in spec.required.items():
            if key not in value:
                _fail(path, f"missing key {key!r}")
            check(sub, value[key], _key_path(path, key))
        for key, sub in spec.optional.items():
            if key in value:
                check(sub, value[key], _key_path(path, key))
        extra = set(value) - set(spec.required) - set(spec.optional)
        if spec.closed and extra:
            _fail(path, f"unexpected key(s) {sorted(map(str, extra))}")


def _key_path(path: str, key: Any) -> str:
    if isinstance(key, str) and key.isidentifier():
        return f"{path}.{key}"
    return f"{path}[{_show(key)}]"


# -- shapes -------------------------------------------------------------

ANY = Leaf("any")
TEXT = Leaf("str")
NAME = Leaf("str", nonempty=True)
INT = Leaf("int")
COUNT = Leaf("int", lo=0)
NUMBER = Leaf("num")
MEASURE = Leaf("num", lo=0)  # seconds, rates, ratios
FRACTION = Leaf("num", lo=0, hi=1)
BOOL = Leaf("bool")
OBJECT = MapOf(ANY)
REQUEST_ID = Leaf("str", prefix="req-")
DECISION_KIND = OneOf(tuple(sorted(DECISION_KINDS)), "decision kind")


def _envelope(schema: str, required: Mapping[str, Any], **extra: Any) -> Obj:
    """An artifact's top-level object: its stamp plus ``required``."""
    return Obj({"schema": OneOf((schema,), "schema"), **required}, **extra)


OPTIMAL = _envelope(OPTIMAL_BENCH_SCHEMA, {
    "entries": ListOf(Obj({
        "workload": NAME, "machine": NAME,
        **dict.fromkeys((
            "registers", "heuristic_cost", "optimal_cost", "gap",
            "heuristic_spills",
        ), INT),
        "proven": BOOL, "spill_free": BOOL, "cpu_seconds": MEASURE,
        "solver": Obj({
            **dict.fromkeys(SOLVER_STAT_KEYS, INT), "budget_exhausted": BOOL,
        }),
    }), nonempty=True),
    "summary": Obj(dict.fromkeys((
        "blocks", "proven", "improved", "gap_cycles", "budget_exhausted",
    ), INT)),
})

EXPLORE = _envelope(EXPLORE_SCHEMA, {
    "meta": Obj({
        **dict.fromkeys(("seed", "population", "budget"), INT),
        "axes": OneOf((list(AXES),), "axes"),
        "workloads": ListOf(TEXT, nonempty=True),
    }),
    "candidates": ListOf(Obj({
        "name": NAME, "frontier": BOOL,
        **dict.fromkeys(("area", "failures", "workloads_ok"), COUNT),
        "metrics": Obj(dict.fromkeys(
            ("instructions", "spills", "cycles", "gap"), COUNT
        )),
        "workloads": ListOf(Obj({
            "status": OneOf(WORKLOAD_STATUSES, "workload status"),
        })),
    }), nonempty=True),
    "frontier": ListOf(Obj({
        "name": NAME, "isdl": NAME,
        **dict.fromkeys(("area", "instructions", "gap"), COUNT),
    })),
    "totals": Obj(dict.fromkeys((
        "candidates", "frontier", "workload_failures", "workloads_ok",
    ), COUNT)),
})

METRICS = _envelope(METRICS_SCHEMA, {
    "volatile_included": BOOL,
    "counters": MapOf(COUNT),
    "gauges": MapOf(Nullable(NUMBER)),
    "histograms": MapOf(Obj({
        "bounds": ListOf(NUMBER), "counts": ListOf(COUNT), "count": COUNT,
        "total": NUMBER, "min": Nullable(NUMBER), "max": Nullable(NUMBER),
        **{label: NUMBER for label, _ in QUANTILES},
    })),
})

BATCH = _envelope(
    SERVE_SCHEMA,
    {
        "results": ListOf(Obj({
            "job_id": TEXT,
            "status": OneOf(JOB_STATUSES, "status"),
            "cache": Obj(dict.fromkeys(CACHE_COUNTERS, COUNT)),
        })),
        "totals": Obj({
            **dict.fromkeys(
                ("jobs", "ok", "structured_failures", "errors"), COUNT
            ),
            "wall_s": MEASURE, "jobs_per_second": MEASURE,
            "cache_hit_rate": FRACTION,
        }),
    },
    optional={"obs": Nullable(METRICS)},
)

EXPLAIN = _envelope(EXPLAIN_SCHEMA, {
    "meta": OBJECT,
    "decision_counts": MapOf(COUNT, keys=DECISION_KIND),
    "blocks": ListOf(Obj({
        "name": Nullable(TEXT),
        "decisions": ListOf(Obj({
            "seq": INT, "kind": DECISION_KIND, "data": OBJECT,
            **dict.fromkeys(("block", "attempt", "strategy"), ANY),
        }, closed=True)),
        "quality": Nullable(Obj(dict.fromkeys((
            "cycles", "tasks", "critical_path", "resource_bound",
            "lower_bound", "schedule_overhead", "ipc", "slot_utilization",
            "overhead", "spills", "reloads", "register_estimate", "optimal",
        ), ANY))),
        "timeline": Nullable(ListOf(Obj({"cycle": ANY, "slots": ANY}))),
    })),
})

EVENT = _envelope(EVENTS_SCHEMA, {"event": OneOf(EVENT_KINDS, "event kind")})

FLIGHT = _envelope(FLIGHT_SCHEMA, {
    "reason": OneOf(("slow", "failed"), "dump reason"),
    "request_id": REQUEST_ID,
    "threshold_s": Nullable(NUMBER),
    "wall_s": MEASURE,
    "request": ANY,
    "result": Obj({"status": OneOf(JOB_STATUSES, "status")}),
    "metrics": OBJECT,
    "telemetry": Nullable(OBJECT),
    "trace": Nullable(Obj({"traceEvents": ListOf(ANY)})),
    "journal": Nullable(ListOf(ANY)),
})

_RING = ListOf(Obj({
    "request_id": REQUEST_ID, "job_id": Nullable(TEXT),
    "status": OneOf(JOB_STATUSES, "status"), "wall_s": MEASURE,
}))

FLIGHT_SUMMARY = _envelope(FLIGHT_SUMMARY_SCHEMA, {
    "dumps": COUNT, "threshold_s": Nullable(NUMBER),
    "last": _RING, "slowest": _RING,
})

#: What a record adds once its status says it succeeded or failed.
_OK_RESULT = Obj({
    "assembly": TEXT, "metrics": Obj({"instructions": COUNT}),
    "schedules": OBJECT,
})
_OK_WORKLOAD = Obj({"metrics": OBJECT})
_FAILED = Obj({"error": TEXT})
_REQUEST_EVENT = Obj(
    {
        "request_id": REQUEST_ID,
        "status": OneOf(JOB_STATUSES + ("bad_request",), "status"),
        "job_id": Nullable(TEXT), "machine": Nullable(TEXT),
        "wall_s": Nullable(MEASURE), "metrics": OBJECT,
        "error": Nullable(TEXT),
    },
    optional={
        "telemetry": Obj({"spans": ListOf(Obj({"path": TEXT}))}),
        "journal_entries": COUNT, "flight_artifact": NAME,
    },
)

# -- cross-field rules (the shape already holds) -------------------------


def _optimal_rules(payload: Dict[str, Any]) -> None:
    for position, entry in enumerate(payload["entries"]):
        where = f"$.entries[{position}]"
        if entry["gap"] != entry["heuristic_cost"] - entry["optimal_cost"]:
            _fail(where, f"gap {entry['gap']} != heuristic "
                  f"{entry['heuristic_cost']} - optimal "
                  f"{entry['optimal_cost']}")
        if entry["gap"] < 0:
            _fail(where, "negative gap — the solver never reports a cost "
                  "worse than its heuristic seed")
        if entry["proven"] and entry["solver"]["budget_exhausted"]:
            _fail(where, "'proven' with an exhausted budget is a "
                  "contradiction")
    expected = summarize_optimal_bench(payload["entries"])
    if payload["summary"] != expected:
        _fail("$.summary", f"does not match the entries (expect {expected})")


def _explore_rules(payload: Dict[str, Any]) -> None:
    by_name: Dict[str, Dict[str, Any]] = {}
    for position, record in enumerate(payload["candidates"]):
        where = f"$.candidates[{position}]"
        if record["name"] in by_name:
            _fail(where, f"duplicate candidate name {record['name']!r}")
        by_name[record["name"]] = record
        if len(record["workloads"]) != len(payload["meta"]["workloads"]):
            _fail(where, "needs one workload record per suite member")
        for index, workload in enumerate(record["workloads"]):
            ok = workload["status"] == "ok"
            check(_OK_WORKLOAD if ok else _FAILED, workload,
                  f"{where}.workloads[{index}]")
    vectors = []
    for position, member in enumerate(payload["frontier"]):
        where, name = f"$.frontier[{position}]", member["name"]
        record = by_name.get(name)
        if record is None:
            _fail(where, f"unknown candidate {name!r}")
        if record["failures"]:
            _fail(where, f"{name!r} failed {record['failures']} workload(s) "
                  f"and cannot be on the frontier")
        if not record["frontier"]:
            _fail(where, f"{name!r} not flagged as frontier")
        vectors.append(
            (name, (member["area"], member["instructions"], member["gap"]))
        )
    for name, vector in vectors:
        for other_name, other in vectors:
            if other_name != name and dominates(other, vector):
                _fail("$.frontier", f"member {name!r} is dominated by "
                      f"{other_name!r} — not a Pareto frontier")
    for key in ("candidates", "frontier"):
        if payload["totals"][key] != len(payload[key]):
            _fail(f"$.totals.{key}", f"disagrees with the {key} list")


def _metrics_rules(payload: Dict[str, Any], path: str = "$") -> None:
    sections = {
        kind: payload[f"{kind}s"] for kind in ("counter", "gauge", "histogram")
    }
    seen = set().union(*sections.values())
    expected = {
        name for name, spec in METRIC_CATALOG.items()
        if payload["volatile_included"] or not spec.volatile
    }
    if seen != expected:
        _fail(path, f"metric names disagree with the catalog (missing "
              f"{sorted(expected - seen)}, unknown {sorted(seen - expected)})")
    for kind, section in sections.items():
        for name in section:
            if METRIC_CATALOG[name].kind != kind:
                _fail(path, f"{name!r} exported as {kind} but is "
                      f"{METRIC_CATALOG[name].kind}")
    for name, entry in payload["histograms"].items():
        where = _key_path(f"{path}.histograms", name)
        buckets = list(METRIC_CATALOG[name].buckets or ())
        counts = entry["counts"]
        if entry["bounds"] != buckets:
            _fail(where, "bounds disagree with the catalog")
        if len(counts) != len(buckets) + 1:
            _fail(where, "malformed bucket counts")
        if entry["count"] != sum(counts):
            _fail(where, "'count' disagrees with the bucket sum")
        if entry["count"] == 0 and (
            entry["min"] is not None or entry["max"] is not None
        ):
            _fail(where, "empty histogram carries min/max")
        for label, q in QUANTILES:
            want = histogram_quantile(buckets, counts, q, entry["max"])
            if entry[label] != want:
                _fail(where, f"{label} is {entry[label]!r}, bucket "
                      f"arithmetic says {want!r}")


def _batch_rules(payload: Dict[str, Any]) -> None:
    for position, result in enumerate(payload["results"]):
        ok = result["status"] == "ok"
        check(_OK_RESULT if ok else _FAILED, result, f"$.results[{position}]")
    if payload["totals"]["jobs"] != len(payload["results"]):
        _fail("$.totals.jobs", "disagrees with the result count")
    if payload.get("obs") is not None:
        _metrics_rules(payload["obs"], "$.obs")


def _explain_rules(payload: Dict[str, Any]) -> None:
    # Seqs are globally unique and strictly increasing within each block
    # (blocks compile sequentially, so they never interleave).
    seen = set()
    for position, block in enumerate(payload["blocks"]):
        last = -1
        for index, entry in enumerate(block["decisions"]):
            where = f"$.blocks[{position}].decisions[{index}]"
            if entry["block"] != block["name"]:
                _fail(where, f"filed under block {block['name']!r} but "
                      f"scoped to {entry['block']!r}")
            if entry["seq"] <= last or entry["seq"] in seen:
                _fail(where, f"seq {entry['seq']} is not strictly "
                      f"increasing and unique")
            last = entry["seq"]
            seen.add(last)
    counted = sum(payload["decision_counts"].values())
    if counted != len(seen):
        _fail("$.decision_counts",
              f"total {counted} != {len(seen)} journaled entries")


def _event_rules(payload: Dict[str, Any]) -> None:
    if payload["event"] == "request":
        check(_REQUEST_EVENT, payload)
        if payload["status"] in ("error", "bad_request"):
            check(_FAILED, payload)


def _flight_rules(payload: Dict[str, Any]) -> None:
    if payload["reason"] == "slow" and payload["threshold_s"] is None:
        _fail("$.threshold_s", "a 'slow' dump must record its threshold")


Rules = Optional[Callable[[Dict[str, Any]], None]]

#: Every in-scope stamp: its shape and its cross-field rules.
SCHEMAS: Dict[str, Tuple[Spec, Rules]] = {
    OPTIMAL_BENCH_SCHEMA: (OPTIMAL, _optimal_rules),
    EXPLORE_SCHEMA: (EXPLORE, _explore_rules),
    SERVE_SCHEMA: (BATCH, _batch_rules),
    EXPLAIN_SCHEMA: (EXPLAIN, _explain_rules),
    METRICS_SCHEMA: (METRICS, _metrics_rules),
    EVENTS_SCHEMA: (EVENT, _event_rules),
    FLIGHT_SCHEMA: (FLIGHT, _flight_rules),
    FLIGHT_SUMMARY_SCHEMA: (FLIGHT_SUMMARY, None),
}

# -- the three entry points ---------------------------------------------


def validate(payload: Any, schema: Optional[str] = None) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a well-formed
    artifact of the stamp it carries (which must be ``schema``, when
    given)."""
    if not isinstance(payload, dict):
        _fail("$", f"expected an object, got {_show(payload)}")
    stamp = payload.get("schema")
    if schema is not None and stamp != schema:
        _fail("$.schema", f"expected {schema!r}, got {_show(stamp)}")
    if not isinstance(stamp, str) or stamp not in SCHEMAS:
        _fail("$.schema", f"unknown artifact schema {_show(stamp)}")
    shape, rules = SCHEMAS[stamp]
    check(shape, payload)
    if rules is not None:
        rules(payload)


def write_artifact(path: Union[str, Path], payload: Dict[str, Any]) -> None:
    """Validate ``payload``, then atomically write its canonical JSON."""
    validate(payload)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        tmp.write_bytes(text.encode("utf-8"))
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_artifact(
    path: Union[str, Path], schema: Optional[str] = None
) -> Dict[str, Any]:
    """Load and validate one artifact file.

    An unreadable file raises :class:`OSError`; anything that is not a
    well-formed artifact (of ``schema``, when given) raises
    :class:`ValueError` prefixed with the file name.
    """
    data = Path(path).read_bytes()
    try:
        payload = json.loads(data)
        validate(payload, schema)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
    return payload
