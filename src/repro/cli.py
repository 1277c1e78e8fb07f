"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``machines``
    List the built-in target architectures.
``describe --machine NAME [--json]``
    Print a machine summary and its ISDL-lite source, or a
    machine-readable JSON summary.
``compile FILE --machine NAME [--asm OUT] [--bin OUT] [--no-peephole]
[--optimal] [--optimal-budget N] [--profile] [--trace-out FILE]``
    Compile a minic source file and print the assembly listing; write
    text assembly and/or the binary image on request.  ``--optimal``
    schedules every block with the constraint-solver backend
    (:mod:`repro.optimal`): provably minimal block lengths, each
    schedule certified by the independent validator, with a per-block
    heuristic-vs-optimal summary on stderr.  ``--profile``
    prints a per-phase telemetry report (times + search counters);
    ``--trace-out`` writes a Chrome trace-event JSON file (load it at
    ``chrome://tracing`` or https://ui.perfetto.dev).
``run FILE --machine NAME [--set VAR=VAL ...] [--trace] [--stats]
[--profile] [--trace-out FILE]``
    Compile and execute a minic program on the simulator, printing the
    final variables (cross-checked against the IR interpreter).
``profile FILE --machine NAME [--set VAR=VAL ...] [--json]
[--trace-out FILE]``
    Compile (and simulate) a minic program under a telemetry session and
    print the full profiling report; ``--json`` emits the report as
    machine-readable JSON.
``disasm OBJECT --machine NAME``
    Disassemble an object file written by ``compile --bin``.
``simulate OBJECT --machine NAME [--set VAR=VAL ...] [--trace]``
    Execute an object file on the simulator.
``tables [--table {1,2,both}] [--heuristics-off] [--no-optimal]
[--optimal-budget N] [--json FILE]``
    Regenerate the paper's Table I / Table II.  Each row compiles its
    block once and simulates that program against the IR interpreter
    (the Valid column).  The Optimal column is the constraint solver's
    proven minimum (:mod:`repro.optimal`); a ``*`` marks a row whose
    solve ran out of conflicts.  ``--json`` writes the versioned
    `repro/bench-optimal/v1` report of the printed rows
    (``BENCH_optimal.json``).  Exit 1 when any row reads ``NO`` or is
    starred.
``fuzz [--seed N] [--iterations N] [--time-budget S] [--artifacts DIR]
[--optimal-oracle]``
    Differential fuzzing: random (program, machine, config) triples
    compiled end to end, the simulator checked against the IR
    interpreter, failures minimized and written as reproducer files.
    ``--optimal-oracle`` additionally solves every correct case's
    blocks to optimality and reports heuristic gaps as the
    (non-failing) ``optimality`` outcome.
``fuzz --replay FILE``
    Re-run one reproducer JSON file and report the outcome.
``verify SOURCE --machine SPEC [...] [--machines-dir DIR] [--json]
[--quiet]``
    Compile and certify a program with the independent translation
    validator (:mod:`repro.verify`): every paper invariant of every
    block is re-checked and violations are reported by kind.  Multiple
    ``--machine`` specs and ``--machines-dir`` fan one source out over
    many targets; machines that genuinely cannot cover the program are
    reported as skipped, not violations.
``verify --corpus DIR``
    Certify every fuzz reproducer in ``DIR`` on its own recorded
    machine and config.
``batch [SOURCE ...] [--machine SPEC ...] [--machines-dir DIR]
[--jobs FILE] [--cache-dir DIR] [--workers N] [--validate] [--json FILE]
[--metrics-out FILE]``
    Batch compile service: fan every (source, machine) pair — or an
    explicit JSON job list — across a process pool, warm-started by the
    persistent content-addressed block cache at ``--cache-dir``.
    Prints a per-job summary table; ``--json`` writes the structured
    `repro/serve/v1` report (``-`` for stdout); ``--metrics-out``
    writes the canonical deterministic `repro/metrics/v1` export of
    the fleet metrics folded from the job results (byte-identical for
    any ``--workers``).
``serve [--cache-dir DIR] [--validate] [--metrics-out FILE]
[--events-out FILE] [--flight-dir DIR] [--flight-threshold S]``
    Line-oriented compile service: one JSON job request per stdin line
    (``{"id": ..., "source": "y = a + b;", "machine": "arch1"}``), one
    JSON result per stdout line, every compile backed by the
    persistent block cache.  ``--metrics-out`` exports the stream's
    `repro/metrics/v1` snapshot, ``--events-out`` writes the
    `repro/events/v1` request log, and ``--flight-dir`` arms the
    flight recorder (dump slow/failing requests as self-contained
    artifacts; ``--flight-threshold`` sets the latency bar in seconds).
``metrics FILE [--prom] [--json] [--diff FILE2]``
    Validate and render a `repro/metrics/v1` export: the default
    human-readable table, ``--prom`` Prometheus text exposition,
    ``--json`` the validated payload back out, or ``--diff`` per-metric
    deltas against a second export (exit 1 when they differ).
``explore [--seed N] [--population N] [--workers N] [--budget N]
[--machines-dir DIR] [--corpus DIR] [--cache-dir DIR] [--json FILE]
[--metrics-out FILE]``
    Architecture exploration service (:mod:`repro.explore`): generate a
    seeded population of machine variants (parametric mutants of the
    bundled machines plus fuzz-generator samples), evaluate each
    against the workload suite across a process pool warm-started by
    the persistent block cache, rank by code size / lower-bound gap /
    datapath area, and write the deterministic Pareto frontier artifact
    ``BENCH_explore.json`` (schema `repro/bench-explore/v1`).  With
    ``--budget N`` the frontier's small gapped blocks are re-solved by
    the optimal backend to label heuristic slack vs intrinsic gap.  For
    a fixed seed the artifact is byte-identical for any worker count.
``explain SOURCE --machine SPEC [--json] [--html FILE] [--full]
[--diff SPEC]``
    Compile under a decision journal and report *why* the covering
    search chose each schedule: per-block covering steps with the
    losing cliques and lookahead estimates, beam prunes, transfer-path
    picks, spill-victim rankings, and a schedule quality report
    (achieved length vs. lower bounds, utilization, overheads).
    ``--json`` emits the versioned `repro/explain/v1` report;
    ``--html`` writes a self-contained timeline page; ``--diff``
    re-runs on a second machine and shows the first decision where the
    two searches part ways (exit 1 on divergence).

Machines are named either by a built-in key (``arch1``, ``arch2``,
``fig6``, ``dualbus``, ``mac``, ``single``, ``cf``, ``pipe``) with an
optional ``:R`` register-count suffix (``arch1:2``), or by a path to an
ISDL-lite description file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir.interp import interpret_function
from repro.isdl.builtin_machines import BUILTIN_MACHINES
from repro.isdl.model import Machine
from repro.isdl.parser import parse_machine
from repro.isdl.writer import machine_to_isdl
from repro.optimal import DEFAULT_CONFLICT_BUDGET


def resolve_machine(spec: str) -> Machine:
    """Turn a machine spec (builtin key[:regs] or file path) into a
    validated :class:`Machine`."""
    name, _, registers = spec.partition(":")
    if name in BUILTIN_MACHINES:
        factory = BUILTIN_MACHINES[name]
        if not registers:
            return factory()
        try:
            count = int(registers)
        except ValueError:
            raise ReproError(
                f"machine {spec!r}: the register count after ':' must be "
                f"an integer"
            ) from None
        return factory(count)
    try:
        with open(spec) as handle:
            return parse_machine(handle.read())
    except FileNotFoundError:
        raise ReproError(
            f"unknown machine {spec!r}: not a builtin "
            f"({', '.join(sorted(BUILTIN_MACHINES))}) and no such file"
        ) from None


def _parse_bindings(pairs: List[str]) -> dict:
    environment = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--set expects VAR=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            environment[name] = int(value)
        except ValueError:
            raise ReproError(
                f"--set {pair!r}: the value must be an integer"
            ) from None
    return environment


def _read_source(path: str) -> str:
    """The text of the input file ``path``; an unreadable file is a
    usage error, not a traceback."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        raise ReproError(f"cannot read {path}: {error.strerror}") from None


def _cmd_machines(_args) -> int:
    for key in sorted(BUILTIN_MACHINES):
        machine = BUILTIN_MACHINES[key]()
        units = ", ".join(
            f"{u.name}{{{','.join(op.name for op in u.operations)}}}"
            for u in machine.units
        )
        print(f"{key:8s} {machine.name:16s} {units}")
    return 0


def _cmd_describe(args) -> int:
    machine = resolve_machine(args.machine)
    if args.json:
        import json

        print(json.dumps(machine.summary(), indent=2))
        return 0
    print(machine.describe())
    print()
    print(machine_to_isdl(machine))
    return 0


def _open_session(machine: Machine, source_path: str):
    """A telemetry session annotated with what is being compiled."""
    from repro.telemetry import TelemetrySession

    session = TelemetrySession()
    session.annotate(source=source_path, machine=machine.name)
    return session


def _emit_profile(
    session,
    args,
    as_json: bool = False,
    stream=None,
    show_report: bool = True,
) -> None:
    """Print the session's report and honor ``--trace-out``."""
    import json

    from repro.telemetry import TelemetryReport, chrome_trace, validate_trace

    if show_report:
        report = TelemetryReport.from_session(session)
        if as_json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.describe(), file=stream or sys.stderr)
    if getattr(args, "trace_out", None):
        trace = chrome_trace(session)
        validate_trace(trace)
        with open(args.trace_out, "w") as handle:
            json.dump(trace, handle, indent=1)
        print(f"; wrote trace {args.trace_out}", file=sys.stderr)


def _cmd_compile(args) -> int:
    import contextlib

    from repro.asmgen.program import compile_function
    from repro.assembler.encoder import encode_program
    from repro.assembler.text import program_to_text
    from repro.covering.config import HeuristicConfig
    from repro.telemetry import use_session

    machine = resolve_machine(args.machine)
    source = _read_source(args.source)
    config = HeuristicConfig.default()
    if args.heuristics_off:
        config = HeuristicConfig.heuristics_off()
    profiling = args.profile or args.trace_out
    session = _open_session(machine, args.source) if profiling else None
    scope = use_session(session) if session else contextlib.nullcontext()
    with scope:
        function = compile_source(source)
        compiled = compile_function(
            function,
            machine,
            config,
            peephole=not args.no_peephole,
            cache_dir=args.cache_dir,
            backend="optimal" if args.optimal else "heuristic",
            conflict_budget=args.optimal_budget if args.optimal else None,
        )
        image = (
            encode_program(compiled.program, machine) if args.bin else None
        )
    if session is not None:
        session.annotate(function=function.name)
    print(compiled.program.listing())
    print(
        f"; {compiled.total_instructions} instructions, "
        f"{compiled.total_spills} spills",
        file=sys.stderr,
    )
    if args.optimal:
        for name, block in compiled.blocks.items():
            solve = block.optimal
            if solve is None:
                continue
            status = "proven" if solve.proven else "budget-limited"
            print(
                f"; {name}: optimal {solve.cost} cycles ({status}) "
                f"vs heuristic {solve.heuristic_cost} — "
                f"gap {solve.gap}",
                file=sys.stderr,
            )
    if args.asm:
        with open(args.asm, "w") as handle:
            handle.write(program_to_text(compiled.program))
        print(f"; wrote {args.asm}", file=sys.stderr)
    if args.bin:
        from repro.assembler.objfile import save_object

        blob = save_object(image)
        with open(args.bin, "wb") as handle:
            handle.write(blob)
        print(
            f"; wrote {args.bin} ({len(blob)} bytes: "
            f"{len(image.words)} x {image.word_bits}-bit words + data "
            f"+ symbols)",
            file=sys.stderr,
        )
    if session is not None:
        _emit_profile(session, args, show_report=args.profile)
    return 0


def _cmd_disasm(args) -> int:
    from repro.assembler.encoder import decode_program
    from repro.assembler.objfile import load_object

    machine = resolve_machine(args.machine)
    with open(args.object, "rb") as handle:
        image = load_object(handle.read())
    program = decode_program(image, machine)
    print(program.listing())
    return 0


def _cmd_simulate(args) -> int:
    from repro.assembler.encoder import decode_program
    from repro.assembler.objfile import load_object
    from repro.simulator.executor import run_program

    machine = resolve_machine(args.machine)
    with open(args.object, "rb") as handle:
        image = load_object(handle.read())
    program = decode_program(image, machine)
    environment = _parse_bindings(args.set or [])
    result = run_program(program, machine, environment, trace=args.trace)
    if args.trace:
        for line in result.trace:
            print(line)
    for name in sorted(result.variables):
        print(f"{name} = {result.variables[name]}")
    print(f"; {result.cycles} cycles", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    import contextlib

    from repro.asmgen.program import compile_function
    from repro.simulator.executor import run_program
    from repro.telemetry import use_session

    machine = resolve_machine(args.machine)
    source = _read_source(args.source)
    environment = _parse_bindings(args.set or [])
    profiling = args.profile or args.trace_out
    session = _open_session(machine, args.source) if profiling else None
    scope = use_session(session) if session else contextlib.nullcontext()
    with scope:
        function = compile_source(source)
        compiled = compile_function(function, machine)
        result = run_program(
            compiled.program, machine, environment, trace=args.trace
        )
        if args.stats or profiling:
            from repro.simulator.stats import profile_run

            stats = profile_run(compiled.program, machine, environment)
    if session is not None:
        session.annotate(function=function.name)
    if args.trace:
        for line in result.trace:
            print(line)
    if args.stats:
        print(stats.describe(machine), file=sys.stderr)
    reference = interpret_function(function, environment)
    mismatches = []
    for name in sorted(result.variables):
        check = ""
        if name in reference and reference[name] != result.variables[name]:
            check = f"  !! interpreter says {reference[name]}"
            mismatches.append(name)
        print(f"{name} = {result.variables[name]}{check}")
    print(f"; {result.cycles} cycles", file=sys.stderr)
    if session is not None:
        _emit_profile(session, args, show_report=args.profile)
    return 1 if mismatches else 0


def _cmd_profile(args) -> int:
    from repro.asmgen.program import compile_function
    from repro.simulator.stats import profile_run
    from repro.telemetry import use_session

    machine = resolve_machine(args.machine)
    source = _read_source(args.source)
    environment = _parse_bindings(args.set or [])
    session = _open_session(machine, args.source)
    with use_session(session):
        function = compile_source(source)
        compiled = compile_function(function, machine)
        if not args.no_run:
            profile_run(compiled.program, machine, environment)
    session.annotate(
        function=function.name,
        instructions=compiled.total_instructions,
        spills=compiled.total_spills,
    )
    _emit_profile(session, args, as_json=args.json, stream=sys.stdout)
    return 0


def _cmd_tables(args) -> int:
    from repro.eval.experiments import (
        PAPER_TABLE1,
        PAPER_TABLE2,
        run_table1,
        run_table2,
    )
    from repro.eval.reporting import (
        format_comparison,
        format_rows,
        optimal_bench_report,
    )

    if args.json and args.no_optimal:
        raise ReproError(
            "--json reports the optimal solves; drop --no-optimal"
        )
    rows = []
    want = args.table
    if want in ("1", "both"):
        table = run_table1(
            with_optimal=not args.no_optimal,
            with_heuristics_off=args.heuristics_off,
            optimal_budget=args.optimal_budget,
        )
        print(format_rows(table, "Table I — example target architecture"))
        print()
        print(format_comparison(table, PAPER_TABLE1, "vs. paper"))
        print()
        rows += table
    if want in ("2", "both"):
        table = run_table2(
            with_optimal=not args.no_optimal,
            optimal_budget=args.optimal_budget,
        )
        print(format_rows(table, "Table II — Architecture II"))
        print()
        print(format_comparison(table, PAPER_TABLE2, "vs. paper"))
        rows += table
    if args.json:
        from repro.artifacts import write_artifact

        write_artifact(args.json, optimal_bench_report(rows))
        print(f"; wrote {args.json}", file=sys.stderr)
    return 0 if all(row.ok for row in rows) else 1


def _cmd_fuzz(args) -> int:
    from repro.fuzz import replay_file, run_campaign
    from repro.fuzz.oracle import DEFAULT_OPTIMAL_BUDGET

    if args.replay:
        try:
            replay = replay_file(args.replay)
        except (OSError, ValueError) as error:
            raise ReproError(
                f"cannot replay {args.replay}: {error}"
            ) from error
        print(replay.result.describe())
        for problem in replay.problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        return 1 if replay.problems else 0

    def progress(iteration: int, result) -> None:
        if args.verbose:
            print(
                f"[{iteration:4d}] {result.outcome.value}",
                file=sys.stderr,
            )

    stats = run_campaign(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        artifacts_dir=args.artifacts,
        shrink=not args.no_shrink,
        max_shrink_evaluations=args.shrink_budget,
        progress=progress,
        cache_dir=args.cache_dir,
        optimal_oracle=args.optimal_oracle,
        optimal_budget=(
            DEFAULT_OPTIMAL_BUDGET
            if args.optimal_budget is None
            else args.optimal_budget
        ),
    )
    print(stats.summary())
    return 1 if stats.failure_count else 0


def _verify_targets(args) -> List[tuple]:
    """Expand the verify CLI's arguments into (label, source, machine,
    config) tuples."""
    from pathlib import Path

    from repro.covering.config import HeuristicConfig

    targets: List[tuple] = []
    if args.corpus:
        from repro.fuzz.corpus import load_case

        files = sorted(Path(args.corpus).glob("*.json"))
        if not files:
            raise ReproError(f"no reproducer files in {args.corpus!r}")
        for path in files:
            try:
                case = load_case(path)
            except (OSError, ValueError) as error:
                raise ReproError(
                    f"cannot load {path}: {error}"
                ) from error
            targets.append(
                (path.name, case.source, case.machine, case.heuristic_config())
            )
        return targets
    if not args.source:
        raise ReproError("verify needs a SOURCE file or --corpus DIR")
    source = _read_source(args.source)
    specs = list(args.machine or [])
    if args.machines_dir:
        found = sorted(Path(args.machines_dir).glob("*.isdl"))
        if not found:
            raise ReproError(f"no .isdl files in {args.machines_dir!r}")
        specs.extend(str(path) for path in found)
    if not specs:
        raise ReproError("verify needs --machine or --machines-dir")
    for spec in specs:
        machine = resolve_machine(spec)
        targets.append(
            (
                f"{args.source} @ {machine.name}",
                source,
                machine,
                HeuristicConfig.default(),
            )
        )
    return targets


def _cmd_verify(args) -> int:
    import json as json_module

    from repro.asmgen.program import compile_function
    from repro.errors import CoverageError
    from repro.verify import verify_function

    results = []
    certified = skipped = total_violations = 0
    for label, source, machine, config in _verify_targets(args):
        entry = {"target": label, "machine": machine.name}
        explain = None
        try:
            function = compile_source(source)
            if args.json:
                # Journal the compile so each violation can link to the
                # decision that produced the offending cycle.
                from repro.explain import (
                    build_explain_report,
                    compile_with_journal,
                )

                journal, compiled, error = compile_with_journal(
                    function, machine, config
                )
                if error is not None:
                    raise error
                explain = build_explain_report(journal, compiled)
            else:
                compiled = compile_function(function, machine, config)
        except CoverageError as error:
            # The documented contract, not a bug: this machine genuinely
            # cannot implement the program.
            skipped += 1
            entry["status"] = "skipped"
            entry["reason"] = str(error)
            results.append(entry)
            if not args.json and not args.quiet:
                print(f"SKIP {label}: {str(error)[:100]}")
            continue
        reports = verify_function(compiled)
        checks = sum(r.checks for r in reports)
        violations = sum(len(r.violations) for r in reports)
        total_violations += violations
        certified += violations == 0
        entry["status"] = "ok" if violations == 0 else "violations"
        entry["checks"] = checks
        blocks_json = []
        for report in reports:
            summary = report.summary()
            if explain is not None:
                from repro.explain import find_decision

                for violation, record in zip(
                    report.violations, summary["violations"]
                ):
                    record["decision"] = find_decision(
                        explain,
                        report.block,
                        task=violation.task,
                        cycle=violation.cycle,
                    )
            blocks_json.append(summary)
        entry["blocks"] = blocks_json
        results.append(entry)
        if args.json:
            continue
        if violations == 0:
            if not args.quiet:
                print(
                    f"OK   {label}: {len(reports)} block(s), {checks} checks"
                )
        else:
            print(f"FAIL {label}:")
            for report in reports:
                if not report.ok:
                    print("  " + report.describe().replace("\n", "\n  "))
    if args.json:
        print(
            json_module.dumps(
                {
                    "certified": certified,
                    "skipped": skipped,
                    "violations": total_violations,
                    "results": results,
                },
                indent=2,
            )
        )
    else:
        print(
            f"; certified {certified}, skipped {skipped} (coverage), "
            f"{total_violations} violation(s)"
        )
    return 1 if total_violations else 0


def _cmd_explain(args) -> int:
    import json as json_module

    from repro.covering.config import HeuristicConfig
    from repro.explain import (
        diff_reports,
        explain_source,
        render_diff_text,
        render_html,
        render_text,
    )

    machine = resolve_machine(args.machine)
    source = _read_source(args.source)
    config = HeuristicConfig.default()
    report, _compiled, error = explain_source(
        source,
        machine,
        config,
        meta={"source": args.source, "machine": machine.name},
    )
    if args.diff:
        other_machine = resolve_machine(args.diff)
        other_report, _, other_error = explain_source(
            source,
            other_machine,
            config,
            meta={"source": args.source, "machine": other_machine.name},
        )
        label_a, label_b = machine.name, other_machine.name
        diff = diff_reports(report, other_report, label_a, label_b)
        if args.json:
            print(json_module.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_diff_text(diff))
        for which, failure in (
            (label_a, error),
            (label_b, other_error),
        ):
            if failure is not None:
                print(
                    f"; {which} compile failed: {failure}", file=sys.stderr
                )
        return 0 if diff["identical"] and not error and not other_error else 1
    if args.html:
        with open(args.html, "w") as handle:
            handle.write(render_html(report))
        print(f"; wrote {args.html}", file=sys.stderr)
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    elif not args.html:
        print(render_text(report, full=args.full))
    if error is not None:
        print(f"; compile failed: {error}", file=sys.stderr)
        return 1
    return 0


def _batch_jobs(args) -> List:
    """Expand the batch CLI's arguments into CompileJob objects."""
    import json as json_module
    from pathlib import Path

    from repro.isdl.writer import machine_to_isdl
    from repro.serve.service import CompileJob

    if args.jobs:
        try:
            with open(args.jobs) as handle:
                payload = json_module.load(handle)
        except OSError as error:
            raise ReproError(f"cannot read {args.jobs}: {error}") from error
        except ValueError as error:
            raise ReproError(f"{args.jobs}: not JSON: {error}") from error
        if not isinstance(payload, list):
            raise ReproError(
                f"{args.jobs}: a job list must be a JSON array of job "
                f"objects"
            )
        try:
            return [CompileJob.from_dict(item) for item in payload]
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(
                f"{args.jobs}: malformed job object: {error}"
            ) from error
    if not args.source:
        raise ReproError("batch needs SOURCE files or --jobs FILE")
    specs = list(args.machine or [])
    if args.machines_dir:
        found = sorted(Path(args.machines_dir).glob("*.isdl"))
        if not found:
            raise ReproError(f"no .isdl files in {args.machines_dir!r}")
        specs.extend(str(path) for path in found)
    if not specs:
        raise ReproError("batch needs --machine or --machines-dir")
    jobs = []
    for source_path in args.source:
        source = _read_source(source_path)
        for spec in specs:
            machine = resolve_machine(spec)
            jobs.append(
                CompileJob(
                    job_id=f"{source_path}@{machine.name}",
                    source=source,
                    machine_isdl=machine_to_isdl(machine),
                    validate=args.validate,
                )
            )
    return jobs


def _cmd_batch(args) -> int:
    import json as json_module

    from repro.artifacts import validate, write_artifact
    from repro.obs.export import snapshot_export
    from repro.serve.service import fleet_snapshot, run_batch

    jobs = _batch_jobs(args)
    report = run_batch(
        jobs, cache_dir=args.cache_dir, workers=args.workers
    )
    validate(report)
    if args.metrics_out:
        write_artifact(
            args.metrics_out,
            snapshot_export(fleet_snapshot(report["results"])),
        )
        print(f"; wrote metrics {args.metrics_out}", file=sys.stderr)
    if args.json:
        text = json_module.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text + "\n")
            print(f"; wrote {args.json}", file=sys.stderr)
    totals = report["totals"]
    for result in report["results"]:
        if result["status"] == "ok":
            line = (
                f"ok    {result['job_id']:40s} "
                f"{result['metrics']['instructions']:4d} instr "
                f"{result['metrics']['spills']:3d} spills"
            )
        else:
            line = (
                f"{result['status'][:5]:5s} {result['job_id']:40s} "
                f"{(result['error'] or '')[:60]}"
            )
        print(line, file=sys.stderr)
    print(
        f"; {totals['jobs']} job(s): {totals['ok']} ok, "
        f"{totals['structured_failures']} uncoverable, "
        f"{totals['errors']} error(s); "
        f"{totals['jobs_per_second']:.1f} jobs/s, "
        f"cache hit rate {totals['cache_hit_rate']:.0%}",
        file=sys.stderr,
    )
    return 1 if totals["errors"] else 0


def _cmd_explore(args) -> int:
    import json
    import os

    from repro.artifacts import validate, write_artifact
    from repro.explore import (
        corpus_workloads,
        default_workloads,
        format_explore_table,
        load_base_machines,
        run_explore,
    )
    from repro.obs.export import snapshot_export

    if args.population < 1:
        raise ReproError(
            f"--population {args.population}: need at least 1 candidate"
        )
    machines_dir = args.machines_dir
    if machines_dir is not None and not os.path.isdir(machines_dir):
        raise ReproError(f"--machines-dir {machines_dir!r}: no such directory")
    bases = load_base_machines(machines_dir)
    suite = default_workloads(".")
    if args.corpus:
        suite = suite + corpus_workloads(args.corpus)
    payload, timing = run_explore(
        seed=args.seed,
        population=args.population,
        workers=args.workers,
        budget=args.budget,
        workloads=suite,
        bases=bases,
        cache_dir=args.cache_dir,
    )
    # With --json -, stdout is the artifact; the table moves to stderr.
    table_stream = sys.stderr if args.json == "-" else sys.stdout
    print(format_explore_table(payload), file=table_stream)
    if args.json == "-":
        validate(payload)
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.json:
        write_artifact(args.json, payload)
        print(f"; wrote {args.json}", file=sys.stderr)
    if args.metrics_out:
        write_artifact(args.metrics_out, snapshot_export(timing["obs"]))
        print(f"; wrote metrics {args.metrics_out}", file=sys.stderr)
    print(
        f"; {timing['evaluations']} evaluation(s) in "
        f"{timing['wall_s']:.1f}s with {timing['workers']} worker(s)",
        file=sys.stderr,
    )
    return 0 if payload["totals"]["frontier"] else 1


def _cmd_serve(args) -> int:
    from repro.serve.service import serve_stream

    served = serve_stream(
        sys.stdin,
        sys.stdout,
        cache_dir=args.cache_dir,
        validate=args.validate,
        metrics_out=args.metrics_out,
        events_out=args.events_out,
        flight_dir=args.flight_dir,
        flight_threshold=args.flight_threshold,
    )
    print(
        f"; served {served['requests']} request(s): "
        f"{served['ok']} ok, {served['failed']} failed",
        file=sys.stderr,
    )
    for flag, what in (
        ("metrics_out", "metrics"),
        ("events_out", "events"),
        ("flight_dir", "flight artifacts"),
    ):
        value = getattr(args, flag)
        if value:
            print(f"; wrote {what} {value}", file=sys.stderr)
    return 0


def _cmd_metrics(args) -> int:
    import json as json_module

    from repro.artifacts import read_artifact
    from repro.obs.export import (
        METRICS_SCHEMA,
        diff_metrics,
        render_metrics_diff,
        render_metrics_table,
        snapshot_from_export,
        to_prometheus,
    )

    try:
        payload = read_artifact(args.file, METRICS_SCHEMA)
        if args.diff:
            other = read_artifact(args.diff, METRICS_SCHEMA)
    except OSError as error:
        raise ReproError(f"cannot read {error.filename}: {error}") from error
    except ValueError as error:
        raise ReproError(str(error)) from error
    if args.diff:
        diff = diff_metrics(payload, other)
        if args.json:
            print(json_module.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_metrics_diff(diff))
        return 0 if diff["identical"] else 1
    if args.prom:
        print(to_prometheus(snapshot_from_export(payload)), end="")
    elif args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_metrics_table(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AVIV retargetable code generator (DAC 1998 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("machines", help="list built-in machines")

    describe = commands.add_parser("describe", help="show a machine")
    describe.add_argument("--machine", "-m", required=True)
    describe.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary",
    )

    def add_profile_arguments(sub) -> None:
        sub.add_argument(
            "--profile",
            action="store_true",
            help="print a per-phase telemetry report",
        )
        sub.add_argument(
            "--trace-out",
            metavar="FILE",
            help="write a Chrome trace-event JSON file",
        )

    compile_parser = commands.add_parser("compile", help="compile minic")
    compile_parser.add_argument("source")
    compile_parser.add_argument("--machine", "-m", required=True)
    compile_parser.add_argument("--asm", help="write text assembly here")
    compile_parser.add_argument("--bin", help="write binary image here")
    compile_parser.add_argument(
        "--no-peephole", action="store_true", help="skip peephole pass"
    )
    compile_parser.add_argument(
        "--heuristics-off",
        action="store_true",
        help="exhaustive assignment exploration",
    )
    compile_parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent block-solution cache directory (warm-starts "
        "repeated compiles across processes)",
    )
    compile_parser.add_argument(
        "--optimal",
        action="store_true",
        help="schedule every block with the constraint-solver backend "
        "(provably minimal block lengths, certified schedules)",
    )
    compile_parser.add_argument(
        "--optimal-budget",
        type=int,
        default=DEFAULT_CONFLICT_BUDGET,
        metavar="N",
        help="CDCL conflict budget per block solve (default %(default)s)",
    )
    add_profile_arguments(compile_parser)

    run_parser = commands.add_parser("run", help="compile and simulate")
    run_parser.add_argument("source")
    run_parser.add_argument("--machine", "-m", required=True)
    run_parser.add_argument(
        "--set", action="append", metavar="VAR=VAL", help="initial variable"
    )
    run_parser.add_argument("--trace", action="store_true")
    run_parser.add_argument(
        "--stats",
        action="store_true",
        help="print resource-activity statistics",
    )
    add_profile_arguments(run_parser)

    profile_parser = commands.add_parser(
        "profile", help="compile + simulate under telemetry, print report"
    )
    profile_parser.add_argument("source")
    profile_parser.add_argument("--machine", "-m", required=True)
    profile_parser.add_argument(
        "--set", action="append", metavar="VAR=VAL", help="initial variable"
    )
    profile_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    profile_parser.add_argument(
        "--no-run",
        action="store_true",
        help="profile compilation only, skip the simulator",
    )
    profile_parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace-event JSON file",
    )

    disasm = commands.add_parser(
        "disasm", help="disassemble an object file"
    )
    disasm.add_argument("object")
    disasm.add_argument("--machine", "-m", required=True)

    simulate = commands.add_parser(
        "simulate", help="run an object file on the simulator"
    )
    simulate.add_argument("object")
    simulate.add_argument("--machine", "-m", required=True)
    simulate.add_argument(
        "--set", action="append", metavar="VAR=VAL", help="initial variable"
    )
    simulate.add_argument("--trace", action="store_true")

    tables = commands.add_parser("tables", help="reproduce paper tables")
    tables.add_argument("--table", choices=["1", "2", "both"], default="both")
    tables.add_argument("--heuristics-off", action="store_true")
    tables.add_argument("--no-optimal", action="store_true")
    tables.add_argument(
        "--optimal-budget",
        type=int,
        default=DEFAULT_CONFLICT_BUDGET,
        metavar="N",
        help="CDCL conflict budget per block solve (default %(default)s)",
    )
    tables.add_argument(
        "--json",
        metavar="FILE",
        help="write the repro/bench-optimal/v1 report here",
    )

    fuzz = commands.add_parser(
        "fuzz", help="differential fuzzing of the whole pipeline"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    fuzz.add_argument(
        "--iterations",
        "-n",
        type=int,
        default=100,
        help="triples to try (default 100)",
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop cleanly after this much wall-clock time",
    )
    fuzz.add_argument(
        "--artifacts",
        metavar="DIR",
        help="write minimized reproducer JSON files here",
    )
    fuzz.add_argument(
        "--replay",
        metavar="FILE",
        help="re-run one reproducer file instead of fuzzing",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimizing them",
    )
    fuzz.add_argument(
        "--shrink-budget",
        type=int,
        default=200,
        metavar="N",
        help="max oracle probes per shrink (default 200)",
    )
    fuzz.add_argument(
        "--verbose", "-v", action="store_true", help="per-iteration log"
    )
    fuzz.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent block-solution cache: repeated campaigns over "
        "the same seeds warm-start their compiles",
    )
    fuzz.add_argument(
        "--optimal-oracle",
        action="store_true",
        help="also solve every correct case's blocks to optimality and "
        "report the heuristic gap (the 'optimality' outcome)",
    )
    fuzz.add_argument(
        "--optimal-budget",
        type=int,
        metavar="N",
        help="CDCL conflict budget per optimal-oracle solve "
        "(default: the fuzz oracle's)",
    )

    batch = commands.add_parser(
        "batch",
        help="compile many (source, machine) jobs through a process "
        "pool with a persistent block cache",
    )
    batch.add_argument(
        "source", nargs="*", help="minic source files to compile"
    )
    batch.add_argument(
        "--machine",
        "-m",
        action="append",
        metavar="SPEC",
        help="target machine (repeatable)",
    )
    batch.add_argument(
        "--machines-dir",
        metavar="DIR",
        help="also target every .isdl file in DIR",
    )
    batch.add_argument(
        "--jobs",
        metavar="FILE",
        help="explicit JSON job list (array of repro/serve/v1 job "
        "objects) instead of SOURCE x machines",
    )
    batch.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="shared persistent block-solution cache directory",
    )
    batch.add_argument(
        "--workers",
        "-j",
        type=int,
        default=0,
        help="process-pool width (0 = compile in-process; default 0)",
    )
    batch.add_argument(
        "--validate",
        action="store_true",
        help="certify every block with the independent validator",
    )
    batch.add_argument(
        "--json",
        metavar="FILE",
        help="write the repro/serve/v1 report here ('-' for stdout)",
    )
    batch.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the canonical repro/metrics/v1 export of the fleet "
        "metrics (deterministic: byte-identical for any --workers)",
    )

    serve = commands.add_parser(
        "serve",
        help="JSON-lines compile service: job requests on stdin, "
        "results on stdout",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent block-solution cache directory",
    )
    serve.add_argument(
        "--validate",
        action="store_true",
        help="certify every block with the independent validator",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the stream's repro/metrics/v1 export here",
    )
    serve.add_argument(
        "--events-out",
        metavar="FILE",
        default=None,
        help="write the repro/events/v1 JSON-lines request log here",
    )
    serve.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="arm the flight recorder: dump self-contained artifacts "
        "for slow or failing requests into DIR",
    )
    serve.add_argument(
        "--flight-threshold",
        type=float,
        default=None,
        metavar="SECONDS",
        help="latency above which a request counts as slow (default: "
        "only failing requests are dumped)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="validate, render, or diff repro/metrics/v1 exports",
    )
    metrics.add_argument("file", help="metrics export JSON file")
    metrics.add_argument(
        "--prom",
        action="store_true",
        help="render as Prometheus text exposition format",
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the validated payload (or diff) as JSON",
    )
    metrics.add_argument(
        "--diff",
        metavar="FILE2",
        help="compare against a second export; exit 1 when they differ",
    )

    verify = commands.add_parser(
        "verify",
        help="certify compiled schedules with the independent validator",
    )
    verify.add_argument(
        "source", nargs="?", help="minic source file to certify"
    )
    verify.add_argument(
        "--machine",
        "-m",
        action="append",
        metavar="SPEC",
        help="target machine (repeatable)",
    )
    verify.add_argument(
        "--machines-dir",
        metavar="DIR",
        help="also certify against every .isdl file in DIR",
    )
    verify.add_argument(
        "--corpus",
        metavar="DIR",
        help="certify every reproducer JSON in DIR on its own machine",
    )
    verify.add_argument(
        "--json", action="store_true", help="machine-readable results"
    )
    verify.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="print only failures and the final summary",
    )

    explore = commands.add_parser(
        "explore",
        help="explore the machine space; emit the Pareto frontier "
        "artifact BENCH_explore.json",
    )
    explore.add_argument(
        "--seed",
        type=int,
        default=0,
        help="population RNG seed (default: 0)",
    )
    explore.add_argument(
        "--population",
        type=int,
        default=50,
        metavar="N",
        help="candidate machines to generate (default: 50)",
    )
    explore.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="process-pool size; 0 evaluates serially (default: 0)",
    )
    explore.add_argument(
        "--budget",
        type=int,
        default=0,
        metavar="N",
        help="optimal-backend conflict budget for tightening frontier "
        "gaps; 0 disables (default: 0)",
    )
    explore.add_argument(
        "--machines-dir",
        metavar="DIR",
        default=None,
        help="seed the population from every .isdl file in DIR "
        "(default: the bundled machines)",
    )
    explore.add_argument(
        "--corpus",
        metavar="DIR",
        help="add every reproducer JSON in DIR to the workload suite",
    )
    explore.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent block-solution cache directory",
    )
    explore.add_argument(
        "--json",
        metavar="FILE",
        default="BENCH_explore.json",
        help="artifact path, or - for stdout (default: "
        "BENCH_explore.json)",
    )
    explore.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the exploration's repro/metrics/v1 export "
        "(deterministic: byte-identical for any --workers)",
    )

    explain = commands.add_parser(
        "explain",
        help="audit why the covering search chose each schedule",
    )
    explain.add_argument("source", help="minic source file")
    explain.add_argument("--machine", "-m", required=True)
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the repro/explain/v1 report (or diff) as JSON",
    )
    explain.add_argument(
        "--html",
        metavar="FILE",
        help="write a self-contained HTML timeline page",
    )
    explain.add_argument(
        "--full",
        action="store_true",
        help="list every journal entry, not just covering steps",
    )
    explain.add_argument(
        "--diff",
        metavar="SPEC",
        help="second machine to run and compare decisions against",
    )

    return parser


_HANDLERS = {
    "machines": _cmd_machines,
    "describe": _cmd_describe,
    "compile": _cmd_compile,
    "run": _cmd_run,
    "profile": _cmd_profile,
    "disasm": _cmd_disasm,
    "simulate": _cmd_simulate,
    "tables": _cmd_tables,
    "fuzz": _cmd_fuzz,
    "verify": _cmd_verify,
    "explain": _cmd_explain,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "explore": _cmd_explore,
    "metrics": _cmd_metrics,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
