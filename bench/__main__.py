"""Command line: ``python -m bench {run,measure,compare,golden}``.

``run``      every workload (or ``--workload``): set-up launches, a timed
             pass and a traced pass, each in a fresh interpreter; prints
             every metric and writes ``bench/out/run-<seed>.json``.
             Exit 1 when any output fails the correctness gate.
``measure``  one workload for ``--seconds``; prints one JSON line with
             the end-to-end metrics (``--trace 0``) or the per-layer
             metrics (``--trace 1``).  Exit 1 when outputs are wrong.
``compare``  run files of a parent then of a change (equally many, the
             i-th of each forming a pair); one verdict per workload and
             end-to-end metric.  Exit 1 when any metric regressed.
``golden``   rewrite ``bench/golden/listings.json`` from direct compiles.

A checkout without an importable ``src/repro`` exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from bench import OUT, CheckoutError, use_checkout_src
from bench.workloads import WORKLOADS


def _cmd_run(args) -> int:
    from bench.measure import measure_workload
    from bench.runner import write_json

    names = args.workload or list(WORKLOADS)
    reports: Dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        report = measure_workload(
            name,
            args.seed,
            timed_size={"rounds": workload.rounds, "seconds": None},
            traced_size={"rounds": workload.traced_rounds, "seconds": None},
            with_setup=True,
        )
        reports[name] = report
        _print_report(name, report)
    path = OUT / f"run-{args.seed}.json"
    write_json(path, {"seed": args.seed, "workloads": reports})
    print(f"wrote {path}")
    failed = sum(report["failed"] for report in reports.values())
    for name, report in reports.items():
        for reason in report["failures"]:
            print(f"FAIL {name}: {reason}", file=sys.stderr)
    return 1 if failed else 0


def _print_report(name: str, report: dict) -> None:
    print(f"== {name}: {report['attempted']} attempted, {report['failed']} failed")
    for metric, entry in {**report["metrics"], **report.get("per_layer", {})}.items():
        spread = ""
        if "samples" in entry:
            samples = entry["samples"]
            spread = (f"  (samples: median {samples['median']:.6g}, q1 "
                      f"{samples['q1']:.6g}, q3 {samples['q3']:.6g}, n {samples['n']})")
        print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}{spread}")
    for layer in report.get("absent", []):
        print(f"  {layer:34s} absent")


def _cmd_measure(args) -> int:
    from bench.measure import measure_workload

    half = {"rounds": None, "seconds": args.seconds / 2}
    report = measure_workload(
        args.workload,
        args.seed,
        timed_size=half if args.trace else {"rounds": None, "seconds": args.seconds},
        traced_size=half if args.trace else None,
        with_setup=not args.trace,
        timeout=3 * args.seconds + 90,
    )
    metrics = report["per_layer"] if args.trace else report["metrics"]
    for reason in report["failures"]:
        print(f"FAIL {args.workload}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0 if report["failed"] == 0 else 1


def _cmd_compare(args) -> int:
    from bench.metrics import END_TO_END
    from bench.stats import verdict

    if len(args.runs) < 2 or len(args.runs) % 2:
        print("compare needs BASE runs then as many HEAD runs", file=sys.stderr)
        return 2
    runs = [json.loads(open(path).read())["workloads"] for path in args.runs]
    half = len(runs) // 2
    base, head = runs[:half], runs[half:]
    regressed = False
    print(f"{'workload':14s} {'metric':16s} {'base':>12s} {'head':>12s} "
          f"{'wins':>6s}  verdict")
    for workload in WORKLOADS:
        if not all(workload in run for run in runs):
            continue
        for metric, _, better, bound in END_TO_END:
            b = [run[workload]["metrics"][metric]["value"] for run in base]
            h = [run[workload]["metrics"][metric]["value"] for run in head]
            result = verdict(b, h, better, bound)
            regressed |= result["verdict"] == "regressed"
            print(f"{workload:14s} {metric:16s} {result['base_median']:>12.6g} "
                  f"{result['head_median']:>12.6g} "
                  f"{result['wins']:>3d}/{result['pairs']:<2d}  {result['verdict']}")
    return 1 if regressed else 0


def _cmd_golden(args) -> int:
    from bench import gate
    from bench.runner import write_json
    from bench.requests import compile_block, compile_program, isdl_parser
    from bench.workloads import digest, pool_workers

    listings: Dict[str, str] = {}
    for workload in WORKLOADS.values():
        if workload.kind == "batch":
            references = gate.reference_batch(list(workload.items), 0, None, pool_workers())
            for label, record in references.items():
                listings[label] = record["digest"]
            continue
        for item in workload.items:
            if workload.kind == "block":
                machine = isdl_parser.parse_machine(item.machine_isdl())
                compiled, _ = compile_block(item.source(), item.discard(), machine)
            else:
                compiled, _ = compile_program(item.source(), item.machine_isdl())
            listings[item.label] = digest(compiled.program.listing())
    write_json(gate.GOLDEN, dict(sorted(listings.items())))
    print(f"wrote {len(listings)} digests to {gate.GOLDEN}")
    return 0


def _cmd_prepare(args) -> int:
    from bench.runner import prepare

    prepare(args.workload, args.seed, args.dir)
    return 0


def _cmd_pass(args) -> int:
    from bench.runner import Size, run_pass, write_json

    size = Size(rounds=args.rounds, seconds=args.seconds)
    write_json(args.out, run_pass(args.workload, args.seed, size, args.traced,
                                  prepared=args.prepared))
    return 0


def _cmd_setup(args) -> int:
    from bench.runner import setup_launch

    setup_launch(args.workload, args.seed)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    workloads = sorted(WORKLOADS)

    run = commands.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--workload", action="append", choices=workloads)

    measure = commands.add_parser("measure", help="measure one workload for a time")
    measure.add_argument("--workload", required=True, choices=workloads)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)

    compare = commands.add_parser("compare", help="verdicts: parent runs vs change runs")
    compare.add_argument("runs", nargs="+", metavar="RUN.json")

    commands.add_parser("golden", help="rewrite bench/golden/listings.json")

    prepared = commands.add_parser("_prepare")
    prepared.add_argument("--workload", required=True, choices=workloads)
    prepared.add_argument("--seed", type=int, required=True)
    prepared.add_argument("--dir", required=True)

    one = commands.add_parser("_pass")
    one.add_argument("--workload", required=True, choices=workloads)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--rounds", type=int)
    one.add_argument("--seconds", type=float)
    one.add_argument("--traced", action="store_true")
    one.add_argument("--prepared")
    one.add_argument("--out", required=True)

    setup = commands.add_parser("_setup")
    setup.add_argument("--workload", required=True, choices=workloads)
    setup.add_argument("--seed", type=int, required=True)
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "measure": _cmd_measure,
    "compare": _cmd_compare,
    "golden": _cmd_golden,
    "_prepare": _cmd_prepare,
    "_pass": _cmd_pass,
    "_setup": _cmd_setup,
}


def main(argv: List[str] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        use_checkout_src()
    except CheckoutError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
