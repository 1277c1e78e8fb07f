"""CLI coverage for the tables command."""

import pytest

from repro.artifacts import read_artifact
from repro.cli import main
from repro.eval import workload
from repro.optimal import OPTIMAL_BENCH_SCHEMA


def _first_table(out):
    """The cells of each data row of the first table ``out`` prints."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---"))
    rows = []
    for line in lines[start + 1:]:
        if not line.strip() or line.startswith("("):
            break
        rows.append(line.split())
    return rows


def test_tables_command_table2_fast(capsys):
    code = main(["tables", "--table", "2", "--no-optimal"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "Ex5" in out
    assert "vs. paper" in out


def test_tables_command_rejects_bad_choice():
    with pytest.raises(SystemExit):
        main(["tables", "--table", "9"])


def test_table1_optimal_column_proven_at_default_budget(capsys):
    """The solver proves every Table I optimum at the default conflict
    budget, Ex7's spill-free 15 (the paper's hand-coded value) included."""
    assert main(["tables", "--table", "1"]) == 0
    out = capsys.readouterr().out
    rows = _first_table(out)
    assert [cells[0] for cells in rows] == [f"Ex{i}" for i in range(1, 8)]
    assert [cells[5] for cells in rows] == [
        "7", "10", "9", "11", "12", "13", "15",
    ]
    assert [cells[6] for cells in rows] == [
        "7", "11", "9", "12", "15", "14", "22",
    ]
    assert all(cells[8] == "yes" for cells in rows)
    assert "(* =" not in out
    assert "stopped after" not in out
    assert "+7 [paper +3]" in out  # Ex7's gap against the proven 15


def test_tables_zero_budget_stars_every_row(capsys):
    # A starred row is unproven, so the tables fail.
    assert main(["tables", "--table", "2", "--optimal-budget", "0"]) == 1
    out = capsys.readouterr().out
    rows = _first_table(out)
    assert len(rows) == 5
    assert all(cells[5].endswith("*") for cells in rows)
    assert "(* = conflict budget exhausted; value is an upper bound)" in out
    for cells in rows:
        assert f"  * {cells[0]}: stopped after 0 of 0 conflict(s)" in out
    gaps = [line for line in out.splitlines() if "[paper +" in line]
    assert len(gaps) == 5
    assert all("* [paper +" in line for line in gaps)


def test_tables_invalid_row_reads_no_and_fails(monkeypatch, capsys):
    """Valid compares the row's own program with the interpreter: one
    wrong simulated value turns that row to ``NO`` and fails the run."""
    from repro.eval import experiments

    real = experiments.run_program
    symbol = sorted(workload("Ex1").build().store_symbols())[0]
    calls = []

    def one_wrong_value(program, machine, inputs):
        result = real(program, machine, inputs)
        if not calls:
            result.variables[symbol] += 1
        calls.append(program)
        return result

    monkeypatch.setattr(experiments, "run_program", one_wrong_value)
    assert main(["tables", "--table", "2", "--no-optimal"]) == 1
    rows = _first_table(capsys.readouterr().out)
    assert [cells[8] for cells in rows] == ["NO", "yes", "yes", "yes", "yes"]
    assert len(calls) == 5  # one simulation per row


def test_tables_json_writes_the_optimal_report(tmp_path, capsys):
    path = tmp_path / "BENCH_optimal.json"
    assert main(["tables", "--table", "2", "--json", str(path)]) == 0
    report = read_artifact(path, OPTIMAL_BENCH_SCHEMA)
    entries = report["entries"]
    assert [e["workload"] for e in entries] == [f"Ex{i}" for i in range(1, 6)]
    assert {e["machine"] for e in entries} == {"arch2_r4"}
    assert [
        (e["heuristic_cost"], e["optimal_cost"], e["gap"]) for e in entries
    ] == [(7, 7, 0), (11, 10, 1), (9, 9, 0), (13, 11, 2), (13, 12, 1)]
    assert all(e["proven"] for e in entries)
    assert f"; wrote {path}" in capsys.readouterr().err


def test_tables_json_needs_the_optimal_column(tmp_path, capsys):
    path = tmp_path / "BENCH_optimal.json"
    assert main(["tables", "--no-optimal", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert not path.exists()
