"""CLI coverage for the tables command."""

import pytest

from repro.cli import main


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
    assert main(["tables", "--table", "2", "--optimal-budget", "0"]) == 0
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
