"""Reader/writer behavior: format rules, error positions, round trips."""

import json
import os

import numpy as np
import pytest

from normreg import (
    BINARY,
    CONTINUOUS,
    Dataset,
    DomainError,
    ParseError,
    ResultTable,
    TableSchema,
    atomic_write_text,
    manifest_path,
    read_delimited,
    read_sparse_labeled,
    write_delimited,
    write_results,
    write_sparse_labeled,
)


def test_read_delimited_two_by_two(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,y\n0,1.5\n1,2.5\n")
    data = read_delimited(path, TableSchema(response="y"))
    assert (data.n, data.p) == (2, 1)
    assert data.kinds == (BINARY,)
    assert data.names == ("x",)
    assert np.array_equal(data.x[:, 0], [0.0, 1.0])
    assert np.array_equal(data.y, [1.5, 2.5])


def test_read_delimited_zero_one_two_is_continuous(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n0,1\n1,2\n2,3\n")
    data = read_delimited(path, TableSchema(response="y"))
    assert data.kinds == (CONTINUOUS,)


def test_read_delimited_response_by_index_and_headerless(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,10,0\n2,20,1\n")
    data = read_delimited(path, TableSchema(header=False, response=1))
    assert np.array_equal(data.y, [10.0, 20.0])
    assert data.names == ("x1", "x3")
    assert np.array_equal(data.x, [[1.0, 0.0], [2.0, 1.0]])


def test_read_delimited_missing_response(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError, match="not found"):
        read_delimited(path, TableSchema(response="y"))
    with pytest.raises(DomainError, match="out of range"):
        read_delimited(path, TableSchema(response=5))


def test_read_delimited_ragged_row_reports_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1,2\n3,4,5\n")
    with pytest.raises(ParseError, match="line 3"):
        read_delimited(path, TableSchema(response="y"))


def test_read_delimited_non_numeric_reports_position(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match="line 3.*column 2"):
        read_delimited(path, TableSchema(response="y"))


def test_read_delimited_rejects_non_finite_tokens(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\nNaN,2\n1,2\n")
    with pytest.raises(ParseError, match="line 2"):
        read_delimited(path, TableSchema(response="y"))
    path.write_text("a,y\n1,Inf\n")
    with pytest.raises(ParseError, match="NaN/Inf"):
        read_delimited(path, TableSchema(response="y"))


def test_read_delimited_empty_inputs(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        read_delimited(path)
    path.write_text("a,y\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_delimited(path)


def test_read_sparse_labeled_example(tmp_path):
    path = tmp_path / "t.sp"
    path.write_text("1 3:1\n-1 1:1\n")
    data = read_sparse_labeled(path)
    assert (data.n, data.p) == (2, 3)
    assert np.array_equal(data.x, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(data.y, [1.0, -1.0])


def test_read_sparse_labeled_pairless_line_is_zero_row(tmp_path):
    path = tmp_path / "t.sp"
    path.write_text("1 2:1\n-1\n")
    data = read_sparse_labeled(path)
    assert np.array_equal(data.x[1], [0.0, 0.0])


def test_read_sparse_labeled_index_validation(tmp_path):
    path = tmp_path / "t.sp"
    path.write_text("1 2:1 2:3\n")
    with pytest.raises(ParseError, match="duplicate index 2"):
        read_sparse_labeled(path)
    path.write_text("1 3:1 2:1\n")
    with pytest.raises(ParseError, match="increasing"):
        read_sparse_labeled(path)
    path.write_text("1 0:1\n")
    with pytest.raises(ParseError, match="positive"):
        read_sparse_labeled(path)
    path.write_text("1 x:1\n")
    with pytest.raises(ParseError, match="non-integer"):
        read_sparse_labeled(path)
    path.write_text("1 5\n")
    with pytest.raises(ParseError, match="idx:val"):
        read_sparse_labeled(path)


def test_read_sparse_labeled_error_carries_line_and_column(tmp_path):
    path = tmp_path / "t.sp"
    path.write_text("1 1:1\n1 1:bad\n")
    with pytest.raises(ParseError, match="line 2"):
        read_sparse_labeled(path)


def test_delimited_round_trip_shortest_repr(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((15, 4))
    x[:, 1] = rng.integers(0, 2, 15)
    data = Dataset(x=x, y=rng.standard_normal(15))
    path = tmp_path / "rt.csv"
    write_delimited(data, path)
    back = read_delimited(path, TableSchema(response="y"))
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)
    assert back.kinds == data.kinds
    assert back.names == data.names


def test_sparse_round_trip_exact_on_binary(tmp_path):
    rng = np.random.default_rng(13)
    x = (rng.random((10, 5)) < 0.4).astype(float)
    y = rng.choice([-1.0, 1.0], 10)
    x[0, -1] = 1.0  # pin p so the max index is observed
    data = Dataset(x=x, y=y)
    path = tmp_path / "rt.sp"
    write_sparse_labeled(data, path)
    back = read_sparse_labeled(path)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)


def test_write_results_csv_layout_and_manifest(tmp_path):
    table = ResultTable(
        header=("name", "value", "flag"),
        rows=((("a"), 0.1 + 0.2, True),),
        manifest={"command": "test", "seed": 7},
    )
    path = tmp_path / "out.csv"
    write_results(table, path, fmt="csv")
    text = path.read_text()
    assert text == "name,value,flag\na,0.30000000000000004,True\n"
    sidecar = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert sidecar == {"command": "test", "seed": 7}
    assert manifest_path(path) == str(path) + ".manifest.json"


def test_write_results_json_records(tmp_path):
    table = ResultTable(
        header=("k", "v"),
        rows=((1, 2.5), (2, float("inf"))),
        manifest={"command": "test"},
    )
    path = tmp_path / "out.json"
    write_results(table, path, fmt="json")
    records = json.loads(path.read_text())
    assert records == [{"k": 1, "v": 2.5}, {"k": 2, "v": "Inf"}]


def test_write_results_special_float_tokens(tmp_path):
    table = ResultTable(
        header=("v",),
        rows=((float("nan"),), (float("inf"),), (float("-inf"),)),
        manifest={},
    )
    path = tmp_path / "out.csv"
    write_results(table, path, fmt="csv")
    assert path.read_text() == "v\nNaN\nInf\n-Inf\n"


def test_result_table_validation():
    with pytest.raises(DomainError, match="non-empty"):
        ResultTable(header=("a",), rows=(), manifest={})
    with pytest.raises(DomainError, match="width"):
        ResultTable(header=("a", "b"), rows=((1,),), manifest={})


def test_write_results_unknown_format(tmp_path):
    table = ResultTable(header=("a",), rows=((1,),), manifest={})
    with pytest.raises(DomainError, match="unknown format"):
        write_results(table, tmp_path / "out.xml", fmt="xml")


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "blocked"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "text")
    assert os.listdir(tmp_path) == ["blocked"]
    assert os.listdir(target) == []


def test_result_round_trip_on_scenario_shaped_table(tmp_path):
    rng = np.random.default_rng(99)
    rows = tuple(
        (int(rep), float(q), float(rng.standard_normal()))
        for rep in range(5)
        for q in (0.5, 0.9)
    )
    table = ResultTable(header=("rep", "q", "value"), rows=rows, manifest={"seed": 99})
    path = tmp_path / "sc.csv"
    write_results(table, path, fmt="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "rep,q,value"
    parsed = tuple(
        (int(r), float(q), float(v))
        for r, q, v in (line.split(",") for line in lines[1:])
    )
    assert parsed == rows
