"""Reader/writer behavior: format rules, error positions, round trips."""

import csv
import json
import math
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
    infer_kinds,
    manifest_path,
    read_delimited,
    read_sparse_labeled,
    write_delimited,
    write_results,
)
from normreg.io import csv_cell, json_value


def test_read_delimited_two_by_two(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,y\n0,1.5\n1,2.5\n")
    data = read_delimited(path, TableSchema(response="y"))
    assert (data.n, data.p) == (2, 1)
    assert infer_kinds(data.x) == (BINARY,)
    assert data.names == ("x",)
    assert np.array_equal(data.x[:, 0], [0.0, 1.0])
    assert np.array_equal(data.y, [1.5, 2.5])


def test_read_delimited_zero_one_two_is_continuous(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n0,1\n1,2\n2,3\n")
    data = read_delimited(path, TableSchema(response="y"))
    assert infer_kinds(data.x) == (CONTINUOUS,)


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
    x[:4, 0] = (-0.0, 5e-324, 1e308, -2.5e-17)
    y = rng.standard_normal(15)
    y[:3] = (0.1 + 0.2, -1e-300, 2.0**60)
    data = Dataset(x=x, y=y)
    path = tmp_path / "rt.csv"
    write_delimited(data, path)
    back = read_delimited(path, TableSchema(response="y"))
    # bit for bit, the sign of -0.0 included
    assert back.x.tobytes() == data.x.tobytes()
    assert back.y.tobytes() == data.y.tobytes()
    assert infer_kinds(back.x) == infer_kinds(data.x)
    assert back.names == data.names


def test_delimited_round_trip_of_names_that_need_quotes(tmp_path):
    data = Dataset(x=np.array([[1.0, 0.0], [0.5, 1.0]]), y=np.array([2.0, -1.0]),
                   names=("a,b", 'c"d'))
    path = tmp_path / "rt.csv"
    write_delimited(data, path)
    assert path.read_text().splitlines()[0] == '"a,b","c""d",y'
    back = read_delimited(path)
    assert back.names == data.names
    assert back.x.tolist() == data.x.tolist() and back.y.tolist() == data.y.tolist()


def test_read_delimited_reads_a_quoted_header_cell(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text('"a;b";y\n1;2\n3;4\n')
    data = read_delimited(path, TableSchema(delimiter=";"))
    assert data.names == ("a;b",)
    assert data.x.tolist() == [[1.0], [3.0]] and data.y.tolist() == [2.0, 4.0]


def test_read_delimited_unclosed_quote_reports_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('a,y\n1,2\n"3,4\n5,6\n')
    with pytest.raises(ParseError, match=r"\(line 3\)"):
        read_delimited(path)


def test_a_repeated_name_is_refused_not_swapped_for_the_response(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("\n y,b,y\n1,2,3\n")
    with pytest.raises(ParseError, match=r"column name 'y' repeated in the header \(line 2\)"):
        read_delimited(path)
    data = Dataset(x=np.array([[1.0, 2.0], [3.0, 5.0]]), y=np.array([0.0, 1.0]), names=("y", "b"))
    with pytest.raises(DomainError, match="feature named 'y'"):
        write_delimited(data, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


# one value of each kind a result row can hold
_CELLS = (-0.0, math.inf, -math.inf, math.nan, 0.1 + 0.2, np.float64(1e-300),
          np.float32(0.1), np.int64(-7), True, np.bool_(False), "a b", (1, 2.5), None)


@pytest.mark.parametrize("value", _CELLS, ids=repr)
def test_a_csv_cell_is_the_str_of_its_json_value(value):
    # as a CSV reader reads it: the text of (1, 2.5) holds a comma, so its
    # cell is quoted
    assert next(csv.reader([csv_cell(value)])) == [str(json_value(value))]


def test_write_results_csv_bytes_of_every_kind_of_cell(tmp_path):
    header = tuple(f"c{i}" for i in range(len(_CELLS)))
    table = ResultTable(header=header, rows=(_CELLS, _CELLS[::-1]), manifest={})
    path = tmp_path / "kinds.csv"
    write_results(table, path, fmt="csv")
    assert path.read_bytes() == (
        b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11,c12\n"
        b"-0.0,Inf,-Inf,NaN,0.30000000000000004,1e-300,0.10000000149011612,-7,True,"
        b"False,a b,\"[1, 2.5]\",None\n"
        b"None,\"[1, 2.5]\",a b,False,True,-7,0.10000000149011612,1e-300,"
        b"0.30000000000000004,NaN,-Inf,Inf,-0.0\n"
    )


def test_sparse_round_trip_exact_on_binary(tmp_path):
    path = tmp_path / "rt.sp"
    path.write_text("1.0 1:1.0 3:1.0\n-1.0\n-1.0 2:1.0 5:1.0\n1.0 5:1.0\n")
    x = np.zeros((4, 5))
    x[0, [0, 2]] = 1.0
    x[2, [1, 4]] = 1.0
    x[3, 4] = 1.0
    back = read_sparse_labeled(path)
    assert np.array_equal(back.x, x)
    assert np.array_equal(back.y, [1.0, -1.0, -1.0, 1.0])
    assert infer_kinds(back.x) == (BINARY,) * 5


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


def _blank_lines(path):
    path.write_text("\n   \n\t\n", encoding="utf-8")
    return read_sparse_labeled(path)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda path: TableSchema(delimiter=",;"), DomainError,
         "delimiter must be a single character, got ',;'"),
        (_blank_lines, ParseError, "empty file"),
        (lambda path: TableSchema(delimiter='"'), DomainError,
         "delimiter cannot be the quote character"),
    ],
    ids=["two-character-delimiter", "only-blank-lines", "quote-delimiter"],
)
def test_io_refuses_a_long_delimiter_and_a_sparse_file_of_blank_lines(
    call, error, message, tmp_path
):
    with pytest.raises(error, match=message):
        call(tmp_path / "in.txt")


def test_read_sparse_labeled_skips_blank_lines(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("1 2:0.5\n\n   \n-1 1:2\n", encoding="utf-8")
    data = read_sparse_labeled(path)
    assert data.y.tolist() == [1.0, -1.0]
    assert data.x.tolist() == [[0.0, 0.5], [2.0, 0.0]]
