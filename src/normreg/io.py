"""Dataset readers and result writers.

Two input formats are supported: delimited text with an optional header, and
the sparse "label idx:val" format used by several public benchmark
distributions (1-based, strictly increasing indices per line). Parsing is
locale-independent: the decimal separator is always '.', and the special
tokens NaN/Inf are rejected on read because no downstream computation
accepts non-finite cells.

Result tables are written as CSV (header + newline-terminated records) or as
a JSON array of records. Floats are rendered with repr, i.e. the shortest
string that round-trips. Every write is atomic (temp file + rename) and
drops a sidecar `<out>.manifest.json` describing how the table was produced.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DomainError, ParseError

_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class TableSchema:
    """How to interpret a delimited file.

    response selects the response column by header name (str) or 0-based
    position (int). Column kinds are always inferred from the values.
    """

    delimiter: str = ","
    header: bool = True
    response: str | int = "y"

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1:
            raise DomainError(f"delimiter must be a single character, got {self.delimiter!r}")


def _parse_cell(token: str, line_no: int, col_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"non-numeric cell {token!r}", line=line_no, column=col_no
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"non-finite cell {token!r} (NaN/Inf are not accepted)", line=line_no, column=col_no
        )
    return value


def read_delimited(path, schema: TableSchema = TableSchema()) -> Dataset:
    """Parse a delimited text file into a Dataset.

    Ragged rows and non-numeric cells raise ParseError with the 1-based line
    (and column) position. Column kinds are inferred: a column whose values
    all lie in {0, 1} is binary, anything else continuous. Row order is
    preserved.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        raw_lines = handle.read().splitlines()
    lines = [(i + 1, line) for i, line in enumerate(raw_lines) if line.strip() != ""]
    if not lines:
        raise ParseError(f"{path}: empty file", line=1)

    if schema.header:
        header_no, header_line = lines[0]
        names = [cell.strip() for cell in header_line.split(schema.delimiter)]
        body = lines[1:]
    else:
        width = len(lines[0][1].split(schema.delimiter))
        names = [f"x{j + 1}" for j in range(width)]
        body = lines
    if not body:
        raise ParseError(f"{path}: no data rows", line=lines[-1][0])

    matrix = []
    for line_no, line in body:
        cells = line.split(schema.delimiter)
        if len(cells) != len(names):
            raise ParseError(
                f"expected {len(names)} cells, found {len(cells)}", line=line_no
            )
        matrix.append(
            [_parse_cell(cell.strip(), line_no, j + 1) for j, cell in enumerate(cells)]
        )

    if isinstance(schema.response, int):
        if not 0 <= schema.response < len(names):
            raise DomainError(
                f"response index {schema.response} out of range for {len(names)} columns"
            )
        response_idx = schema.response
    else:
        try:
            response_idx = names.index(schema.response)
        except ValueError:
            raise DomainError(
                f"response column {schema.response!r} not found in {names}"
            ) from None

    table = np.asarray(matrix, dtype=np.float64)
    y = table[:, response_idx]
    x = np.delete(table, response_idx, axis=1)
    feature_names = tuple(name for j, name in enumerate(names) if j != response_idx)
    return Dataset(x=x, y=y, names=feature_names)


def read_sparse_labeled(path) -> Dataset:
    """Parse "label idx:val" lines into a dense Dataset.

    Indices are 1-based and must be strictly increasing within a line
    (duplicates and decreasing runs are parse errors); absent indices are 0;
    p is the largest index observed anywhere. A line with no index:value
    pairs is an all-zero row.
    """
    labels: list[float] = []
    sparse_rows: list[list[tuple[int, float]]] = []
    p = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if line.strip() == "":
                continue
            tokens = list(_TOKEN.finditer(line))
            label_tok = tokens[0]
            labels.append(_parse_cell(label_tok.group(), line_no, label_tok.start() + 1))
            row: list[tuple[int, float]] = []
            last_idx = 0
            for tok in tokens[1:]:
                col_no = tok.start() + 1
                text = tok.group()
                idx_text, sep, val_text = text.partition(":")
                if not sep:
                    raise ParseError(
                        f"expected idx:val, got {text!r}", line=line_no, column=col_no
                    )
                try:
                    idx = int(idx_text)
                except ValueError:
                    raise ParseError(
                        f"non-integer index {idx_text!r}", line=line_no, column=col_no
                    ) from None
                if idx <= 0:
                    raise ParseError(
                        f"index must be positive, got {idx}", line=line_no, column=col_no
                    )
                if idx == last_idx:
                    raise ParseError(
                        f"duplicate index {idx}", line=line_no, column=col_no
                    )
                if idx < last_idx:
                    raise ParseError(
                        f"indices must be increasing, got {idx} after {last_idx}",
                        line=line_no,
                        column=col_no,
                    )
                value = _parse_cell(val_text, line_no, col_no + len(idx_text) + 1)
                row.append((idx, value))
                last_idx = idx
            if row:
                p = max(p, row[-1][0])
            sparse_rows.append(row)
    if not sparse_rows:
        raise ParseError(f"{path}: empty file", line=1)
    x = np.zeros((len(sparse_rows), p))
    for i, row in enumerate(sparse_rows):
        for idx, value in row:
            x[i, idx - 1] = value
    return Dataset(x=x, y=np.asarray(labels))


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            return _format_value(value)
        return value
    return value


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see
    a partial file and failed writes leave nothing behind."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class ResultTable:
    """A header, rows of equal width, and a manifest describing provenance."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    manifest: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "header", tuple(self.header))
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        if not self.rows:
            raise DomainError("result table must be non-empty")
        widths = {len(row) for row in self.rows}
        if widths != {len(self.header)}:
            raise DomainError("every row must match the header width")


CSV = "csv"
JSON = "json"


def manifest_path(path) -> str:
    return os.fspath(path) + ".manifest.json"


def json_records(table: ResultTable) -> list[dict]:
    """The rows of table as records keyed by header names, with numpy scalars
    as Python values and non-finite floats as the strings NaN, Inf and -Inf."""
    return [{key: _json_value(v) for key, v in zip(table.header, row)} for row in table.rows]


def write_results(table: ResultTable, path, fmt: str = CSV) -> None:
    """Write a result table and its sidecar manifest atomically.

    CSV output is a header row plus one newline-terminated record per row;
    JSON output is an array of records keyed by header names. Both get the
    manifest at manifest_path(path).
    """
    if fmt == CSV:
        lines = [",".join(table.header)]
        for row in table.rows:
            lines.append(",".join(_format_value(v) for v in row))
        atomic_write_text(path, "\n".join(lines) + "\n")
    elif fmt == JSON:
        atomic_write_text(path, json.dumps(json_records(table), indent=2, sort_keys=False) + "\n")
    else:
        raise DomainError(f"unknown format {fmt!r}; expected {CSV!r} or {JSON!r}")
    atomic_write_text(
        manifest_path(path), json.dumps(table.manifest, indent=2, sort_keys=True) + "\n"
    )


def write_delimited(data: Dataset, path) -> None:
    """Write a Dataset as delimited text with a header (inverse of
    read_delimited with the default schema)."""
    lines = [",".join([*data.names, "y"])]
    for i in range(data.n):
        cells = [_format_value(v) for v in data.x[i]]
        cells.append(_format_value(data.y[i]))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_sparse_labeled(data: Dataset, path) -> None:
    """Write a Dataset in "label idx:val" form, omitting zero entries."""
    lines = []
    for i in range(data.n):
        parts = [_format_value(data.y[i])]
        for j in range(data.p):
            value = data.x[i, j]
            if value != 0.0:
                parts.append(f"{j + 1}:{_format_value(value)}")
        lines.append(" ".join(parts))
    atomic_write_text(path, "\n".join(lines) + "\n")
