"""CSV + schema ingestion into a heterogeneous temporal graph.

Tables become typed nodes (one per row), non-null foreign-key cells become
bidirectional typed edges. Timestamps are normalized to integer epoch
seconds; rows of non-target tables without a timestamp get -inf so they stay
reachable but always count as "in the past".
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import os
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

logger = logging.getLogger(__name__)

COLUMN_KINDS = {"numerical", "categorical", "timestamp", "primary_key", "foreign_key"}

# timestamp sentinel for rows without one (non-target tables only)
NO_TIMESTAMP = -math.inf


class SchemaError(ValueError):
    pass


class TableDataError(ValueError):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    target_table: str | None = None


@dataclass(frozen=True)
class TaskSpec:
    target_table: str
    target_column: str
    kind: str
    seed_time_column: str


@dataclass
class DatabaseSchema:
    tables: list[tuple[str, list[ColumnSpec]]]
    task: TaskSpec

    def table_names(self) -> list[str]:
        return [t for t, _ in self.tables]


def _field(obj, key: str, kind: type, where: str):
    """``obj[key]`` of the JSON object ``obj``, which must be a ``kind``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object, not {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where} has no {key!r}")
    if not isinstance(obj[key], kind):
        raise SchemaError(f"{where}: {key!r} must be a {kind.__name__}, "
                          f"not {type(obj[key]).__name__}")
    return obj[key]


def load_schema(path: str) -> DatabaseSchema:
    """Parse and validate the schema.json manifest."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot parse schema {path}: {exc}") from exc

    tables: list[tuple[str, list[ColumnSpec]]] = []
    names: set[str] = set()
    for t in _field(raw, "tables", list, "schema"):
        name = _field(t, "name", str, "table")
        if name in names:
            raise SchemaError(f"duplicate table name {name!r}")
        names.add(name)
        where = f"a column of table {name!r}"
        cols = [ColumnSpec(_field(c, "name", str, where), _field(c, "kind", str, where),
                           c.get("target_table"))
                for c in _field(t, "columns", list, f"table {name!r}")]
        seen: set[str] = set()
        for c in cols:
            if c.kind not in COLUMN_KINDS:
                raise SchemaError(f"unknown column kind {c.kind!r} in table {name!r}")
            if c.name in seen:
                raise SchemaError(f"duplicate column name {c.name!r} in table {name!r}")
            seen.add(c.name)
        pks = [c for c in cols if c.kind == "primary_key"]
        if len(pks) != 1:
            raise SchemaError(f"table {name!r} must have exactly one primary_key, found {len(pks)}")
        tables.append((name, cols))

    for name, cols in tables:
        for c in cols:
            if c.kind == "foreign_key" and c.target_table not in names:
                raise SchemaError(
                    f"unresolved foreign key: {name}.{c.name} -> {c.target_table!r}")

    task_raw = _field(raw, "task", dict, "schema")
    task = TaskSpec(*(_field(task_raw, key, str, "task") for key in
                      ("target_table", "target_column", "kind", "seed_time_column")))
    if task.target_table not in names:
        raise SchemaError(f"task target_table {task.target_table!r} unknown")
    target_kinds = {c.name: c.kind for c in dict(tables)[task.target_table]}
    for key, kind in (("target_column", "numerical"), ("seed_time_column", "timestamp")):
        found = target_kinds.get(getattr(task, key), "missing")
        if found != kind:
            raise SchemaError(f"task {key} {getattr(task, key)!r} is {found} in table "
                              f"{task.target_table!r}; it must be {kind}")
    if task.kind not in ("binary_classification", "regression"):
        raise SchemaError(f"unknown task kind {task.kind!r}")
    return DatabaseSchema(tables=tables, task=task)


# the largest |timestamp| in seconds that float64 holds exactly, with every
# whole second below it
MAX_EXACT_SECONDS = 2**53


def _inexact(text: str) -> str:
    return (f"timestamp {text.strip()!r} is beyond ±2**53 s, "
            "which float64 does not hold exactly")


def _parse_timestamp(text: str) -> int:
    text = text.strip()
    try:
        seconds = int(text)
    except ValueError:
        pass
    else:
        if abs(seconds) > MAX_EXACT_SECONDS:
            raise ValueError(_inexact(text))
        return seconds
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise TableDataError(f"unparseable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


# codes in TableColumns.fk_rows for a cell that names no row
NULL_FK = -1       # a blank cell
DANGLING_FK = -2   # a key that is no primary key of the target table
# per column kind stored as float64: the dtype a whole column is cast to
# first, the parser of one cell where that fails, and the value of a blank
def _not_finite(value: float) -> str:
    return f"{value} is not a finite number"


def _parse_number(text: str) -> float:
    """``float`` of a numerical cell; one that reads as infinite (``inf``,
    ``1e400``) is an error."""
    value = float(text)
    if math.isinf(value):
        raise ValueError(_not_finite(value))
    return value


FLOAT_KINDS = {"numerical": (np.float64, _parse_number, np.nan),
               "timestamp": (np.int64, _parse_timestamp, NO_TIMESTAMP)}


@dataclass
class TableColumns:
    """Typed column storage for one table."""
    n_rows: int
    pk: np.ndarray                            # str, primary key per row
    numerical: dict[str, np.ndarray]          # float64, NaN = missing
    categorical: dict[str, np.ndarray]        # int64 dense ids, -1 = missing
    categorical_vocab: dict[str, list[str]]   # first-seen interning order
    timestamps: dict[str, np.ndarray]         # float64 epoch seconds (-inf = missing)
    fk_rows: dict[str, np.ndarray]            # int64 target row, NULL_FK or DANGLING_FK


@dataclass
class TableData:
    tables: dict[str, TableColumns]


def load_tables(schema: DatabaseSchema, directory: str) -> TableData:
    """Read one <table>.csv per schema table and type every column.

    numpy's C reader splits a file into cells in one pass and parses its
    numerical columns to float64. Every other column is cast from the cell
    text as a whole (timestamps by ``int``); a column that does not cast (a
    blank cell, an ISO time) is parsed cell by cell, so every value and
    error is the one ``float`` or ``_parse_timestamp`` gives. A blank
    numerical cell is missing (NaN); one that reads as infinite (``inf``,
    ``1e400``) is an error.
    """
    out: dict[str, TableColumns] = {}
    for tname, cols in schema.tables:
        path = os.path.join(directory, f"{tname}.csv")
        if not os.path.exists(path):
            raise TableDataError(f"missing table file {path}")
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                out[tname] = _read_table(fh, path, tname, cols)
        except UnicodeDecodeError as exc:
            raise TableDataError(f"{path} is not UTF-8 text: {exc}") from exc
    for tname, cols in schema.tables:
        fk_rows = out[tname].fk_rows
        for c in cols:
            if c.kind == "foreign_key":  # its keys' text until here
                fk_rows[c.name] = _key_rows(fk_rows[c.name], out[c.target_table].pk)
    return TableData(tables=out)


def _read_table(fh, path: str, tname: str, cols: list[ColumnSpec]) -> TableColumns:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise TableDataError(f"{path} is empty")
    expected = [c.name for c in cols]
    if header != expected:
        raise TableDataError(f"{path} header mismatch: got {header}, expected {expected}")

    def read(parse_numbers: bool):
        # every column, so that a row with too few or too many cells fails
        dtype = [(f"c{j}", np.float64 if parse_numbers and c.kind == "numerical" else object)
                 for j, c in enumerate(cols)]
        fh.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # blank lines, no rows
            return np.loadtxt(fh, dtype, delimiter=",", quotechar='"', comments=None,
                              skiprows=reader.line_num, ndmin=1)

    def line(row: int) -> int:
        return next(itertools.islice(_csv_rows(fh), row, None))[0]

    try:
        rec = read(parse_numbers=True)
    except ValueError:
        try:
            rec = read(parse_numbers=False)
        except ValueError as exc:
            for n, cells in _csv_rows(fh):
                if len(cells) != len(cols):
                    raise TableDataError(f"{path} line {n}: " + (
                        f"no cell for column {expected[len(cells)]!r}" if len(cells) < len(cols)
                        else f"a cell past the last column {expected[-1]!r}")) from exc
            raise TableDataError(f"{path}: {exc}") from exc

    tc = TableColumns(n_rows=len(rec), pk=np.empty(0, dtype=str), numerical={}, categorical={},
                      categorical_vocab={}, timestamps={}, fk_rows={})
    for j, c in enumerate(cols):
        cells = rec[f"c{j}"]
        if c.kind in FLOAT_KINDS:
            dtype, parse, missing = FLOAT_KINDS[c.kind]
            try:  # float() or int() of every cell where numpy has not parsed them
                values = cells.astype(dtype)
            except (ValueError, OverflowError):
                values = np.full(len(cells), missing)
                for i, v in enumerate(cells.tolist()):
                    if v.strip():
                        try:
                            values[i] = parse(v)
                        except (ValueError, OverflowError) as exc:
                            raise TableDataError(f"{path} line {line(i)} column {c.name!r}: "
                                                 f"{exc}") from exc
            else:
                if c.kind == "timestamp":  # _parse_timestamp's check, on the whole column
                    inexact = np.flatnonzero((values > MAX_EXACT_SECONDS)
                                             | (values < -MAX_EXACT_SECONDS))
                    if len(inexact):
                        i = int(inexact[0])
                        raise TableDataError(f"{path} line {line(i)} column {c.name!r}: "
                                             f"{_inexact(cells[i])}")
                values = values.astype(np.float64, copy=False)
                if c.kind == "numerical":  # _parse_number's check, on the whole column
                    infinite = np.flatnonzero(np.isinf(values))
                    if len(infinite):
                        i = int(infinite[0])
                        raise TableDataError(f"{path} line {line(i)} column {c.name!r}: "
                                             f"{_not_finite(values[i])}")
            (tc.numerical if c.kind == "numerical" else tc.timestamps)[c.name] = values
            continue
        cells = cells.astype(str)
        if c.kind == "primary_key":
            tc.pk = cells
            order = np.argsort(cells, kind="stable")
            repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
            if len(repeats):  # the first repeat in row order
                row = int(repeats.min())
                raise TableDataError(f"{path} line {line(row)}: duplicate primary key "
                                     f"{str(cells[row])!r} in table {tname!r}")
        elif c.kind == "categorical":
            filled = np.flatnonzero(np.char.strip(cells) != "")
            vocab, first, inverse = np.unique(cells[filled], return_index=True,
                                              return_inverse=True)
            by_first = np.argsort(first)  # the vocabulary in first-seen order
            tc.categorical[c.name] = np.full(len(cells), -1, dtype=np.int64)
            tc.categorical[c.name][filled] = np.argsort(by_first)[inverse.reshape(-1)]
            tc.categorical_vocab[c.name] = vocab[by_first].tolist()
        else:  # a foreign key; load_tables finds its rows once every table is read
            tc.fk_rows[c.name] = cells
    return tc


def _key_rows(cells: np.ndarray, pk: np.ndarray) -> np.ndarray:
    """The row whose primary key each cell names, by binary search in the sorted keys."""
    order = np.argsort(pk)
    pos = np.searchsorted(pk[order], cells)
    found = pos < len(pk)
    found[found] = pk[order[pos[found]]] == cells[found]
    rows = np.full(len(cells), DANGLING_FK, dtype=np.int64)
    rows[found] = order[pos[found]]
    rows[np.char.strip(cells) == ""] = NULL_FK
    return rows


def _csv_rows(fh):
    """(line, cells) of each data row as csv.reader splits the file."""
    fh.seek(0)
    reader = csv.reader(fh)
    return ((reader.line_num, cells) for cells in itertools.islice(reader, 1, None) if cells)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: a sort and one neighbour comparison.

    ``np.unique`` takes a hash path for integers that costs several times
    more, on the small frontiers of the sampler as on whole edge lists.
    """
    out = np.array(values)
    out.sort()
    keep = np.empty(len(out), dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


@dataclass(frozen=True, eq=False)
class CsrAdjacency:
    """Per-node neighbour ids in compressed sparse row form.

    The neighbours of node ``u`` are ``indices[indptr[u]:indptr[u + 1]]``,
    ascending and without repeats.
    """
    indptr: np.ndarray   # int64, (n_nodes + 1,)
    indices: np.ndarray  # int64, (n_pairs,)

    @classmethod
    def from_pairs(cls, src: np.ndarray, dst: np.ndarray, n_nodes: int) -> CsrAdjacency:
        """Adjacency of the directed pairs ``src[i] -> dst[i]``, each kept once."""
        keys = sorted_unique(np.asarray(src, dtype=np.int64) * n_nodes
                             + np.asarray(dst, dtype=np.int64))
        rows = keys // n_nodes
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
        return cls(indptr=indptr, indices=keys - rows * n_nodes)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def __iter__(self):
        bounds = self.indptr.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield self.indices[lo:hi]

    def gather(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbours of ``nodes`` concatenated in order, and their counts."""
        starts, stops = self.indptr[nodes], self.indptr[1:][nodes]
        counts = stops - starts
        ends = counts.cumsum()
        # output position k, in node i's run [ends[i] - counts[i], ends[i]),
        # reads indices[stops[i] - ends[i] + k]
        idx = (stops - ends).repeat(counts) + np.arange(ends[-1] if len(ends) else 0)
        return self.indices[idx], counts


@dataclass
class RelGraph:
    """Immutable heterogeneous temporal graph over table rows."""
    n_nodes: int
    node_type: np.ndarray                 # int type id per node
    node_time: np.ndarray                 # float64 epoch seconds (-inf allowed)
    node_table: list[str]                 # table name per type id
    node_row: np.ndarray                  # row index within source table
    node_offset: dict[str, int]           # table -> first global node id
    adjacency: dict[str, CsrAdjacency]    # edge type -> neighbours per node
    merged_adjacency: CsrAdjacency        # union over all edge types
    dangling_fk_count: int = 0

    def node_id(self, table: str, row: int) -> int:
        return self.node_offset[table] + row


def reverse_edge_type(edge_type: str) -> str:
    return edge_type[:-4] if edge_type.endswith("_rev") else edge_type + "_rev"


def build_graph(schema: DatabaseSchema, tables: TableData) -> RelGraph:
    """One node per row, one bidirectional typed edge per non-null FK cell."""
    task = schema.task
    offsets: dict[str, int] = {}
    node_table: list[str] = []
    total = 0
    for tname, _ in schema.tables:
        offsets[tname] = total
        node_table.append(tname)
        total += tables.tables[tname].n_rows

    node_type = np.zeros(total, dtype=np.int64)
    node_time = np.full(total, NO_TIMESTAMP)
    node_row = np.zeros(total, dtype=np.int64)
    for type_id, (tname, cols) in enumerate(schema.tables):
        tc = tables.tables[tname]
        lo = offsets[tname]
        node_type[lo:lo + tc.n_rows] = type_id
        node_row[lo:lo + tc.n_rows] = np.arange(tc.n_rows)
        ts_cols = [c.name for c in cols if c.kind == "timestamp"]
        if ts_cols:
            # the first timestamp column is the node's tau
            node_time[lo:lo + tc.n_rows] = tc.timestamps[ts_cols[0]]
        if tname == task.target_table:
            seed_ts = tc.timestamps[task.seed_time_column]
            if np.any(~np.isfinite(seed_ts)):
                raise TableDataError("target-table row lacks a seed timestamp")
            node_time[lo:lo + tc.n_rows] = seed_ts

    adjacency: dict[str, CsrAdjacency] = {}
    all_src = [np.empty(0, dtype=np.int64)]
    all_dst = [np.empty(0, dtype=np.int64)]
    dangling = 0
    for tname, cols in schema.tables:
        tc = tables.tables[tname]
        for c in cols:
            if c.kind != "foreign_key":
                continue
            fwd = f"{tname}.{c.name}"
            rev = reverse_edge_type(fwd)
            target = tc.fk_rows[c.name]
            valid = target >= 0
            dangling += int(np.count_nonzero(target == DANGLING_FK))
            src = offsets[tname] + np.flatnonzero(valid)
            dst = offsets[c.target_table] + target[valid]
            adjacency[fwd] = CsrAdjacency.from_pairs(src, dst, total)
            adjacency[rev] = CsrAdjacency.from_pairs(dst, src, total)
            all_src += [src, dst]
            all_dst += [dst, src]
    if dangling:
        logger.warning("dropped %d dangling foreign-key edges", dangling)
    merged = CsrAdjacency.from_pairs(np.concatenate(all_src), np.concatenate(all_dst), total)
    return RelGraph(n_nodes=total, node_type=node_type, node_time=node_time,
                    node_table=node_table, node_row=node_row, node_offset=offsets,
                    adjacency=adjacency, merged_adjacency=merged,
                    dangling_fk_count=dangling)

