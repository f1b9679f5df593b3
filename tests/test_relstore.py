import copy
import csv
import json
import logging
import math
import os
import tempfile
from collections import defaultdict
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generate_db
from relgauss import relstore
from relgauss.synthgen import SynthConfig
from relgauss.relstore import (DANGLING_FK, NO_TIMESTAMP, NULL_FK, SchemaError,
                               TableDataError, build_graph, load_schema, load_tables,
                               reverse_edge_type)

BASE_SCHEMA = {
    "tables": [
        {"name": "users", "columns": [
            {"name": "user_id", "kind": "primary_key"},
            {"name": "tier", "kind": "categorical"},
            {"name": "score", "kind": "numerical"},
            {"name": "joined", "kind": "timestamp"},
            {"name": "label", "kind": "numerical"},
        ]},
        {"name": "orders", "columns": [
            {"name": "order_id", "kind": "primary_key"},
            {"name": "user_id", "kind": "foreign_key", "target_table": "users"},
            {"name": "placed", "kind": "timestamp"},
            {"name": "amount", "kind": "numerical"},
        ]},
    ],
    "task": {"target_table": "users", "target_column": "label",
             "kind": "binary_classification", "seed_time_column": "joined"},
}

USERS_CSV = """user_id,tier,score,joined,label
u1,gold,1.5,1000000,1
u2,silver,,2000000,0
u3,gold,-0.5,2020-01-01T00:00:00+00:00,1
"""

ORDERS_CSV = """order_id,user_id,placed,amount
o1,u1,500,10.0
o2,u1,600,20.0
o3,u2,700,
o4,u3,2019-06-01,5.0
"""


@pytest.fixture
def db(tmp_path):
    (tmp_path / "schema.json").write_text(json.dumps(BASE_SCHEMA))
    (tmp_path / "users.csv").write_text(USERS_CSV)
    (tmp_path / "orders.csv").write_text(ORDERS_CSV)
    return tmp_path


def write_schema(tmp_path, raw):
    p = tmp_path / "schema.json"
    p.write_text(json.dumps(raw))
    return str(p)


# -- schema loading ---------------------------------------------------------


def test_load_schema_roundtrip(db):
    schema = load_schema(str(db / "schema.json"))
    assert schema.table_names() == ["users", "orders"]
    assert schema.task.target_column == "label"
    assert [c.kind for c in dict(schema.tables)["orders"]] == [
        "primary_key", "foreign_key", "timestamp", "numerical"]


def test_schema_duplicate_table_rejected(tmp_path):
    raw = {"tables": [BASE_SCHEMA["tables"][0]] * 2, "task": BASE_SCHEMA["task"]}
    with pytest.raises(SchemaError, match="duplicate table"):
        load_schema(write_schema(tmp_path, raw))


@pytest.mark.parametrize("n_pks", [0, 2])
def test_schema_requires_exactly_one_primary_key(tmp_path, n_pks):
    cols = [{"name": f"pk{i}", "kind": "primary_key"} for i in range(n_pks)]
    cols.append({"name": "x", "kind": "numerical"})
    raw = {"tables": [{"name": "t", "columns": cols}],
           "task": {"target_table": "t", "target_column": "x",
                    "kind": "regression", "seed_time_column": "x"}}
    with pytest.raises(SchemaError, match="exactly one primary_key"):
        load_schema(write_schema(tmp_path, raw))


def test_schema_unresolved_foreign_key(tmp_path):
    raw = json.loads(json.dumps(BASE_SCHEMA))
    raw["tables"][1]["columns"][1]["target_table"] = "ghost"
    with pytest.raises(SchemaError, match="unresolved foreign key"):
        load_schema(write_schema(tmp_path, raw))


def test_schema_unknown_column_kind(tmp_path):
    raw = json.loads(json.dumps(BASE_SCHEMA))
    raw["tables"][0]["columns"][1]["kind"] = "vector"
    with pytest.raises(SchemaError, match="unknown column kind"):
        load_schema(write_schema(tmp_path, raw))


def test_schema_task_validation(tmp_path):
    raw = json.loads(json.dumps(BASE_SCHEMA))
    raw["task"]["target_table"] = "ghost"
    with pytest.raises(SchemaError):
        load_schema(write_schema(tmp_path, raw))
    raw = json.loads(json.dumps(BASE_SCHEMA))
    raw["task"]["target_column"] = "ghost"
    with pytest.raises(SchemaError):
        load_schema(write_schema(tmp_path, raw))
    raw = json.loads(json.dumps(BASE_SCHEMA))
    raw["task"]["kind"] = "ranking"
    with pytest.raises(SchemaError, match="task kind"):
        load_schema(write_schema(tmp_path, raw))


@pytest.mark.parametrize("key, column, found, kind", [
    ("target_column", "tier", "categorical", "numerical"),
    ("target_column", "joined", "timestamp", "numerical"),
    ("seed_time_column", "score", "numerical", "timestamp"),
    ("seed_time_column", "ghost", "missing", "timestamp"),
])
def test_schema_task_columns_need_their_kind(tmp_path, key, column, found, kind):
    raw = json.loads(json.dumps(BASE_SCHEMA))
    raw["task"][key] = column
    with pytest.raises(SchemaError, match=f"task {key} '{column}' is {found} in table "
                                          f"'users'; it must be {kind}"):
        load_schema(write_schema(tmp_path, raw))


def test_schema_unparseable_json(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_schema(str(p))


# -- table loading ----------------------------------------------------------


def test_load_tables_types_every_column(db):
    schema = load_schema(str(db / "schema.json"))
    tables = load_tables(schema, str(db))
    users = tables.tables["users"]
    assert users.n_rows == 3
    assert users.pk.tolist() == ["u1", "u2", "u3"]
    # missing numerical -> NaN
    assert math.isnan(users.numerical["score"][1])
    # categorical interning in first-seen order
    assert users.categorical_vocab["tier"] == ["gold", "silver"]
    np.testing.assert_array_equal(users.categorical["tier"], [0, 1, 0])
    # ISO timestamp parsed as UTC epoch seconds
    assert users.timestamps["joined"][2] == 1577836800
    orders = tables.tables["orders"]
    assert math.isnan(orders.numerical["amount"][2])
    assert orders.fk_rows["user_id"].tolist() == [0, 0, 1, 2]


def test_naive_iso_timestamp_is_utc(db):
    schema = load_schema(str(db / "schema.json"))
    tables = load_tables(schema, str(db))
    # 2019-06-01 without a zone offset
    assert tables.tables["orders"].timestamps["placed"][3] == 1559347200


def test_header_mismatch_rejected(db):
    (db / "users.csv").write_text("user_id,tier,score,label,joined\n")
    schema = load_schema(str(db / "schema.json"))
    with pytest.raises(TableDataError, match="header mismatch"):
        load_tables(schema, str(db))


def test_duplicate_primary_key_rejected(db):
    (db / "users.csv").write_text(
        "user_id,tier,score,joined,label\nu1,g,1,5,0\nu1,g,2,6,1\n")
    schema = load_schema(str(db / "schema.json"))
    with pytest.raises(TableDataError, match="duplicate primary key"):
        load_tables(schema, str(db))


def test_missing_table_file_rejected(db):
    (db / "orders.csv").unlink()
    schema = load_schema(str(db / "schema.json"))
    with pytest.raises(TableDataError, match="missing table file"):
        load_tables(schema, str(db))


def test_empty_table_file_rejected(db):
    (db / "orders.csv").write_text("")
    schema = load_schema(str(db / "schema.json"))
    with pytest.raises(TableDataError, match="empty"):
        load_tables(schema, str(db))


def test_unparseable_timestamp_rejected(db):
    (db / "orders.csv").write_text(
        "order_id,user_id,placed,amount\no1,u1,not-a-time,1\n")
    schema = load_schema(str(db / "schema.json"))
    with pytest.raises(TableDataError, match="unparseable timestamp"):
        load_tables(schema, str(db))


@pytest.mark.parametrize("cell, parser", [
    (str(2**53 + 1), "whole column"),   # an int64 that float64 rounds to 2**53
    (str(-(2**60 + 1)), "whole column"),
    ("99999999999999999999", "per cell"),  # past int64: int() of the cell
])
def test_a_timestamp_float64_cannot_hold_exactly_is_rejected(db, cell, parser):
    (db / "orders.csv").write_text(
        f"order_id,user_id,placed,amount\no1,u1,5,1\no2,u1,{cell},2\n")
    schema = load_schema(str(db / "schema.json"))
    with pytest.raises(TableDataError, match=rf"line 3 column 'placed': timestamp "
                                             rf"'{cell}' is beyond ±2\*\*53 s"):
        load_tables(schema, str(db))


def test_timestamps_of_2_to_the_53_load_exactly(db):
    (db / "orders.csv").write_text(
        f"order_id,user_id,placed,amount\no1,u1,{2**53},1\no2,u1,-{2**53},2\n")
    schema = load_schema(str(db / "schema.json"))
    placed = load_tables(schema, str(db)).tables["orders"].timestamps["placed"]
    assert placed.tolist() == [2.0**53, -2.0**53]


# -- equivalence with the per-cell parser -----------------------------------


def oracle_load_tables(schema, directory):
    """The loader as it was before numpy parsed the CSVs: csv.reader rows,
    every cell parsed in Python, foreign keys kept as text. Two changes:
    blank lines hold no row (this loader used to fail on them with an
    IndexError), and a numerical cell that reads as infinite is refused."""
    out = {}
    for tname, cols in schema.tables:
        path = os.path.join(directory, f"{tname}.csv")
        if not os.path.exists(path):
            raise TableDataError(f"missing table file {path}")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TableDataError(f"{path} is empty")
            expected = [c.name for c in cols]
            if header != expected:
                raise TableDataError(
                    f"{path} header mismatch: got {header}, expected {expected}")
            rows = [r for r in reader if r]

        n = len(rows)
        tc = SimpleNamespace(n_rows=n, pk=[], pk_index={}, numerical={}, categorical={},
                             categorical_vocab={}, timestamps={}, foreign={})
        for j, c in enumerate(cols):
            raw = [r[j] for r in rows]
            if c.kind == "primary_key":
                for i, v in enumerate(raw):
                    if v in tc.pk_index:
                        raise TableDataError(
                            f"duplicate primary key {v!r} in table {tname!r}")
                    tc.pk_index[v] = i
                tc.pk = raw
            elif c.kind == "numerical":
                vals = np.full(n, np.nan)
                for i, v in enumerate(raw):
                    if v.strip():
                        vals[i] = float(v)
                        if np.isinf(vals[i]):
                            raise TableDataError(f"{vals[i]} is not a finite number")
                tc.numerical[c.name] = vals
            elif c.kind == "categorical":
                vocab = []
                interned = {}
                ids = np.full(n, -1, dtype=np.int64)
                for i, v in enumerate(raw):
                    if not v.strip():
                        continue
                    if v not in interned:
                        interned[v] = len(vocab)
                        vocab.append(v)
                    ids[i] = interned[v]
                tc.categorical[c.name] = ids
                tc.categorical_vocab[c.name] = vocab
            elif c.kind == "timestamp":
                ts = np.full(n, NO_TIMESTAMP)
                for i, v in enumerate(raw):
                    if v.strip():
                        ts[i] = relstore._parse_timestamp(v)
                tc.timestamps[c.name] = ts
            elif c.kind == "foreign_key":
                tc.foreign[c.name] = [v if v.strip() else None for v in raw]
        out[tname] = tc
    return out


def assert_same_arrays(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name  # NaN bits too


def assert_matches_oracle(schema, directory):
    """load_tables gives the oracle's tables bit for bit, or raises
    TableDataError wherever the oracle raises; returns the tables."""
    try:
        want = oracle_load_tables(schema, str(directory))
    except Exception as oracle_exc:
        with pytest.raises(TableDataError) as exc:
            load_tables(schema, str(directory))
        # a row with the wrong cell count is now found before any cell is
        # parsed; the oracle failed on it with an IndexError, or on a cell
        if "no cell for column" not in str(exc.value):
            assert str(oracle_exc) in str(exc.value)
        return None
    got = load_tables(schema, str(directory)).tables
    for tname, cols in schema.tables:
        g, w = got[tname], want[tname]
        assert g.n_rows == w.n_rows
        assert g.pk.tolist() == w.pk
        assert_same_arrays(g.numerical, w.numerical)
        assert_same_arrays(g.categorical, w.categorical)
        assert_same_arrays(g.timestamps, w.timestamps)
        assert g.categorical_vocab == w.categorical_vocab
        expect_rows = {c.name: np.array(
            [NULL_FK if v is None else want[c.target_table].pk_index.get(v, DANGLING_FK)
             for v in w.foreign[c.name]], dtype=np.int64) for c in cols
            if c.kind == "foreign_key"}
        assert_same_arrays(g.fk_rows, expect_rows)
    return got


def write_tables(tmp_path, users, orders):
    write_schema(tmp_path, BASE_SCHEMA)
    (tmp_path / "users.csv").write_text(users, encoding="utf-8")
    (tmp_path / "orders.csv").write_text(orders, encoding="utf-8")
    return load_schema(str(tmp_path / "schema.json"))


USERS_HEADER = "user_id,tier,score,joined,label\n"
ORDERS_HEADER = "order_id,user_id,placed,amount\n"


@pytest.mark.parametrize("users, orders", [
    # blank and all-space cells in every column kind
    ("u1,,,,\n  , ,  ,\t, \n", "o1,,,\no2,  , , \n"),
    # surrounding spaces, exponents, nan, inf, underscores, signs
    ("u1, gold , 1e3 ,+5,nan\nu2,gold,-inf, -7 ,1_000\nu3,Gold,inf,0012,-0.0\n",
     "o1,u1,1_000,+2.5\no2,u2,-0,  -1e-3  \n"),
    # int64 overflow and a timestamp above 2**53: both sides refuse it
    (f"u1,a,1,{2**53 + 1},0\nu2,a,2,{2**63},0\nu3,a,3,-{2**64},1\n",
     f"o1,u1,{2**62 + 3},1\n"),
    # ISO times with and without a UTC offset, next to plain ints
    ("u1,a,1,2020-01-01T00:00:00+05:30,0\nu2,b,2,1577836800,1\n",
     "o1,u1,2019-06-01,1\no2,u2,2021-03-04 05:06:07-08:00,2\n"),
    # quoted fields holding a comma, a newline or doubled quotes
    ('"u,1","g ""x""",1,5,0\n"u\n2","a\r\nb",2,6,1\n',
     '"o""1","u,1",7,"3"\no2,"u\n2", "8",4\n'),
    # header-only tables
    ("", ""),
    ("u1,a,1,5,0\n", ""),
    # null and dangling foreign keys
    ("u1,a,1,5,0\nu2,a,2,6,1\n", "o1,ghost,1,1\no2,,2,2\no3, ,3,3\no4,u2,4,4\no5, u1,5,5\n"),
    # duplicate keys: the row-order scan meets "u2" again before "u1"
    ("u1,a,1,5,0\nu2,a,2,6,1\nu2,a,3,7,0\nu1,a,4,8,1\n", ""),
    # unparseable cells
    ("u1,a,abc,5,0\n", ""),
    ("u1,a,1,not-a-time,0\n", ""),
    ("u1,a,1,1.0,0\n", ""),
    ("u1,a,1,1e400,0\n", ""),
])
def test_load_tables_matches_per_cell_oracle(tmp_path, users, orders):
    schema = write_tables(tmp_path, USERS_HEADER + users, ORDERS_HEADER + orders)
    assert_matches_oracle(schema, tmp_path)


def test_dangling_and_null_keys_become_row_codes(tmp_path):
    schema = write_tables(tmp_path, USERS_HEADER + "u1,a,1,5,0\nu2,a,2,6,1\n",
                          ORDERS_HEADER + "o1,ghost,1,1\no2,,2,2\no3,u2,3,3\no4,u1 ,4,4\n")
    tables = assert_matches_oracle(schema, tmp_path)
    assert tables["orders"].fk_rows["user_id"].tolist() == [DANGLING_FK, NULL_FK, 1, DANGLING_FK]
    assert build_graph(schema, load_tables(schema, str(tmp_path))).dangling_fk_count == 2


def test_duplicate_key_named_as_a_row_order_scan_meets_it(tmp_path):
    users = "u1,a,1,5,0\nu2,a,2,6,1\nu2,a,3,7,0\nu1,a,4,8,1\n"
    schema = write_tables(tmp_path, USERS_HEADER + users, ORDERS_HEADER)
    with pytest.raises(TableDataError, match=r"users.csv line 4: duplicate primary key 'u2'"):
        load_tables(schema, str(tmp_path))


def test_load_tables_matches_oracle_on_synthetic_dbs(tmp_path):
    for seed in (1, 2):
        out = tmp_path / str(seed)
        schema, _ = generate_db(SynthConfig(n_entities=60, rng_seed=seed), str(out))
        tables = assert_matches_oracle(schema, out)
        assert tables["events"].n_rows > 0


def test_blank_lines_are_skipped(tmp_path):
    schema = write_tables(tmp_path, USERS_HEADER + "u1,a,1,5,0\n\nu2,b,2,6,1\n\n",
                          ORDERS_HEADER + "\r\no1,u2,3,4\n")
    tables = load_tables(schema, str(tmp_path)).tables
    assert tables["users"].pk.tolist() == ["u1", "u2"]
    assert tables["orders"].fk_rows["user_id"].tolist() == [1]


@pytest.mark.parametrize("users, message", [
    ("u1,a,1,5,0\nu2,a,2\n", r"users.csv line 3: no cell for column 'joined'"),
    ("u1,a,1,5,0,9\n", r"users.csv line 2: a cell past the last column 'label'"),
    ('"u\n1",a,1,5,0\nu2,a,x,6,0\n', r"users.csv line 4 column 'score': could not convert"),
    ("u1,a,1,5,0\nu2,a,1,2020-13-01,0\n", r"users.csv line 3 column 'joined': unparseable"),
])
def test_bad_rows_and_cells_name_file_column_and_line(tmp_path, users, message):
    schema = write_tables(tmp_path, USERS_HEADER + users, ORDERS_HEADER)
    with pytest.raises(TableDataError, match=message):
        load_tables(schema, str(tmp_path))


def test_invalid_utf8_rejected(tmp_path):
    schema = write_tables(tmp_path, USERS_HEADER, ORDERS_HEADER)
    (tmp_path / "users.csv").write_bytes(USERS_HEADER.encode() + b"u\xff,a,1,5,0\n")
    with pytest.raises(TableDataError, match="UTF-8"):
        load_tables(schema, str(tmp_path))


def mostly(common, rare):
    """Draws from ``common`` nineteen times in twenty, else from ``rare``."""
    return st.integers(0, 19).flatmap(lambda k: rare if k == 0 else common)


# any cell text but NUL, which numpy's fixed-width strings drop at the end
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=4)
KEY = st.text(alphabet='ab ,"\n\r', max_size=3)
NUMBER = mostly(
    st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
              st.sampled_from(["", " ", "1e3", " 2.5 ", "nan", "-nan", "Infinity", "1_000",
                               "+5", "-0", "1.0", "١٢", "1e999", "\u20031 "])),
    st.one_of(TEXT, st.sampled_from(["abc", "0x10", "1,5", "--1"])))
OFFSET = st.integers(-23 * 60, 23 * 60).map(lambda m: timezone(timedelta(minutes=m)))
TIMESTAMP = mostly(
    st.one_of(st.integers(-2**70, 2**70).map(str),
              st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2200, 1, 1),
                           timezones=st.none() | OFFSET).map(datetime.isoformat),
              st.sampled_from(["", " ", "1_000", "+5", " 12 ", str(2**53 + 1), str(2**63),
                               "2019-06-01", "٣", "\u200312"])),
    st.one_of(TEXT, st.sampled_from(["1.0", "1e3", "2020-13-01", "nan"])))
CATEGORY = st.one_of(st.sampled_from(["a", " a", "a ", "", " ", "\u2003", "b"]), TEXT)


def keys(n):
    """n primary keys, with a repeat once in twenty draws."""
    return mostly(st.lists(KEY, min_size=n, max_size=n, unique=True),
                  st.lists(KEY, min_size=n, max_size=n))


@st.composite
def databases(draw):
    users = draw(st.lists(st.tuples(CATEGORY, NUMBER, TIMESTAMP, NUMBER), max_size=6))
    users = [(k, *u) for k, u in zip(draw(keys(len(users))), users)]
    fk = st.one_of(st.sampled_from([u[0] for u in users] + ["", " ", "ghost"]), KEY)
    orders = draw(st.lists(st.tuples(fk, TIMESTAMP, NUMBER), max_size=6))
    orders = [(k, *o) for k, o in zip(draw(keys(len(orders))), orders)]
    return users, orders, draw(st.sampled_from(["\n", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(db=databases())
def test_load_tables_matches_oracle_on_random_cells(db):
    users, orders, newline = db
    with tempfile.TemporaryDirectory() as tmp:
        schema_path = os.path.join(tmp, "schema.json")
        with open(schema_path, "w") as fh:
            json.dump(BASE_SCHEMA, fh)
        for name, header, rows in (("users", USERS_HEADER, users),
                                   ("orders", ORDERS_HEADER, orders)):
            with open(os.path.join(tmp, f"{name}.csv"), "w", newline="",
                      encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator=newline)
                writer.writerow(header.strip().split(","))
                writer.writerows(rows)
        assert_matches_oracle(load_schema(schema_path), tmp)


# -- graph construction -----------------------------------------------------


def load_all(db):
    schema = load_schema(str(db / "schema.json"))
    tables = load_tables(schema, str(db))
    return schema, tables, build_graph(schema, tables)


def test_graph_one_node_per_row(db):
    schema, tables, graph = load_all(db)
    assert graph.n_nodes == 7
    assert graph.node_offset == {"users": 0, "orders": 3}
    np.testing.assert_array_equal(graph.node_type, [0, 0, 0, 1, 1, 1, 1])
    assert graph.node_id("orders", 2) == 5


def test_graph_bidirectional_typed_edges(db):
    schema, tables, graph = load_all(db)
    assert list(graph.adjacency) == ["orders.user_id", "orders.user_id_rev"]
    # u1 (node 0) owns orders o1 (3) and o2 (4)
    assert graph.adjacency["orders.user_id_rev"][0].tolist() == [3, 4]
    assert graph.adjacency["orders.user_id"][3].tolist() == [0]
    assert graph.merged_adjacency[0].tolist() == [3, 4]
    assert graph.merged_adjacency[4].tolist() == [0]


def test_graph_node_times(db):
    schema, tables, graph = load_all(db)
    # target-table nodes use the task seed column
    assert graph.node_time[0] == 1000000
    # event nodes use their own timestamp column
    assert graph.node_time[3] == 500


def test_missing_non_target_timestamp_is_minus_inf(db):
    (db / "orders.csv").write_text(
        "order_id,user_id,placed,amount\no1,u1,,1.0\n")
    schema, tables, graph = load_all(db)
    assert graph.node_time[3] == -math.inf


def test_missing_seed_timestamp_rejected(db):
    (db / "users.csv").write_text(
        "user_id,tier,score,joined,label\nu1,g,1,,0\n")
    schema = load_schema(str(db / "schema.json"))
    tables = load_tables(schema, str(db))
    with pytest.raises(TableDataError, match="seed timestamp"):
        build_graph(schema, tables)


def test_dangling_foreign_key_dropped_with_warning(db, caplog):
    (db / "orders.csv").write_text(
        "order_id,user_id,placed,amount\no1,ghost,500,1.0\no2,u1,600,2.0\n")
    schema = load_schema(str(db / "schema.json"))
    tables = load_tables(schema, str(db))
    with caplog.at_level(logging.WARNING, logger="relgauss.relstore"):
        graph = build_graph(schema, tables)
    assert graph.dangling_fk_count == 1
    assert "dangling" in caplog.text
    # the dangling row still exists as a node, just without that edge
    assert graph.n_nodes == 5
    assert graph.merged_adjacency[3].tolist() == []


def test_null_foreign_key_creates_no_edge(db):
    (db / "orders.csv").write_text(
        "order_id,user_id,placed,amount\no1,,500,1.0\n")
    schema, tables, graph = load_all(db)
    assert graph.dangling_fk_count == 0
    assert graph.merged_adjacency[3].tolist() == []


def test_neighbors_unknown_edge_type(db):
    schema, tables, graph = load_all(db)
    with pytest.raises(KeyError):
        graph.adjacency["nope"]


def test_reverse_edge_type_involution():
    assert reverse_edge_type("orders.user_id") == "orders.user_id_rev"
    assert reverse_edge_type("orders.user_id_rev") == "orders.user_id"


def test_adjacency_sorted_ascending(db):
    schema, tables, graph = load_all(db)
    for adj in graph.adjacency.values():
        for nbrs in adj:
            assert nbrs.tolist() == sorted(nbrs.tolist())


# -- equivalence with a brute-force graph -----------------------------------


def reference_graph(schema, tables):
    """Adjacency as dicts of sets, built cell by cell from the oracle's FK text."""
    offsets, total = {}, 0
    for tname, _ in schema.tables:
        offsets[tname] = total
        total += tables[tname].n_rows
    typed, merged, dangling = {}, defaultdict(set), 0
    for tname, cols in schema.tables:
        for c in cols:
            if c.kind != "foreign_key":
                continue
            fwd, rev = defaultdict(set), defaultdict(set)
            target = tables[c.target_table]
            for i, v in enumerate(tables[tname].foreign[c.name]):
                if v is None:
                    continue
                if v not in target.pk_index:
                    dangling += 1
                    continue
                u = offsets[tname] + i
                w = offsets[c.target_table] + target.pk_index[v]
                fwd[u].add(w)
                rev[w].add(u)
                merged[u].add(w)
                merged[w].add(u)
            typed[f"{tname}.{c.name}"] = fwd
            typed[f"{tname}.{c.name}_rev"] = rev
    return total, typed, merged, dangling


def assert_graph_matches_reference(schema, directory):
    graph = build_graph(schema, load_tables(schema, str(directory)))
    total, typed, merged, dangling = reference_graph(
        schema, oracle_load_tables(schema, str(directory)))
    assert graph.n_nodes == total
    assert list(graph.adjacency) == list(typed)
    for edge_type, ref in typed.items():
        adj = graph.adjacency[edge_type]
        assert len(adj) == total
        assert [a.tolist() for a in adj] == [sorted(ref[u]) for u in range(total)]
    assert len(graph.merged_adjacency) == total
    assert [a.tolist() for a in graph.merged_adjacency] == \
        [sorted(merged[u]) for u in range(total)]
    assert graph.dangling_fk_count == dangling
    return graph


def test_graph_matches_reference_with_null_and_dangling_keys(db):
    (db / "orders.csv").write_text(
        "order_id,user_id,placed,amount\n"
        "o1,u1,500,1.0\no2,ghost,600,2.0\no3,,700,3.0\no4,u3,800,4.0\no5,u1,900,5.0\n")
    schema = load_schema(str(db / "schema.json"))
    graph = assert_graph_matches_reference(schema, db)
    assert graph.dangling_fk_count == 1
    assert graph.merged_adjacency[0].tolist() == [3, 7]


def test_graph_matches_reference_with_two_keys_to_one_row(tmp_path):
    raw = copy.deepcopy(BASE_SCHEMA)
    raw["tables"][1]["columns"].insert(
        2, {"name": "referrer_id", "kind": "foreign_key", "target_table": "users"})
    write_schema(tmp_path, raw)
    (tmp_path / "users.csv").write_text(USERS_CSV)
    (tmp_path / "orders.csv").write_text(
        "order_id,user_id,referrer_id,placed,amount\n"
        "o1,u1,u1,500,1.0\no2,u1,u2,600,2.0\no3,u2,,700,3.0\n")
    schema = load_schema(str(tmp_path / "schema.json"))
    graph = assert_graph_matches_reference(schema, tmp_path)
    # o1 (node 3) names u1 (node 0) twice: one edge of each type, one merged
    assert graph.adjacency["orders.user_id"][3].tolist() == [0]
    assert graph.adjacency["orders.referrer_id"][3].tolist() == [0]
    assert graph.merged_adjacency[3].tolist() == [0]
    assert graph.merged_adjacency[0].tolist() == [3, 4]


def test_graph_matches_reference_without_foreign_keys(tmp_path):
    raw = copy.deepcopy(BASE_SCHEMA)
    raw["tables"] = raw["tables"][:1]
    write_schema(tmp_path, raw)
    (tmp_path / "users.csv").write_text(USERS_CSV)
    schema = load_schema(str(tmp_path / "schema.json"))
    graph = assert_graph_matches_reference(schema, tmp_path)
    assert graph.adjacency == {}
    assert len(graph.merged_adjacency.indices) == 0


def test_graph_matches_reference_on_synthetic_db(tmp_path):
    schema, _ = generate_db(SynthConfig(n_entities=80, rng_seed=4), str(tmp_path))
    graph = assert_graph_matches_reference(schema, tmp_path)
    assert len(graph.merged_adjacency.indices) > 0


def test_csr_gather_concatenates_neighbour_slices(db):
    schema, tables, graph = load_all(db)
    adj = graph.merged_adjacency
    for nodes in ([0, 4, 1], [2], [5, 5], []):
        nbrs, counts = adj.gather(np.array(nodes, dtype=np.int64))
        expect = [adj[u].tolist() for u in nodes]
        assert counts.tolist() == [len(e) for e in expect]
        assert nbrs.tolist() == [v for e in expect for v in e]
