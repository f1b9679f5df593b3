import copy
import json
import logging
import math
from collections import defaultdict

import numpy as np
import pytest

from relgauss import relstore
from relgauss.synthgen import SynthConfig, generate_db
from relgauss.relstore import (SchemaError, TableDataError, build_graph,
                               load_schema, load_tables, neighbors,
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
    assert [c.kind for c in schema.table("orders")] == [
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
    assert users.pk_index == {"u1": 0, "u2": 1, "u3": 2}
    # missing numerical -> NaN
    assert math.isnan(users.numerical["score"][1])
    # categorical interning in first-seen order
    assert users.categorical_vocab["tier"] == ["gold", "silver"]
    np.testing.assert_array_equal(users.categorical["tier"], [0, 1, 0])
    # ISO timestamp parsed as UTC epoch seconds
    assert users.timestamps["joined"][2] == 1577836800
    orders = tables.tables["orders"]
    assert math.isnan(orders.numerical["amount"][2])
    assert orders.foreign["user_id"] == ["u1", "u1", "u2", "u3"]


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
    assert graph.edge_types == ["orders.user_id", "orders.user_id_rev"]
    # u1 (node 0) owns orders o1 (3) and o2 (4)
    assert neighbors(graph, 0, "orders.user_id_rev") == [3, 4]
    assert neighbors(graph, 3, "orders.user_id") == [0]
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
        neighbors(graph, 0, "nope")


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
    """Adjacency as dicts of sets, built cell by cell from the FK columns."""
    offsets, total = {}, 0
    for tname, _ in schema.tables:
        offsets[tname] = total
        total += tables.tables[tname].n_rows
    typed, merged, dangling = {}, defaultdict(set), 0
    for tname, cols in schema.tables:
        for c in cols:
            if c.kind != "foreign_key":
                continue
            fwd, rev = defaultdict(set), defaultdict(set)
            target = tables.tables[c.target_table]
            for i, v in enumerate(tables.tables[tname].foreign[c.name]):
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


def assert_graph_matches_reference(schema, tables):
    graph = build_graph(schema, tables)
    total, typed, merged, dangling = reference_graph(schema, tables)
    assert graph.n_nodes == total
    assert graph.edge_types == list(typed)
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
    graph = assert_graph_matches_reference(schema, load_tables(schema, str(db)))
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
    graph = assert_graph_matches_reference(schema, load_tables(schema, str(tmp_path)))
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
    graph = assert_graph_matches_reference(schema, load_tables(schema, str(tmp_path)))
    assert graph.edge_types == [] and graph.adjacency == {}
    assert len(graph.merged_adjacency.indices) == 0


def test_graph_matches_reference_on_synthetic_db(tmp_path):
    schema, tables = generate_db(SynthConfig(n_entities=80, rng_seed=4), str(tmp_path))
    graph = assert_graph_matches_reference(schema, tables)
    assert len(graph.merged_adjacency.indices) > 0


def test_csr_gather_concatenates_neighbour_slices(db):
    schema, tables, graph = load_all(db)
    adj = graph.merged_adjacency
    for nodes in ([0, 4, 1], [2], [5, 5], []):
        nbrs, counts = adj.gather(np.array(nodes, dtype=np.int64))
        expect = [adj[u].tolist() for u in nodes]
        assert counts.tolist() == [len(e) for e in expect]
        assert nbrs.tolist() == [v for e in expect for v in e]
