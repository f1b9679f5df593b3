import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generate_db
from relgauss.relstore import TableDataError, build_graph
from relgauss.synthgen import SIGNAL_THRESHOLD, SynthConfig, temporal_split, write_db


def recompute_labels(config, tables):
    """Independent re-application of the planted rule to loaded tables."""
    entities = tables.tables["entities"]
    events = tables.tables["events"]
    in_window = np.abs(events.timestamps["event_time"] - config.t_star) <= config.w
    relevant = in_window & (events.numerical["intensity"] >= SIGNAL_THRESHOLD)
    owners = events.fk_rows["entity_id"][relevant]
    return (np.bincount(owners, minlength=entities.n_rows) >= config.k_min).astype(np.int64)


@pytest.fixture(scope="module")
def small_db(tmp_path_factory):
    cfg = SynthConfig(n_entities=150, rng_seed=11)
    out = tmp_path_factory.mktemp("sdb")
    schema, tables = generate_db(cfg, str(out))
    return cfg, schema, tables


def test_same_seed_byte_identical(tmp_path):
    cfg = SynthConfig(n_entities=40, rng_seed=3)
    write_db(cfg, str(tmp_path / "a"))
    write_db(cfg, str(tmp_path / "b"))
    for name in ("schema.json", "entities.csv", "events.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_different_seed_differs(tmp_path):
    write_db(SynthConfig(n_entities=40, rng_seed=3), str(tmp_path / "a"))
    write_db(SynthConfig(n_entities=40, rng_seed=4), str(tmp_path / "b"))
    assert (tmp_path / "a" / "events.csv").read_bytes() != \
        (tmp_path / "b" / "events.csv").read_bytes()


def test_emitted_labels_match_recomputed_rule(small_db):
    cfg, schema, tables = small_db
    emitted = tables.tables["entities"].numerical["label"].astype(int)
    np.testing.assert_array_equal(recompute_labels(cfg, tables), emitted)
    assert 0.3 < emitted.mean() < 0.7  # roughly balanced classes


def test_every_event_precedes_owner_seed_time(small_db):
    cfg, schema, tables = small_db
    entities = tables.tables["entities"]
    events = tables.tables["events"]
    owners = events.fk_rows["entity_id"]
    assert (owners >= 0).all()
    assert (events.timestamps["event_time"] < entities.timestamps["seed_time"][owners]).all()


def test_no_noise_kmin_one_any_in_window_event_is_positive(tmp_path):
    cfg = SynthConfig(n_entities=200, k_min=1, noise_event_fraction=0.0,
                      rng_seed=5)
    schema, tables = generate_db(cfg, str(tmp_path))
    entities = tables.tables["entities"]
    events = tables.tables["events"]
    has_in_window = np.zeros(entities.n_rows, dtype=bool)
    for i, owner in enumerate(events.fk_rows["entity_id"]):
        if abs(events.timestamps["event_time"][i] - cfg.t_star) <= cfg.w:
            has_in_window[owner] = True
    labels = entities.numerical["label"].astype(int)
    np.testing.assert_array_equal(labels, has_in_window.astype(int))


def test_window_after_all_seed_times_gives_all_negative(tmp_path):
    # seed times sit ~6w after t_star by default; moving the window center
    # past every seed leaves no causally reachable slot inside it
    cfg = SynthConfig(n_entities=100, rng_seed=6, t_star=2_000_000_000,
                      seed_lead_seconds=-50 * 86400)
    schema, tables = generate_db(cfg, str(tmp_path))
    assert tables.tables["entities"].numerical["label"].sum() == 0


def test_partner_edges_give_two_hop_entity_neighbors(small_db):
    cfg, schema, tables = small_db
    graph = build_graph(schema, tables)
    assert set(graph.adjacency) == {"events.entity_id", "events.entity_id_rev",
                                    "events.partner_id", "events.partner_id_rev"}
    # partner is never the owner
    events = tables.tables["events"]
    owners, partners = events.fk_rows["entity_id"], events.fk_rows["partner_id"]
    assert (owners >= 0).all() and (partners >= 0).all()
    assert (owners != partners).all()


def test_in_window_intensity_separates_classes(small_db):
    cfg, schema, tables = small_db
    events = tables.tables["events"]
    entities = tables.tables["entities"]
    labels = entities.numerical["label"].astype(int)
    in_win = np.abs(events.timestamps["event_time"] - cfg.t_star) <= cfg.w
    owner_rows = events.fk_rows["entity_id"]
    pos_in = events.numerical["intensity"][in_win & (labels[owner_rows] == 1)]
    assert (pos_in >= SIGNAL_THRESHOLD).mean() > 0.9
    # out-of-window intensity is class-uninformative: both classes see the
    # same mixture, so the means stay close
    out_pos = events.numerical["intensity"][~in_win & (labels[owner_rows] == 1)]
    out_neg = events.numerical["intensity"][~in_win & (labels[owner_rows] == 0)]
    assert abs(out_pos.mean() - out_neg.mean()) < 0.15


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(w=0)
    with pytest.raises(ValueError):
        SynthConfig(noise_event_fraction=1.5)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_entities"):
            SynthConfig(n_entities=n)
    with pytest.raises(ValueError, match="n_events_per_entity"):
        SynthConfig(n_events_per_entity=-1.0)
    SynthConfig(n_entities=1, n_events_per_entity=0.0)


# -- temporal splitting -----------------------------------------------------


def test_split_sizes_and_order(small_db):
    cfg, schema, tables = small_db
    train, val, test = temporal_split(schema, tables, (0.6, 0.2, 0.2))
    assert len(train) + len(val) + len(test) == 150
    assert len(train) == 90 and len(val) == 30
    times = tables.tables["entities"].timestamps["seed_time"]
    assert max(times[train]) <= min(times[test])
    assert max(times[train]) <= min(times[val]) <= min(times[test])


def test_split_tie_break_by_row_id(tmp_path, monkeypatch):
    cfg = SynthConfig(n_entities=10, rng_seed=1)
    schema, tables = generate_db(cfg, str(tmp_path))
    tables.tables["entities"].timestamps["seed_time"][:] = 777.0
    train, val, test = temporal_split(schema, tables, (0.6, 0.2, 0.2))
    assert train == list(range(6)) and val == [6, 7] and test == [8, 9]


def test_split_invalid_fractions(small_db):
    cfg, schema, tables = small_db
    with pytest.raises(ValueError, match="sum to 1"):
        temporal_split(schema, tables, (0.5, 0.2, 0.2))


def test_split_empty_part_rejected(tmp_path):
    cfg = SynthConfig(n_entities=2, rng_seed=1)
    schema, tables = generate_db(cfg, str(tmp_path))
    with pytest.raises(TableDataError, match="empty split: the 2 rows of 'entities'"):
        temporal_split(schema, tables, (0.9, 0.05, 0.05))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_split_never_leaks_future_rows(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    times = rng.integers(0, 1000, size=n).astype(np.float64)

    class FakeCols:
        n_rows = n
        timestamps = {"seed_time": times}

    class FakeTables:
        tables = {"entities": FakeCols()}

    class FakeTask:
        target_table = "entities"
        seed_time_column = "seed_time"

    class FakeSchema:
        task = FakeTask()

    train, val, test = temporal_split(FakeSchema(), FakeTables(), (0.5, 0.25, 0.25))
    assert max(times[train]) <= min(times[test])
