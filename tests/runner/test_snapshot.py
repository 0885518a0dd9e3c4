"""Snapshots fail closed.

A snapshot file carries a format tag and a version, and the loader
refuses anything else.  Restoring decodes every section against the
node before touching it, so a malformed snapshot raises
:class:`SnapshotError` and leaves the node exactly as it was — never a
node with its facts loaded and its link memories half restored.
Hypothesis mutates a valid snapshot anywhere to check that.
"""

from __future__ import annotations

import copy
import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import CoDBNetwork
from repro.errors import SnapshotError
from repro.runner.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    read_snapshot,
    restore_node,
    snapshot_node,
    write_snapshot,
)

SCHEMA = "item(k)\ntag(k, w)"


def chain() -> CoDBNetwork:
    """N0 <- N1 <- N2; N1 both imports (``fired``) and serves
    (``pushed``), with bools, floats and minted nulls in its memories."""
    net = CoDBNetwork(seed=7, with_superpeer=False)
    net.add_node("N0", SCHEMA)
    net.add_node("N1", SCHEMA, facts={"item": [(1,), ("x",)]})
    net.add_node("N2", SCHEMA, facts={"item": [(2.5,), (True,), (3,)]})
    net.add_rule("N0:item(k) <- N1:item(k)")
    net.add_rule("N1:item(k) <- N2:item(k)")
    net.add_rule("N1:tag(k, w) <- N2:item(k)")
    net.start()
    return net


def state(node) -> tuple:
    return (
        node.snapshot(),
        {rule: set(link.fired) for rule, link in node.links.outgoing.items()},
        {rule: set(link.pushed) for rule, link in node.links.incoming.items()},
        dict(node.cache.epochs),
    )


@pytest.fixture(scope="module")
def updated():
    net = chain()
    net.global_update("N0")
    return net.node("N1")


@pytest.fixture(scope="module")
def payload(updated) -> dict:
    return snapshot_node(updated)


def test_a_snapshot_round_trips_through_its_file(updated, payload, tmp_path):
    path = str(tmp_path / "n1.json")
    write_snapshot(path, payload)
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    assert (raw["format"], raw["version"]) == (SNAPSHOT_FORMAT, SNAPSHOT_VERSION)
    assert read_snapshot(path) == payload
    node = chain().node("N1")
    restore_node(node, read_snapshot(path))
    facts, fired, pushed, _epochs = state(node)
    assert all(fired.values()) and all(pushed.values())
    assert (facts, fired, pushed) == state(updated)[:3]


@pytest.mark.parametrize(
    "header",
    [
        {"format": None},
        {"format": "codb-snapshot-2"},
        {"version": None},
        {"version": 2},
        {"version": "1"},
        {"version": True},
    ],
    ids=["no-tag", "other-tag", "no-version", "newer", "string", "bool"],
)
def test_a_file_of_another_format_or_version_is_refused(payload, tmp_path, header):
    path = tmp_path / "n1.json"
    write_snapshot(str(path), payload)
    raw = json.loads(path.read_text(encoding="utf-8"))
    for field, value in header.items():
        if value is None:
            del raw[field]
        else:
            raw[field] = value
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(SnapshotError):
        read_snapshot(str(path))


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"codb-snapshot"'])
def test_a_file_that_is_no_object_is_refused(tmp_path, text):
    path = tmp_path / "n1.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SnapshotError):
        read_snapshot(str(path))


def test_a_bad_key_after_good_facts_leaves_the_node_untouched(payload):
    broken = copy.deepcopy(payload)
    # Facts load first in the file; the last key of the last section
    # is the one that is wrong.
    broken["fired"]["r2"].append([{"$null": ""}])
    node = chain().node("N1")
    before = state(node)
    with pytest.raises(SnapshotError):
        restore_node(node, broken)
    assert state(node) == before


def paths(value, prefix=()):
    """Every position in a JSON value, as a tuple of keys/indexes."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.fixed_dictionaries({"$null": st.text(max_size=3)}),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@given(data=st.data())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_mutated_snapshot_restores_identically_or_raises_untouched(payload, data):
    mutated = copy.deepcopy(payload)
    path = data.draw(st.sampled_from(list(paths(mutated))[1:]), label="path")
    *parents, last = path
    container = mutated
    for step in parents:
        container = container[step]
    if data.draw(st.booleans(), label="delete"):
        del container[last]
    else:
        container[last] = data.draw(JSON, label="value")
    node = chain().node("N1")
    before = state(node)
    try:
        restore_node(node, mutated)
    except SnapshotError:
        assert state(node) == before
        return
    twin = chain().node("N1")
    restore_node(twin, mutated)
    assert state(node) == state(twin)
