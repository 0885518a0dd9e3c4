"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import CoDBNetwork, Database, parse_facts, parse_schema

#: ``HYPOTHESIS_PROFILE=deep`` runs the differentials randomized and at
#: depth (a CI job of its own, ``pytest tests``): every test outside
#: :data:`DEEP_FILES` is deselected, so this set is the one list of what
#: the job runs.  Their tier-1 settings stay pinned in their
#: decorators; under ``deep`` those pins are replaced at collection,
#: since explicit decorator settings outrank any profile.
settings.register_profile(
    "deep",
    max_examples=2000,
    derandomize=False,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
DEEP = os.environ.get("HYPOTHESIS_PROFILE") == "deep"
DEEP_FILES = {
    "test_cached_reads_differential.py",
    "test_delta_serving_differential.py",
    "test_frame_decoder.py",
    "test_implicit_acks.py",
}
if DEEP:
    settings.load_profile("deep")


def pytest_collection_modifyitems(config, items):
    if not DEEP:
        return
    deep = settings.get_profile("deep")
    selected = [item for item in items if item.path.name in DEEP_FILES]
    config.hook.pytest_deselected(
        items=[item for item in items if item.path.name not in DEEP_FILES]
    )
    items[:] = selected
    for item in selected:
        test = getattr(item, "function", None)
        pinned = getattr(test, "_hypothesis_internal_use_settings", None)
        if pinned is not None:
            test._hypothesis_internal_use_settings = settings(
                pinned, max_examples=deep.max_examples, derandomize=False
            )


@pytest.fixture
def person_schema():
    return parse_schema("person(name: str, age: int)")


@pytest.fixture
def person_db(person_schema):
    db = Database(person_schema)
    db.load(
        parse_facts(
            "person('anna', 24). person('bob', 17). person('carl', 30). "
            "person('dina', 24)"
        )
    )
    return db


@pytest.fixture
def graph_db():
    """A small directed graph for join-heavy queries."""
    schema = parse_schema("edge(src: int, dst: int)\nnode(id: int)")
    db = Database(schema)
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4), (1, 3)]
    db.load({"edge": edges, "node": [(i,) for i in range(1, 5)]})
    return db


@pytest.fixture
def two_node_network():
    """BZ publishes people; TN imports the Trento residents."""
    net = CoDBNetwork(seed=42)
    net.add_node(
        "BZ",
        "person(name: str, city: str)",
        facts=(
            "person('anna', 'Trento'). person('bob', 'Bolzano'). "
            "person('carla', 'Trento')"
        ),
    )
    net.add_node("TN", "resident(name: str)")
    net.add_rule("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
    net.start()
    return net


@pytest.fixture
def chain3_network():
    """C --r0--> B --r1--> A with an existential at B."""
    net = CoDBNetwork(seed=7)
    net.add_node("C", "raw(x: int)", facts="raw(1). raw(2). raw(3)")
    net.add_node("B", "mid(x: int, tag)")
    net.add_node("A", "top(x: int)")
    net.add_rule("B:mid(x, t) <- C:raw(x)")
    net.add_rule("A:top(x) <- B:mid(x, t)")
    net.start()
    return net
