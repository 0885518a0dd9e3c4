"""Ablations (E10): the engine without its §3 optimisations.

All configurations must reach the same final state; the degraded ones
pay for it in messages and bytes.
"""

import pytest

from repro.baselines import (
    FULL_REEVALUATION,
    NO_DEDUP,
    NO_DEDUP_FULL_REEVALUATION,
    PAPER_ENGINE,
)
from repro.workloads import chain, ring

CONFIGS = {
    "paper": PAPER_ENGINE,
    "full-reeval": FULL_REEVALUATION,
    "no-dedup": NO_DEDUP,
    "naive": NO_DEDUP_FULL_REEVALUATION,
}


def run(blueprint, config, seed=3, tuples=15):
    net = blueprint.build(seed=seed, tuples_per_node=tuples, config=config)
    outcome = net.global_update(blueprint.origin)
    snapshot = {name: node.snapshot() for name, node in net.nodes.items()}
    return outcome, snapshot


def rows_shipped(outcome):
    return sum(
        traffic.rows_received
        for report in outcome.report.node_reports.values()
        for traffic in report.per_rule.values()
    )


class TestSameAnswers:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_chain_state_identical(self, name):
        _, baseline = run(chain(4), PAPER_ENGINE)
        _, snapshot = run(chain(4), CONFIGS[name])
        assert snapshot == baseline

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_ring_state_identical(self, name):
        _, baseline = run(ring(4), PAPER_ENGINE)
        _, snapshot = run(ring(4), CONFIGS[name])
        assert snapshot == baseline


class TestCosts:
    def test_no_dedup_sends_more_rows_on_chain(self):
        paper, _ = run(chain(5), PAPER_ENGINE)
        naive, _ = run(chain(5), NO_DEDUP)
        assert rows_shipped(naive) >= rows_shipped(paper)

    @pytest.mark.parametrize("blueprint", [chain(5), ring(4)], ids=["chain", "ring"])
    def test_fully_naive_sends_more_bytes(self, blueprint):
        # With both optimisations off, every delta triggers a full
        # re-evaluation whose entire output is resent — strictly more
        # bytes than the paper engine on any multi-hop topology, and
        # never fewer rows.
        paper, _ = run(blueprint, PAPER_ENGINE)
        naive, _ = run(blueprint, NO_DEDUP_FULL_REEVALUATION)
        assert naive.report.total_bytes > paper.report.total_bytes
        assert rows_shipped(naive) >= rows_shipped(paper)

    def test_paper_engine_never_worse_on_messages(self):
        for blueprint in (chain(4), ring(4)):
            paper, _ = run(blueprint, PAPER_ENGINE)
            for name, config in CONFIGS.items():
                other, _ = run(blueprint, config)
                assert other.report.total_messages >= paper.report.total_messages, name
