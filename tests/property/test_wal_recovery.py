"""Property: WAL recovery reproduces the live service, for any history.

For an arbitrary short mutation history — adds and removes of random
edges (no-ops included), with occasional mid-stream re-freezes driving
checkpoint folds — a fresh service recovered from the WAL over the same
base graph must answer single-source queries within float tolerance of
the live service that executed the history.  The history ends with a
re-freeze so both sides compare frozen stores (bitwise rebuild parity
makes the comparison exact up to float noise rather than ``eps_stale``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BackendConfig
from repro.graphs import generators
from repro.service import (
    MutateRequest,
    ServiceConfig,
    SimRankService,
    SingleSourceQuery,
)

DATASET = "toy"
NUM_NODES = 30
PROBES = (0, 7, 14, 21, 29)


def make_service(wal_dir) -> SimRankService:
    config = ServiceConfig(
        scale=0.05,
        backend="sling",
        backend_config=BackendConfig(epsilon=0.15, seed=0),
        wal_dir=str(wal_dir),
    )
    service = SimRankService(config)
    service.open_dataset(
        DATASET, graph=generators.two_level_community(3, 10, seed=7)
    )
    return service


edges = st.tuples(
    st.integers(0, NUM_NODES - 1), st.integers(0, NUM_NODES - 1)
).filter(lambda e: e[0] != e[1])

operations = st.lists(
    st.fixed_dictionaries(
        {
            "add": st.lists(edges, max_size=2),
            "remove": st.lists(edges, max_size=2),
            # Re-freezes are rare but must occur: they are what folds the
            # log into a checkpoint mid-history.
            "refreeze": st.sampled_from([False, False, False, True]),
        }
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=8, deadline=None)
@given(ops=operations)
def test_recovered_service_matches_live(tmp_path_factory, ops):
    wal_dir = tmp_path_factory.mktemp("wal")
    service = make_service(wal_dir)
    for index, op in enumerate(ops):
        result = service.execute_control(
            MutateRequest(
                dataset=DATASET,
                add=op["add"],
                remove=op["remove"],
                refreeze=op["refreeze"],
                mutation_id=f"prop-{index}",
            )
        )
        assert result.ok, result.error
    final = service.execute_control(
        MutateRequest(dataset=DATASET, refreeze=True, mutation_id="prop-final")
    )
    assert final.ok, final.error

    live = {
        node: service.execute(SingleSourceQuery(DATASET, node=node)).value.tolist()
        for node in PROBES
    }

    recovered = make_service(wal_dir)
    session = recovered.open_dataset(DATASET)
    assert session.graph.num_edges == service.open_dataset(DATASET).graph.num_edges
    for node in PROBES:
        replayed = recovered.execute(SingleSourceQuery(DATASET, node=node))
        assert replayed.ok
        assert replayed.value.tolist() == pytest.approx(live[node], abs=1e-6), node
