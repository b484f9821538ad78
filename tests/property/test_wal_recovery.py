"""Property: WAL recovery reproduces the live service, for any history.

For an arbitrary short mutation history — adds and removes of random
edges (no-ops included), with occasional mid-stream re-freezes, each of
which saves a snapshot and cuts the log — a fresh service recovered from
the WAL over the same base graph must answer single-source queries
bitwise like the live service that executed the history, at the same
``index_version``: recovery loads the snapshot the log follows and replays
the tail, and both are deterministic.  The history ends with a re-freeze.
A step that lists one edge in both ``add`` and ``remove`` is ambiguous:
the service must reject it as a bad request and log nothing, so recovery
still matches.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import BackendConfig
from repro.graphs import generators
from repro.service import (
    ERROR_BAD_REQUEST,
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
            # Re-freezes are rare but must occur: they are what saves a
            # snapshot and cuts the log mid-history.
            "refreeze": st.sampled_from([False, False, False, True]),
        }
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=8, deadline=None)
@given(ops=operations)
@example(
    ops=[
        {"add": [], "remove": [], "refreeze": False},
        {"add": [(1, 0)], "remove": [(1, 0)], "refreeze": False},
    ]
)
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
        if set(op["add"]) & set(op["remove"]):
            assert not result.ok
            assert result.error.code == ERROR_BAD_REQUEST
        else:
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
    live_session = service.open_dataset(DATASET)
    assert session.graph.num_edges == live_session.graph.num_edges
    assert session.index_version == live_session.index_version
    for node in PROBES:
        replayed = recovered.execute(SingleSourceQuery(DATASET, node=node))
        assert replayed.ok
        assert replayed.value.tolist() == live[node], node
