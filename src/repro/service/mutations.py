"""The mutation control-plane: applying edge deltas to live sessions.

This module is the service-side half of the dynamic-graph subsystem
(:mod:`repro.sling.dynamic` is the index-side half).  A
:class:`~repro.service.control.MutateRequest` arrives like any other
control request; :func:`apply_mutation` turns it into an in-place update of
the named session:

1. the session's ``sling`` engine is found (or built — the in-memory
   ``sling`` backend is the one mutable backend today, and it is promoted
   to a :class:`~repro.sling.dynamic.DynamicSlingIndex` on first mutation
   without rebuilding);
2. the edge delta is applied incrementally, yielding a
   :class:`~repro.sling.dynamic.MutationReport` with the exact set of
   source nodes whose answers may have changed;
3. the *same* :class:`~repro.engine.QueryEngine` object keeps serving — its
   single-source LRU is scoped to the new ``index_version`` via
   :meth:`~repro.engine.QueryEngine.invalidate_cache`, dropping only the
   affected sources' vectors (unaffected entries survive and keep hitting);
4. the session's graph handle is swapped to the mutated graph and every
   *other* engine (built against the pre-mutation graph) is dropped, to be
   rebuilt lazily on next use;
5. the ack reports the new monotonic ``index_version`` and the certified
   staleness bound ``ε_stale`` so clients can reason about what they read.

``refreeze=True`` additionally re-estimates every correction factor
(restoring bitwise rebuild-parity answers) before acknowledging; because
that resamples every ``d̃_k``, it clears the whole cache rather than an
affected subset.

Everything here is duck-typed against :class:`SimRankService` /
:class:`DatasetSession` rather than importing them, so the service module
can import this one without a cycle.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from ..exceptions import ParameterError, ReproError
from ..graphs import datasets
from .results import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_NODE_OUT_OF_RANGE,
    ERROR_UNAVAILABLE,
    ERROR_UNKNOWN_DATASET,
    QueryResult,
)

__all__ = ["apply_mutation", "mutate_session", "recover_session"]


def mutate_session(session, added=(), removed=(), *, refreeze=False) -> dict:
    """Apply an edge delta to one open session, in place; returns the ack.

    Raises :class:`~repro.exceptions.ParameterError` when no
    mutation-capable backend is available for the session (e.g. it serves a
    shared read-only ``sling-disk`` index) and
    :class:`~repro.exceptions.GraphFormatError` for malformed deltas.
    """
    # Every alias of the in-memory SLING backend shares the session's one
    # "sling" engine, the only place a mutable backend lives — unless a
    # prebuilt index was attached read-only under that key.
    engine = session.engine("sling")
    if not engine.backend.supports_mutation:
        raise ParameterError(
            f"dataset {session.name!r} is served by backend "
            f"{engine.backend.info.name!r}, which does not support "
            "graph mutation (shared on-disk indexes are read-only)"
        )
    backend = engine.backend
    report = backend.apply_mutation(added, removed)
    refrozen = False
    if refreeze:
        refrozen = backend.refreeze()
    version = backend.index_version

    # Invalidate (bumping the engine's version) *before* publishing the
    # session version: the engine's version must never trail the session's,
    # or a query could serve a pre-mutation cached vector stamped with the
    # new version.  The benign direction — a fresher answer under the old
    # stamp — is the one mid-mutation races are allowed to produce.
    if refrozen and refreeze:
        # The re-freeze resampled every correction factor: all vectors are
        # stale, not just the mutation's affected set.
        invalidated = engine.invalidate_cache(None, index_version=version)
    else:
        invalidated = engine.invalidate_cache(
            report.affected_sources, index_version=version
        )

    with session._lock:
        session._graph = backend.graph
        session._index_version = version
        # The mutated engine stays the session's "sling" engine; engines
        # built against the pre-mutation graph are dropped and rebuild
        # lazily, and every label resolves afresh on its next query.
        session._engines = OrderedDict(sling=engine)
        session._by_label = {}
    return {
        "dataset": session.name,
        "index_version": version,
        "epsilon_stale": backend.staleness_bound(),
        "edges_added": report.edges_added,
        "edges_removed": report.edges_removed,
        "affected_targets": report.affected_targets,
        "affected_sources": len(report.affected_sources),
        "invalidated_vectors": invalidated,
        "refrozen": refrozen,
        "backend": backend.info.name,
        "repair_seconds": report.seconds,
    }


def recover_session(session, wal) -> dict:
    """Replay a WAL (checkpoint + tail) into a freshly opened session.

    The checkpoint is applied as one ``refreeze=True`` mutation — its net
    delta fully describes the re-frozen generation, and the re-freeze's
    bitwise rebuild parity makes the result reproduce the generation the
    crashed worker was serving.  The tail records then replay in append
    order; each re-packs the store a rebuild would, and re-estimates the
    same heads' ``d̃``.  Post-recovery answers therefore match the
    pre-crash dynamic index within the certified ``eps_stale`` bound.
    """
    replayed = 0
    checkpoint = wal.checkpoint_payload
    if checkpoint is not None:
        added = [tuple(edge) for edge in checkpoint.get("added", ())]
        removed = [tuple(edge) for edge in checkpoint.get("removed", ())]
        if added or removed:
            mutate_session(session, added, removed, refreeze=True)
            replayed += 1
    for record in wal.records:
        mutate_session(
            session,
            [tuple(edge) for edge in record.get("add", ())],
            [tuple(edge) for edge in record.get("remove", ())],
            refreeze=bool(record.get("refreeze")),
        )
        replayed += 1
    return {"replayed": replayed, "truncated_bytes": wal.truncated_bytes}


def apply_mutation(service, request, start: float | None = None) -> QueryResult:
    """Execute one ``mutate`` control request against ``service``.

    Owns its whole error mapping (unknown dataset / out-of-range endpoints /
    unsupported backend) so :meth:`SimRankService.execute_control` can
    delegate without growing mutation-specific branches.
    """
    if start is None:
        start = time.perf_counter()
    kind, dataset = request.kind, request.dataset

    def fail(code: str, message: str) -> QueryResult:
        return QueryResult.failure(
            code, message, kind=kind, dataset=dataset,
            seconds=time.perf_counter() - start,
        )

    try:
        session = service.open_dataset(dataset)
    except ParameterError as exc:
        known = any(
            key.lower() == dataset.lower() for key in datasets.dataset_names()
        )
        return fail(ERROR_INTERNAL if known else ERROR_UNKNOWN_DATASET, str(exc))
    except Exception as exc:  # noqa: BLE001 - the boundary must not leak
        return fail(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}")

    n = session.num_nodes
    bad = [
        (u, v)
        for u, v in (*request.add, *request.remove)
        if u >= n or v >= n
    ]
    if bad:
        described = ", ".join(f"({u}, {v})" for u, v in bad[:5])
        return fail(
            ERROR_NODE_OUT_OF_RANGE,
            f"edge endpoint(s) out of range for dataset {session.name!r} "
            f"with {n} nodes: {described}",
        )

    wal = service.wal_for(session.name) if hasattr(service, "wal_for") else None
    mutation_id = getattr(request, "mutation_id", None)
    if wal is not None and mutation_id is not None and wal.known(mutation_id):
        # A retried mutate that was already acknowledged: answer with the
        # originally recorded ack (or a minimal synthesised one when the
        # record was folded into a checkpoint) without applying twice.
        ack = wal.recorded_ack(mutation_id)
        if ack is None:
            ack = {
                "dataset": session.name,
                "index_version": session.index_version,
                "backend": "sling",
            }
        ack = {**ack, "deduplicated": True}
        return QueryResult.success(
            kind=kind,
            dataset=session.name,
            value=ack,
            backend=ack.get("backend", "sling"),
            seconds=time.perf_counter() - start,
            cache_hit=None,
            index_version=ack.get("index_version"),
        )

    # Snapshot the *effective* delta before applying: adding a present edge
    # or removing an absent one is a no-op, so the requested delta is
    # neither the inverse (for rolling back a failed WAL append) nor safe
    # to log — the checkpoint's net-delta cancellation is only exact when
    # every logged add/remove really changed the graph.
    applied_add: list | None = None
    applied_remove: list | None = None
    if wal is not None:
        with session._lock:
            graph = session._graph
        state: dict = {}

        def present(edge) -> bool:
            if edge not in state:
                state[edge] = graph.has_edge(*edge)
            return state[edge]

        applied_add = []
        for edge in request.add:
            if not present(edge):
                applied_add.append(edge)
                state[edge] = True
        applied_remove = []
        for edge in request.remove:
            if present(edge):
                applied_remove.append(edge)
                state[edge] = False

    try:
        ack = mutate_session(
            session, request.add, request.remove, refreeze=request.refreeze
        )
    except ReproError as exc:
        return fail(ERROR_BAD_REQUEST, str(exc))
    except Exception as exc:  # noqa: BLE001 - the boundary must not leak
        return fail(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}")

    if wal is not None:
        try:
            wal.append(
                add=applied_add,
                remove=applied_remove,
                refreeze=request.refreeze,
                mutation_id=mutation_id,
                ack=ack,
            )
        except OSError as exc:
            # The ack must never outrun the log: undo the in-memory apply
            # and answer a retryable error.  The client's view stays
            # consistent — the mutation neither happened nor was recorded.
            try:
                mutate_session(session, applied_remove, applied_add)
            except Exception:  # noqa: BLE001 - rollback is best-effort
                pass
            return fail(
                ERROR_UNAVAILABLE,
                f"mutation could not be made durable: {exc}",
            )
        if ack.get("refrozen"):
            # The record is already durable; folding the log into a
            # checkpoint is an optimisation, so its failure must not turn
            # a successfully applied-and-logged mutation into an error.
            try:
                wal.checkpoint(version=ack["index_version"])
            except OSError:
                pass

    return QueryResult.success(
        kind=kind,
        dataset=session.name,
        value=ack,
        backend=ack["backend"],
        seconds=time.perf_counter() - start,
        cache_hit=None,
        index_version=ack["index_version"],
    )
