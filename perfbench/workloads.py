"""The benchmark's workloads: what the worker serves and what it is sent.

Graphs and index seeds are fixed (seed 0) so every run serves the same
index; the ``--seed`` argument drives only the request streams, which come
from :func:`repro.evaluation.traffic.generate_traffic`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.evaluation.traffic import TrafficPattern, generate_traffic
from repro.graphs import datasets

#: Graph generation and SLING build seed, the same in every run.
GRAPH_SEED = 0
#: Worker executor threads (``repro serve --workers``) unless a workload
#: sets its own.
WORKER_THREADS = 2
#: Seed of the write stream, the same in every run.
WRITE_SEED = 7_919
#: Worker start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 2
READ_KINDS = ("top_k", "single_source", "single_pair")


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple[str, ...]
    scale: float
    epsilon: float
    #: ``repro serve --cache-size`` (0 turns the engine cache off).
    cache_size: int
    #: :class:`TrafficPattern` overrides for the read stream.
    pattern: dict
    #: Dataset of the build breakdown and the mutation rungs.
    primary: str
    #: ``"power"``: answers are checked against the power method;
    #: ``"reference"``: against an in-process index built with the same seed.
    gate: str
    #: Read events replayed untimed before the timed phase, so engine caches
    #: and the recent-latency windows the ``stats`` scrape ships are full.
    warm_events: int
    #: One ``stats`` scrape after this many reads.
    stats_every: int = 200
    #: Served answers the correctness gate checks.
    gate_sample: int = 40
    #: ``repro serve --workers``: executor threads in the worker.
    worker_threads: int = WORKER_THREADS
    #: mutate_mix: a writer connection sends one ``mutate`` per this many
    #: completed reads; every ``refreeze_every``-th mutate also re-freezes.
    #: The timed phase covers at least ``min_cycles`` such write cycles.
    reads_per_mutate: int = 0
    refreeze_every: int = 0
    min_cycles: int = 4
    #: Read-only workloads: fixed edges the write probe adds, and then
    #: removes again, after the gate, so ``mutate_*`` is measured on every
    #: workload.  Chosen absent
    #: from the graph and with repairs of similar cost, so the percentiles
    #: of a handful of samples do not fall between two far-apart values.
    probe_edges: tuple = ()
    #: Events per rung in the traced ladder (after ``ladder_warm`` untimed).
    ladder_events: int = 1200
    ladder_warm: int = 600
    #: Mutations per mutation rung in the traced run.
    ladder_mutations: int = 4

    @property
    def writes(self) -> bool:
        return self.reads_per_mutate > 0

    def serve_args(self) -> list[str]:
        return [
            "--scale", repr(self.scale),
            "--epsilon", repr(self.epsilon),
            "--seed", str(GRAPH_SEED),
            "--cache-size", str(self.cache_size),
            "--workers", str(self.worker_threads),
        ]

    def graphs(self) -> dict:
        return {
            name: datasets.load_dataset(name, scale=self.scale, seed=GRAPH_SEED)
            for name in self.datasets
        }

    def read_stream(self, graphs: dict, seed: int, count: int) -> list:
        pattern = TrafficPattern(num_queries=count, seed=seed, **self.pattern)
        node_counts = {name: graphs[name].num_nodes for name in self.datasets}
        return [event.query for event in generate_traffic(node_counts, pattern)]

    def write_stream(self, graphs: dict, count: int) -> list:
        """``mutate`` requests on the primary dataset; every
        ``refreeze_every``-th one carries ``refreeze``.  The stream is the
        same in every run (``WRITE_SEED``): how much a repair or a dirty
        read costs depends strongly on which edges change, and only the
        reads follow ``--seed``."""
        pattern = TrafficPattern(
            num_queries=count,
            seed=WRITE_SEED,
            mutation_fraction=1.0,
            mutation_refreeze_every=self.refreeze_every,
        )
        events = generate_traffic({self.primary: graphs[self.primary].num_nodes}, pattern)
        return [event.query for event in events]


HOT_READ = Workload(
    name="hot_read",
    datasets=("GrQc", "HepTh"),
    scale=1.0,
    epsilon=0.025,
    cache_size=128,
    pattern={},  # TrafficPattern defaults: Zipf, drifting, bursty, hot pairs
    primary="HepTh",
    gate="power",
    warm_events=1500,
    probe_edges=((3, 517), (41, 8), (250, 77), (590, 12)),
)

COLD_READ = Workload(
    name="cold_read",
    datasets=("Google",),
    scale=1.0,
    epsilon=0.025,
    cache_size=0,
    pattern={
        "tail_fraction": 1.0,
        "source_region": 1.0,
        "top_k_fraction": 0.45,
        "single_source_fraction": 0.4,
    },
    primary="Google",
    gate="reference",
    warm_events=600,
    stats_every=100,
    probe_edges=(
        (1187, 1051), (190, 734), (724, 611), (160, 1956),
        (1237, 865), (5978, 390), (2176, 209), (574, 2354),
        (4558, 561), (2014, 764), (3958, 335), (3231, 384),
    ),
)

MUTATE_MIX = Workload(
    name="mutate_mix",
    datasets=("HepTh",),
    scale=1.0,
    epsilon=0.1,
    # Off: each edge mutate here invalidates ~870 of the 900 cached sources,
    # so with a cache the reads' hit rate would swing between write cycles
    # and the percentiles would straddle the hit and miss populations.
    cache_size=0,
    pattern={},
    primary="HepTh",
    gate="power",
    warm_events=1200,
    stats_every=50,
    # One executor thread: reads queue behind a write instead of sharing the
    # interpreter with it, so each run is the same interleaving of reads,
    # repairs and re-freezes.
    worker_threads=1,
    reads_per_mutate=100,
    refreeze_every=5,
)

WORKLOADS = {w.name: w for w in (HOT_READ, COLD_READ, MUTATE_MIX)}


def smoke(workload: Workload) -> Workload:
    """A seconds-long miniature of ``workload`` for the self-test: tiny
    graphs, a loose ε, short warm-ups and ladders, one set-up."""
    return replace(
        workload,
        scale=0.1 if workload.gate == "reference" else 0.05,
        epsilon=0.1,
        warm_events=60,
        stats_every=25,
        gate_sample=12,
        reads_per_mutate=min(workload.reads_per_mutate, 10),
        probe_edges=((1, 5), (7, 2)),
        ladder_events=60,
        ladder_warm=20,
        ladder_mutations=2,
    )
