"""repro — a full reproduction of "SLING: A Near-Optimal Index Structure for
SimRank" (Tian & Xiao, SIGMOD 2016).

The package is organised as:

* :mod:`repro.graphs` — compact directed-graph substrate, generators, and
  stand-ins for the paper's twelve evaluation datasets;
* :mod:`repro.sling` — the SLING index: √c-walks, correction factors, hitting
  probabilities, single-pair / single-source queries, and the Section-5
  optimizations (adaptive sampling, space reduction, accuracy enhancement,
  parallel and out-of-core construction);
* :mod:`repro.baselines` — the competing methods of the evaluation: the power
  method, the Monte Carlo method of Fogaras & Rácz, and the linearization
  method of Maehara et al.;
* :mod:`repro.evaluation` — metrics, workloads, and drivers that regenerate
  every figure of the paper's Section 7 and Appendix C;
* :mod:`repro.engine` — the unified query layer: one backend protocol over
  SLING and every baseline, and a query engine with result caching and
  statistics;
* :mod:`repro.service` — the serving boundary: typed request dataclasses and
  :class:`QueryResult` envelopes over named dataset sessions
  (:class:`SimRankService`), plus the JSONL wire protocol behind
  ``repro batch``.

Quickstart
----------
>>> from repro.graphs import generators
>>> from repro.sling import SlingIndex
>>> graph = generators.two_level_community(4, 16, seed=1)
>>> index = SlingIndex(graph, epsilon=0.05, seed=1).build()
>>> 0.0 <= index.single_pair(0, 1) <= 1.0
True
"""

from .exceptions import (
    GraphFormatError,
    IndexNotBuiltError,
    NodeNotFoundError,
    ParameterError,
    ReproError,
    StorageError,
)
from .graphs import DiGraph
from .sling import SlingIndex, SlingParameters
from .baselines import LinearizeIndex, MonteCarloIndex, PowerMethod
from .engine import (
    BackendConfig,
    QueryEngine,
    SimilarityBackend,
    create_backend,
    create_engine,
)
from .service import (
    QueryResult,
    ServiceConfig,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "GraphFormatError",
    "NodeNotFoundError",
    "ParameterError",
    "IndexNotBuiltError",
    "StorageError",
    "DiGraph",
    "SlingIndex",
    "SlingParameters",
    "LinearizeIndex",
    "MonteCarloIndex",
    "PowerMethod",
    "BackendConfig",
    "QueryEngine",
    "SimilarityBackend",
    "create_backend",
    "create_engine",
    "SimRankService",
    "ServiceConfig",
    "QueryResult",
    "SinglePairQuery",
    "SingleSourceQuery",
    "TopKQuery",
]
