"""repro -- Associative skew clock routing for difficult instances.

A Python reproduction of Kim's AST-DME algorithm (Texas A&M, 2006): a clock
router that enforces skew constraints only *within* identified groups of sinks
and exploits the freedom between groups to reduce total wirelength, together
with the substrates it needs (Manhattan geometry, Elmore delay, DME / BST
baselines), synthetic benchmark circuits, analysis tools and the experiment
drivers that regenerate the paper's tables and figures.

Quickstart -- everything routes through the :mod:`repro.api` facade::

    from repro import InstanceSpec, RouterSpec, RunSpec, run

    spec = RunSpec(
        instance=InstanceSpec.from_circuit("r1", groups=8),
        router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        validate=True,
    )
    result = run(spec)
    print(result.wirelength, result.max_intra_group_skew_ps, result.ok)

Batches of runs execute declaratively (and in parallel) the same way::

    from repro import BatchRunner

    specs = [
        RunSpec(
            instance=InstanceSpec.from_circuit("r1", groups=k),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        )
        for k in (4, 6, 8, 10)
    ]
    for res in BatchRunner(workers=4).run(specs):
        print(res.num_groups, res.wirelength)

Routers are looked up in a string-keyed registry (``available_routers()``,
``get_router``); third-party routers plug in with ``register_router`` -- see
``docs/api.md``.  The underlying classes (``AstDme``, ``ExtBst``,
``GreedyDme``) remain available for direct use.  Results round-trip through
JSON via ``RunResult.to_dict()`` / ``from_dict()``.
"""

from repro.analysis import (
    SkewReport,
    TableRow,
    ValidationIssue,
    WirelengthReport,
    format_table,
    reduction_percent,
    rows_to_csv,
    skew_report,
    validate_result,
    validate_tree,
    wirelength_report,
)
from repro.api import (
    BatchRunner,
    InstanceSpec,
    Router,
    RouterSpec,
    RunResult,
    RunSpec,
    available_routers,
    get_router,
    register_router,
    run,
    run_batch,
    run_safe,
)
from repro.analysis import validate_routes
from repro.circuits import (
    ClockInstance,
    Sink,
    SinkTable,
    available_circuits,
    available_families,
    clustered_groups,
    generate_instance,
    intermingled_groups,
    load_benchmark,
    load_instance,
    make_r_circuit,
    random_instance,
    save_benchmark,
    save_instance,
    striped_groups,
)
from repro.core import (
    AstDme,
    AstDmeConfig,
    GroupAssociation,
    RoutingResult,
    SkewConstraints,
)
from repro.cts import ClockNode, ClockTree, ExtBst, GreedyDme, route_edges
from repro.delay import DEFAULT_TECHNOLOGY, RcTree, Technology, elmore_delays, sink_delays
from repro.geometry import ObstacleSet, Point, Rect, Trr
from repro.experiments import run_figure1, run_figure2, run_table1, run_table2
from repro.opt import (
    OptConfig,
    OptPass,
    OptReport,
    Optimizer,
    available_passes,
    optimize_routing,
    register_pass,
)
from repro.service import (
    CacheStats,
    RunCache,
    ServerThread,
    ServiceClient,
    ServiceConfig,
)

#: Single source of truth for the package version; setup.py parses this line
#: and ``repro --version`` prints it.
__version__ = "1.1.0"

__all__ = [
    "AstDme",
    "AstDmeConfig",
    "BatchRunner",
    "CacheStats",
    "ClockInstance",
    "ClockNode",
    "ClockTree",
    "DEFAULT_TECHNOLOGY",
    "ExtBst",
    "GreedyDme",
    "GroupAssociation",
    "InstanceSpec",
    "ObstacleSet",
    "OptConfig",
    "OptPass",
    "OptReport",
    "Optimizer",
    "Point",
    "RcTree",
    "Rect",
    "Router",
    "RouterSpec",
    "RoutingResult",
    "RunCache",
    "RunResult",
    "RunSpec",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "Sink",
    "SinkTable",
    "SkewConstraints",
    "SkewReport",
    "TableRow",
    "Technology",
    "Trr",
    "ValidationIssue",
    "WirelengthReport",
    "available_circuits",
    "available_families",
    "available_passes",
    "available_routers",
    "clustered_groups",
    "elmore_delays",
    "format_table",
    "generate_instance",
    "get_router",
    "intermingled_groups",
    "load_benchmark",
    "load_instance",
    "make_r_circuit",
    "optimize_routing",
    "random_instance",
    "reduction_percent",
    "register_pass",
    "register_router",
    "route_edges",
    "rows_to_csv",
    "run",
    "run_batch",
    "run_figure1",
    "run_figure2",
    "run_safe",
    "run_table1",
    "run_table2",
    "save_benchmark",
    "save_instance",
    "sink_delays",
    "skew_report",
    "striped_groups",
    "validate_result",
    "validate_routes",
    "validate_tree",
    "wirelength_report",
    "__version__",
]
