"""The router registry: one uniform way to construct every clock router.

Historically each router had its own constructor shape (``AstDme(AstDmeConfig
(...))``, ``ExtBst(skew_bound_ps=..., config=...)``, ``GreedyDme()``), so every
caller -- CLI, experiment drivers, benchmarks, examples -- re-invented
construction and silently diverged on which configuration fields they copied.
The registry replaces all of that with a string-keyed factory table:

    router = get_router("ast-dme", {"skew_bound_ps": 10.0})
    router = get_router(RouterSpec("ext-bst", {"skew_bound_ps": 10.0}))

Every factory receives a plain ``dict`` of JSON-serialisable options, which is
what makes :class:`~repro.api.spec.RunSpec` declarative and cacheable.

Extending the registry
----------------------
Third-party routers plug in with :func:`register_router`::

    from repro.api import register_router

    def make_my_router(options):
        return MyRouter(**options)   # anything with .route(instance)

    register_router("my-router", make_my_router, description="...")

after which ``get_router("my-router", {...})``, ``RunSpec``/``BatchRunner``
and the ``repro route --algorithm my-router`` CLI all work unchanged.  See
``docs/api.md`` for the full contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Union, runtime_checkable

__all__ = [
    "Router",
    "RouterSpec",
    "RouterFactory",
    "register_router",
    "unregister_router",
    "get_router",
    "available_routers",
    "router_description",
]


@runtime_checkable
class Router(Protocol):
    """Anything that can route a clock instance.

    The contract is a single method: ``route(instance)`` returning a
    :class:`~repro.core.ast_dme.RoutingResult` (an embedded
    :class:`~repro.cts.tree.ClockTree` plus statistics).  ``AstDme``,
    ``ExtBst`` and ``GreedyDme`` all satisfy it, as must registered
    third-party routers.
    """

    def route(self, instance) -> Any:  # pragma: no cover - protocol only
        ...


@dataclass(frozen=True)
class RouterSpec:
    """A declarative, serialisable description of a router.

    ``name`` keys into the registry; ``options`` is the JSON-friendly dict the
    registered factory receives.  For the built-in routers the options are the
    fields of :class:`~repro.core.ast_dme.AstDmeConfig` plus the constraint
    shorthands ``per_group_bounds_ps`` / ``default_bound_ps`` (ast-dme only).
    """

    name: str = "ast-dme"
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Normalise to a plain dict so specs compare and serialise predictably.
        object.__setattr__(self, "options", dict(self.options))

    def __hash__(self) -> int:
        # The options dict defeats the generated frozen-dataclass hash; hash a
        # canonical JSON form instead so specs work as cache keys.
        import json

        return hash((self.name, json.dumps(self.options, sort_keys=True, default=str)))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RouterSpec":
        unknown = sorted(set(data) - {"name", "options"})
        if unknown:
            raise ValueError("unknown router spec keys %s" % unknown)
        return cls(name=data["name"], options=dict(data.get("options", {})))

    def build(self) -> Router:
        """Construct the router this spec describes."""
        return get_router(self)


#: A router factory: JSON-friendly options dict -> router instance.
RouterFactory = Callable[[Dict[str, Any]], Router]


@dataclass(frozen=True)
class _RegistryEntry:
    name: str
    factory: RouterFactory
    description: str


_REGISTRY: Dict[str, _RegistryEntry] = {}


def register_router(
    name: str,
    factory: RouterFactory,
    description: str = "",
    overwrite: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    Args:
        name: the registry key (used by ``RouterSpec``/``get_router`` and the
            CLI's ``--algorithm`` flag).
        factory: callable mapping an options dict to a router instance.
        description: one-line human description (shown by ``repro routers``).
        overwrite: allow replacing an existing registration.
    """
    if not name:
        raise ValueError("router name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            "router %r is already registered (pass overwrite=True to replace it)" % name
        )
    _REGISTRY[name] = _RegistryEntry(name=name, factory=factory, description=description)


def unregister_router(name: str) -> None:
    """Remove a registration (KeyError when absent); mainly for tests/plugins."""
    _lookup(name)
    del _REGISTRY[name]


def available_routers() -> List[str]:
    """Sorted names of every registered router."""
    return sorted(_REGISTRY)


def router_description(name: str) -> str:
    """The one-line description a router was registered with."""
    return _lookup(name).description


def get_router(
    spec: Union[str, RouterSpec],
    options: Optional[Mapping[str, Any]] = None,
) -> Router:
    """Construct a router from a name + options dict or a :class:`RouterSpec`.

    Raises ``KeyError`` (listing the registered names) for an unknown router
    and ``ValueError`` for options the router does not understand.
    """
    if isinstance(spec, RouterSpec):
        if options is not None:
            raise ValueError("pass options inside the RouterSpec, not separately")
        name, opts = spec.name, dict(spec.options)
    else:
        name, opts = spec, dict(options or {})
    return _lookup(name).factory(opts)


def _lookup(name: str) -> _RegistryEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown router %r; available: %s" % (name, ", ".join(available_routers()))
        ) from None


# ----------------------------------------------------------------------
# Built-in routers
# ----------------------------------------------------------------------
def _ast_config_from_options(options: Dict[str, Any], shorthands=()):
    """Turn an options dict into an ``AstDmeConfig``, rejecting unknown keys.

    Built with ``dataclasses.replace`` on the default config so that new
    configuration fields are picked up automatically and never silently
    dropped.  ``shorthands`` names adapter-level options (already consumed by
    the caller) so the error message lists the full valid vocabulary.
    """
    from repro.core.ast_dme import AstDmeConfig

    valid = {f.name for f in fields(AstDmeConfig)}
    unknown = sorted(set(options) - valid)
    if unknown:
        raise ValueError(
            "unknown router options %s; valid options: %s"
            % (unknown, ", ".join(sorted(valid | set(shorthands))))
        )
    return replace(AstDmeConfig(), **options)


def _make_ast_dme(options: Dict[str, Any]) -> Router:
    from repro.core.ast_dme import AstDme
    from repro.core.group_constraints import SkewConstraints

    per_group = options.pop("per_group_bounds_ps", None)
    default_ps = options.pop("default_bound_ps", None)
    config = _ast_config_from_options(
        options, shorthands=("per_group_bounds_ps", "default_bound_ps")
    )
    constraints = None
    if per_group is not None or default_ps is not None:
        # JSON object keys are strings; group ids are ints.  Groups without an
        # explicit bound fall back to default_bound_ps, and failing that to
        # the spec's own skew_bound_ps -- never silently to zero skew.
        bounds = {int(group): float(bound) for group, bound in (per_group or {}).items()}
        fallback = config.skew_bound_ps if default_ps is None else float(default_ps)
        constraints = SkewConstraints.per_group_ps(bounds, default_ps=fallback)
    return AstDme(config, constraints=constraints)


def _make_ext_bst(options: Dict[str, Any]) -> Router:
    from repro.cts.bst import ExtBst

    config = _ast_config_from_options(options)
    return ExtBst(skew_bound_ps=config.skew_bound_ps, config=config)


def _make_greedy_dme(options: Dict[str, Any]) -> Router:
    from repro.cts.dme import GreedyDme

    return GreedyDme(config=_ast_config_from_options(options))


def _make_h_tree(options: Dict[str, Any]) -> Router:
    from repro.core.htree import HTreeRouter

    trunk_levels = options.pop("trunk_levels", 2)
    config = _ast_config_from_options(options, shorthands=("trunk_levels",))
    return HTreeRouter(config, trunk_levels=int(trunk_levels))


register_router(
    "ast-dme",
    _make_ast_dme,
    description="associative-skew router (the paper's contribution): "
    "per-group skew bounds, inter-group skew free",
)
register_router(
    "ext-bst",
    _make_ext_bst,
    description="bounded-skew baseline: one global skew bound over all sinks",
)
register_router(
    "greedy-dme",
    _make_greedy_dme,
    description="zero-skew baseline (greedy-DME / classic balanced merges)",
)
register_router(
    "h-tree",
    _make_h_tree,
    description="H-tree trunk hybrid: recursive geometric-centre trunk, "
    "delay-aligned junctions, AST-DME leaf subtrees",
)
