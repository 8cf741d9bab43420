"""The declarative ``EcoSpec`` -> ``EcoResult`` contract of the ECO facade.

An :class:`EcoSpec` fully describes one incremental re-route as plain data:
the :class:`~repro.api.spec.RunSpec` of the *base* routing plus the
:class:`~repro.eco.delta.EcoDelta` to apply.  :func:`run_eco` obtains the
base routing (re-running the base spec unless the caller supplies one),
rebuilds only the dirty cone via :func:`repro.eco.engine.eco_reroute` and
bundles the stitched tree's reports into an :class:`EcoResult`.  Both sides
round-trip through ``to_dict()`` / ``from_dict()`` and the spec is
content-addressed by :meth:`EcoSpec.cache_key`, so ECO runs cache and serve
exactly like full runs (see ``POST /eco`` in :mod:`repro.service`).
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.analysis.skew import SkewReport, skew_report
from repro.analysis.validate import ValidationIssue, validate_result
from repro.analysis.wirelength import WirelengthReport, wirelength_report
from repro.api.spec import (
    RunSpec,
    _skew_from_dict,
    _skew_to_dict,
    _wire_from_dict,
    _wire_to_dict,
)
from repro.eco.delta import EcoDelta
from repro.eco.engine import EcoConfig, EcoStats, eco_reroute
from repro.opt.config import OptConfig

__all__ = ["EcoSpec", "EcoResult", "run_eco", "run_eco_safe"]


@dataclass(frozen=True)
class EcoSpec:
    """One incremental re-route, described entirely as data.

    ``base`` identifies the pre-change routing (and, through its router
    options, the merge configuration the rebuilt cone uses); ``delta`` is the
    change order.  ``repair`` optionally enables the local post-stitch
    optimizer (see :class:`~repro.eco.engine.EcoConfig`); ``validate`` runs
    ``validate_result`` on the stitched tree against the base spec's bound.
    """

    base: RunSpec
    delta: EcoDelta
    validate: bool = False
    repair: Optional[OptConfig] = None
    label: Optional[str] = None

    def cache_key(self) -> str:
        """Stable content-addressed identity (sha256 of canonical JSON).

        Same construction as :meth:`RunSpec.cache_key`; any change to the
        base spec, the delta or the repair knobs changes the key.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "base": self.base.to_dict(),
            "delta": self.delta.to_dict(),
            "validate": self.validate,
        }
        if self.repair is not None:
            data["repair"] = self.repair.to_dict()
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EcoSpec":
        known = {"base", "delta", "validate", "repair", "label"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                "unknown eco spec keys %s; valid keys: %s"
                % (unknown, ", ".join(sorted(known)))
            )
        repair = data.get("repair")
        return cls(
            base=RunSpec.from_dict(data["base"]),
            delta=EcoDelta.from_dict(data.get("delta", {})),
            validate=bool(data.get("validate", False)),
            repair=None if repair is None else OptConfig.from_dict(repair),
            label=data.get("label"),
        )


@dataclass
class EcoResult:
    """Everything one ECO re-route produced, as plain serialisable data.

    Mirrors :class:`~repro.api.spec.RunResult`: the stitched tree itself
    stays out of the contract (``routing`` is only populated by
    ``run_eco(..., keep_tree=True)`` and never serialised) so results cache
    as JSON and ship over the wire.
    """

    spec: EcoSpec
    instance_name: str = ""
    num_sinks: int = 0
    num_groups: int = 0
    num_nodes: int = 0
    wirelength: float = 0.0
    skew: Optional[SkewReport] = None
    wire: Optional[WirelengthReport] = None
    issues: List[ValidationIssue] = field(default_factory=list)
    #: What the re-route touched, reused and rebuilt.
    eco: Optional[EcoStats] = None
    #: Seconds spent obtaining the base routing (0 when the caller supplied
    #: it, e.g. the service's base-routing LRU).
    base_seconds: float = 0.0
    #: Seconds spent inside ``eco_reroute`` itself.
    eco_seconds: float = 0.0
    total_seconds: float = 0.0
    error: Optional[str] = None
    #: Resource measurements, excluded from equality like RunResult.stats.
    stats: Dict[str, float] = field(default_factory=dict, compare=False)
    #: NDJSON-ready span events recorded when the re-route ran with
    #: ``trace=True``; empty (and omitted from ``to_dict``) otherwise.
    trace: List[Dict[str, Any]] = field(default_factory=list, compare=False, repr=False)
    #: The stitched RoutingResult; never serialised.
    routing: Optional[Any] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """True when the re-route completed without error or validation issues."""
        return self.error is None and not self.issues

    @property
    def global_skew_ps(self) -> float:
        return self.skew.global_skew_ps if self.skew is not None else 0.0

    @property
    def max_intra_group_skew_ps(self) -> float:
        return self.skew.max_intra_group_skew_ps if self.skew is not None else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "spec": self.spec.to_dict(),
            "instance_name": self.instance_name,
            "num_sinks": self.num_sinks,
            "num_groups": self.num_groups,
            "num_nodes": self.num_nodes,
            "wirelength": self.wirelength,
            "skew": None if self.skew is None else _skew_to_dict(self.skew),
            "wire": None if self.wire is None else _wire_to_dict(self.wire),
            "issues": [{"code": i.code, "message": i.message} for i in self.issues],
            "eco": None if self.eco is None else self.eco.to_dict(),
            "base_seconds": self.base_seconds,
            "eco_seconds": self.eco_seconds,
            "total_seconds": self.total_seconds,
            "error": self.error,
            "stats": dict(self.stats),
            "ok": self.ok,
            "global_skew_ps": self.global_skew_ps,
            "max_intra_group_skew_ps": self.max_intra_group_skew_ps,
        }
        # Only when present: untraced results keep the exact pre-trace shape.
        if self.trace:
            data["trace"] = [dict(event) for event in self.trace]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EcoResult":
        return cls(
            spec=EcoSpec.from_dict(data["spec"]),
            instance_name=data.get("instance_name", ""),
            num_sinks=data.get("num_sinks", 0),
            num_groups=data.get("num_groups", 0),
            num_nodes=data.get("num_nodes", 0),
            wirelength=data.get("wirelength", 0.0),
            skew=None if data.get("skew") is None else _skew_from_dict(data["skew"]),
            wire=None if data.get("wire") is None else _wire_from_dict(data["wire"]),
            issues=[
                ValidationIssue(code=i["code"], message=i["message"])
                for i in data.get("issues", [])
            ],
            eco=None if data.get("eco") is None else EcoStats.from_dict(data["eco"]),
            base_seconds=data.get("base_seconds", 0.0),
            eco_seconds=data.get("eco_seconds", 0.0),
            total_seconds=data.get("total_seconds", 0.0),
            error=data.get("error"),
            stats=dict(data.get("stats", {})),
            trace=[dict(event) for event in data.get("trace", [])],
        )


# ----------------------------------------------------------------------
def _eco_config_for(spec: EcoSpec):
    """The ``(EcoConfig, router)`` the rebuilt cone is re-merged with.

    Every built-in router exposes the effective ``AstDmeConfig`` as
    ``.config`` (the baselines adapt it in their constructors), so the cone
    is re-merged exactly the way a full re-run of the base spec would merge.
    """
    from repro.api.registry import get_router

    router = get_router(spec.base.router)
    config = getattr(router, "config", None)
    if config is None:
        raise ValueError(
            "router %r does not expose a merge config; "
            "ECO re-routing needs the built-in DME routers" % spec.base.router.name
        )
    return EcoConfig(router=config, repair=spec.repair), router


def run_eco(
    spec: EcoSpec,
    keep_tree: bool = False,
    base_routing: Optional[Any] = None,
    trace: bool = False,
) -> EcoResult:
    """Execute one ECO re-route described by ``spec``.

    Args:
        spec: the declarative ECO description.
        keep_tree: also attach the stitched ``RoutingResult`` as
            ``EcoResult.routing`` (never serialised).
        base_routing: a previously computed ``RoutingResult`` of
            ``spec.base`` (e.g. from ``run(spec.base, keep_tree=True)`` or a
            server-side LRU).  When omitted the base spec is routed first --
            which is exactly the full-run cost ECO exists to avoid, so
            callers serving repeated deltas should hold on to the base.
        trace: record a span trace and attach the NDJSON-ready event list as
            ``EcoResult.trace``.  The stitched result is bit-identical either
            way.
    """
    if trace:
        from repro.obs.trace import get_tracer

        with get_tracer().session() as session:
            result = _run_eco(spec, keep_tree, base_routing)
        result.trace = session.events
        return result
    return _run_eco(spec, keep_tree, base_routing)


def _run_eco(
    spec: EcoSpec, keep_tree: bool, base_routing: Optional[Any]
) -> EcoResult:
    from repro.api.runner import run
    from repro.obs.metrics import peak_rss_mb
    from repro.obs.trace import get_tracer

    started = time.perf_counter()
    with get_tracer().span("eco", label=spec.label) as eco_span:
        base_seconds = 0.0
        if base_routing is None:
            base_result = run(spec.base, keep_tree=True)
            base_routing = base_result.routing
            base_seconds = base_result.total_seconds
        eco_config, router = _eco_config_for(spec)
        constraints = getattr(router, "_constraints", None)

        eco_started = time.perf_counter()
        outcome = eco_reroute(
            base_routing, spec.delta, eco_config, constraints=constraints
        )
        eco_seconds = time.perf_counter() - eco_started
        routing = outcome.routing
        instance = routing.instance
        eco_span.set(
            instance=instance.name,
            dirty_nodes=outcome.eco.dirty_nodes,
            reused_nodes=outcome.eco.reused_nodes,
        )

        skew = skew_report(routing.tree)
        wire = wirelength_report(routing.tree)
        if spec.validate:
            validate_kwargs = {"intra_bound_ps": spec.base.effective_bound_ps()}
            if spec.base.locus_tolerance is not None:
                validate_kwargs["locus_tolerance"] = spec.base.locus_tolerance
            issues = validate_result(routing, **validate_kwargs)
        else:
            issues = []
    total = time.perf_counter() - started
    return EcoResult(
        spec=spec,
        instance_name=instance.name,
        num_sinks=instance.num_sinks,
        num_groups=instance.num_groups,
        num_nodes=len(routing.tree),
        wirelength=routing.wirelength,
        skew=skew,
        wire=wire,
        issues=issues,
        eco=outcome.eco,
        base_seconds=base_seconds,
        eco_seconds=eco_seconds,
        total_seconds=total,
        stats={
            "base_seconds": base_seconds,
            "eco_seconds": eco_seconds,
            "wall_seconds": total,
            "peak_rss_mb": peak_rss_mb(),
        },
        routing=routing if keep_tree else None,
    )


def run_eco_safe(
    spec: EcoSpec, base_routing: Optional[Any] = None, trace: bool = False
) -> EcoResult:
    """Like :func:`run_eco` but captures exceptions in ``EcoResult.error``."""
    started = time.perf_counter()
    try:
        return run_eco(spec, base_routing=base_routing, trace=trace)
    except Exception as exc:  # noqa: BLE001 - per-run capture is the point
        return EcoResult(
            spec=spec,
            error="%s: %s\n%s" % (type(exc).__name__, exc, traceback.format_exc()),
            total_seconds=time.perf_counter() - started,
        )
