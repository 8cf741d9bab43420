"""The declarative ``RunSpec`` -> ``RunResult`` contract of the routing facade.

A :class:`RunSpec` fully describes one routing run as plain data: where the
instance comes from (:class:`InstanceSpec`), which router to use
(:class:`~repro.api.registry.RouterSpec`) and which analyses to perform.  A
:class:`RunResult` bundles everything a caller needs afterwards -- routed tree
summary, skew and wirelength reports, validation issues and timings -- and
both sides round-trip through ``to_dict()`` / ``from_dict()`` so runs can be
cached, diffed, shipped across processes and served over the wire.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.analysis.skew import SkewReport
from repro.analysis.validate import ValidationIssue
from repro.analysis.wirelength import WirelengthReport
from repro.api.registry import RouterSpec
from repro.circuits.instance import ClockInstance
from repro.opt.config import OptConfig
from repro.opt.report import OptReport

__all__ = ["InstanceSpec", "RunSpec", "RunResult"]

#: Supported instance sources.
_KINDS = ("file", "circuit", "random", "benchmark", "family")
#: Supported grouping styles for generated instances.
_GROUPINGS = ("intermingled", "clustered", "striped")


@dataclass(frozen=True)
class InstanceSpec:
    """A declarative description of where a routing instance comes from.

    Five kinds are supported:

    * ``file``: an instance file written by ``save_instance`` / ``repro
      generate`` (``path``);
    * ``circuit``: a named benchmark circuit (``circuit``, e.g. ``"r1"``) with
      an optional grouping applied;
    * ``random``: a seeded random instance (``num_sinks``, ``seed``,
      ``layout_size``);
    * ``benchmark``: an ISPD-CNS-style benchmark file -- sinks, blockages and
      source (``path``, parsed by
      :func:`repro.circuits.benchmarks.load_benchmark`);
    * ``family``: a seeded synthetic scenario family (``family`` in
      ``clustered`` / ``ring`` / ``blocked``, plus ``num_sinks``, ``seed``,
      ``layout_size`` and optionally ``num_blockages``).

    For every kind, ``groups`` > 1 (re)applies the ``grouping`` style
    (``intermingled`` / ``clustered`` / ``striped``) with ``grouping_seed``.
    ``technology`` (the JSON form of :class:`~repro.delay.technology.
    Technology`, see ``Technology.to_dict``) overrides the instance's
    interconnect technology for every kind; it participates in ``to_dict`` and
    therefore in ``RunSpec.cache_key()``, so runs of the same instance under
    different technologies never collide in the result cache.
    """

    kind: str = "circuit"
    path: Optional[str] = None
    circuit: Optional[str] = None
    num_sinks: Optional[int] = None
    seed: int = 0
    layout_size: float = 100_000.0
    groups: int = 1
    grouping: str = "intermingled"
    grouping_seed: int = 7
    family: Optional[str] = None
    num_blockages: Optional[int] = None
    technology: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.technology is not None:
            from repro.delay.technology import Technology

            # Normalise to a plain dict and fail loudly on malformed payloads
            # (unknown keys, missing fields) at spec-construction time.
            object.__setattr__(self, "technology", dict(self.technology))
            Technology.from_dict(self.technology)
        if self.kind not in _KINDS:
            raise ValueError("unknown instance kind %r; expected one of %s" % (self.kind, _KINDS))
        if self.kind in ("file", "benchmark") and not self.path:
            raise ValueError("a %r instance spec needs a path" % self.kind)
        if self.kind == "circuit" and not self.circuit:
            raise ValueError("a 'circuit' instance spec needs a circuit name")
        if self.kind in ("random", "family") and not self.num_sinks:
            raise ValueError("a %r instance spec needs num_sinks" % self.kind)
        if self.kind == "family":
            from repro.circuits.benchmarks import available_families

            if self.family not in available_families():
                raise ValueError(
                    "unknown generator family %r; available: %s"
                    % (self.family, ", ".join(available_families()))
                )
        if self.grouping not in _GROUPINGS:
            raise ValueError(
                "unknown grouping %r; expected one of %s" % (self.grouping, _GROUPINGS)
            )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path) -> "InstanceSpec":
        """An instance loaded from a ``repro generate`` / ``save_instance`` file."""
        return cls(kind="file", path=str(path))

    @classmethod
    def from_circuit(
        cls,
        circuit: str,
        groups: int = 1,
        grouping: str = "intermingled",
        grouping_seed: int = 7,
    ) -> "InstanceSpec":
        """A named benchmark circuit (``r1`` .. ``r5``) with optional grouping."""
        return cls(
            kind="circuit",
            circuit=circuit,
            groups=groups,
            grouping=grouping,
            grouping_seed=grouping_seed,
        )

    @classmethod
    def from_random(
        cls,
        num_sinks: int,
        seed: int = 0,
        layout_size: float = 100_000.0,
        groups: int = 1,
        grouping: str = "intermingled",
        grouping_seed: int = 7,
        technology: Optional[Mapping[str, Any]] = None,
    ) -> "InstanceSpec":
        """A seeded random instance (deterministic for a given spec)."""
        return cls(
            kind="random",
            num_sinks=num_sinks,
            seed=seed,
            layout_size=layout_size,
            groups=groups,
            grouping=grouping,
            grouping_seed=grouping_seed,
            technology=technology,
        )

    @classmethod
    def from_benchmark(cls, path) -> "InstanceSpec":
        """An ISPD-CNS-style benchmark file (sinks + blockages + source)."""
        return cls(kind="benchmark", path=str(path))

    @classmethod
    def from_family(
        cls,
        family: str,
        num_sinks: int,
        seed: int = 0,
        layout_size: float = 100_000.0,
        num_blockages: Optional[int] = None,
        groups: int = 1,
        grouping: str = "intermingled",
        grouping_seed: int = 7,
        technology: Optional[Mapping[str, Any]] = None,
    ) -> "InstanceSpec":
        """A seeded synthetic scenario family (``clustered``/``ring``/``blocked``)."""
        return cls(
            kind="family",
            family=family,
            num_sinks=num_sinks,
            seed=seed,
            layout_size=layout_size,
            num_blockages=num_blockages,
            groups=groups,
            grouping=grouping,
            grouping_seed=grouping_seed,
            technology=technology,
        )

    # ------------------------------------------------------------------
    def build(self) -> ClockInstance:
        """Materialise the described :class:`ClockInstance`."""
        return self._apply_technology(self._build_instance())

    def _apply_technology(self, instance: ClockInstance) -> ClockInstance:
        if self.technology is None:
            return instance
        from repro.delay.technology import Technology

        return instance.with_technology(Technology.from_dict(self.technology))

    def _build_instance(self) -> ClockInstance:
        if self.kind == "file":
            from repro.circuits.io import load_instance

            # Grouping applies to loaded files too: regrouping an instance on
            # the fly is how sweeps reuse one generated file.
            return self._apply_grouping(load_instance(self.path))
        if self.kind == "benchmark":
            from repro.circuits.benchmarks import load_benchmark

            return self._apply_grouping(load_benchmark(self.path))
        if self.kind == "circuit":
            from repro.circuits.r_circuits import make_r_circuit

            instance = make_r_circuit(self.circuit)
        elif self.kind == "family":
            from repro.circuits.benchmarks import generate_instance

            kwargs = {}
            if self.num_blockages is not None:
                kwargs["num_blockages"] = self.num_blockages
            instance = generate_instance(
                self.family,
                "%s-%d-%d" % (self.family, self.num_sinks, self.seed),
                num_sinks=self.num_sinks,
                seed=self.seed,
                layout_size=self.layout_size,
                **kwargs,
            )
        else:
            from repro.circuits.generator import random_instance

            instance = random_instance(
                "random-%d-%d" % (self.num_sinks, self.seed),
                num_sinks=self.num_sinks,
                seed=self.seed,
                layout_size=self.layout_size,
            )
        return self._apply_grouping(instance)

    def _apply_grouping(self, instance: ClockInstance) -> ClockInstance:
        if self.groups <= 1:
            return instance
        from repro.circuits import grouping as grouping_mod

        if self.grouping == "clustered":
            return grouping_mod.clustered_groups(instance, self.groups)
        if self.grouping == "striped":
            return grouping_mod.striped_groups(instance, self.groups)
        return grouping_mod.intermingled_groups(
            instance, self.groups, seed=self.grouping_seed
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kind in ("file", "benchmark"):
            data["path"] = self.path
        elif self.kind == "circuit":
            data["circuit"] = self.circuit
        else:
            data.update(
                num_sinks=self.num_sinks, seed=self.seed, layout_size=self.layout_size
            )
            if self.kind == "family":
                data["family"] = self.family
                if self.num_blockages is not None:
                    data["num_blockages"] = self.num_blockages
        data.update(
            groups=self.groups,
            grouping=self.grouping,
            grouping_seed=self.grouping_seed,
        )
        if self.technology is not None:
            # Emitted only when set, so pre-existing cache keys stay stable.
            data["technology"] = dict(self.technology)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InstanceSpec":
        known = {
            "kind", "path", "circuit", "num_sinks", "seed", "layout_size",
            "groups", "grouping", "grouping_seed", "family", "num_blockages",
            "technology",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            # A typo ("group" for "groups") must fail loudly, not silently
            # route a default instance.
            raise ValueError(
                "unknown instance spec keys %s; valid keys: %s"
                % (unknown, ", ".join(sorted(known)))
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class RunSpec:
    """One routing run, described entirely as data.

    ``intra_bound_ps`` is the bound validation checks against; when omitted it
    defaults to the router's ``skew_bound_ps`` option (falling back to the
    paper's 10 ps).  ``opt`` enables the post-construction optimizer
    (:mod:`repro.opt`): the runner repairs the routed tree in place, each
    group to its routed bound capped by this one, and reports before/after
    quality in :attr:`RunResult.opt`.
    ``locus_tolerance`` loosens/tightens the off-locus placement check of
    ``validate_result`` (micrometres).  ``label`` is an optional caller-chosen
    tag carried through to the :class:`RunResult` -- useful for matching up
    batch output.
    """

    instance: InstanceSpec
    router: RouterSpec = field(default_factory=RouterSpec)
    validate: bool = False
    intra_bound_ps: Optional[float] = None
    label: Optional[str] = None
    opt: Optional[OptConfig] = None
    locus_tolerance: Optional[float] = None

    def effective_bound_ps(self) -> float:
        """The validation bound: the cap on every group's routed bound.

        Falls back to the router's configured bounds: with the ast-dme
        ``per_group_bounds_ps`` / ``default_bound_ps`` shorthands in play the
        loosest configured bound is used (so it caps no group below the bound
        it was routed against), otherwise ``skew_bound_ps`` (default 10 ps, as
        in the paper).  Validation and repair hold each group to its routed
        bound capped by this one
        (:func:`~repro.core.group_constraints.capped_bounds`).
        """
        if self.intra_bound_ps is not None:
            return self.intra_bound_ps
        options = self.router.options
        uniform = float(options.get("skew_bound_ps", 10.0))
        if "per_group_bounds_ps" not in options and "default_bound_ps" not in options:
            return uniform
        bounds = [float(b) for b in dict(options.get("per_group_bounds_ps") or {}).values()]
        default = options.get("default_bound_ps")
        bounds.append(uniform if default is None else float(default))
        return max(bounds)

    def cache_key(self) -> str:
        """Stable content-addressed identity of this spec (a sha256 hex digest).

        The key is the sha256 of the canonical JSON form of :meth:`to_dict`
        (sorted keys, compact separators), so it is stable across processes
        and Python versions, survives ``from_dict(to_dict(...))`` round-trips,
        and changes whenever *any* field -- including nested router options or
        ``opt`` knobs -- changes.  Two specs describing the same run therefore
        share a key, which is what the :mod:`repro.service` result cache is
        addressed by.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "instance": self.instance.to_dict(),
            "router": self.router.to_dict(),
            "validate": self.validate,
        }
        if self.intra_bound_ps is not None:
            data["intra_bound_ps"] = self.intra_bound_ps
        if self.label is not None:
            data["label"] = self.label
        if self.opt is not None:
            data["opt"] = self.opt.to_dict()
        if self.locus_tolerance is not None:
            data["locus_tolerance"] = self.locus_tolerance
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        known = {
            "instance", "router", "validate", "intra_bound_ps", "label",
            "opt", "locus_tolerance",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                "unknown run spec keys %s; valid keys: %s"
                % (unknown, ", ".join(sorted(known)))
            )
        opt = data.get("opt")
        return cls(
            instance=InstanceSpec.from_dict(data["instance"]),
            router=RouterSpec.from_dict(data.get("router", {"name": "ast-dme"})),
            validate=bool(data.get("validate", False)),
            intra_bound_ps=data.get("intra_bound_ps"),
            label=data.get("label"),
            opt=None if opt is None else OptConfig.from_dict(opt),
            locus_tolerance=data.get("locus_tolerance"),
        )


# ----------------------------------------------------------------------
# Report (de)serialisation helpers
# ----------------------------------------------------------------------
def _skew_to_dict(report: SkewReport) -> Dict[str, Any]:
    return {
        "global_skew": report.global_skew,
        "max_delay": report.max_delay,
        "min_delay": report.min_delay,
        # JSON object keys must be strings; group ids are ints.
        "per_group_skew": {str(g): s for g, s in report.per_group_skew.items()},
        "per_group_delay_range": {
            str(g): [lo, hi] for g, (lo, hi) in report.per_group_delay_range.items()
        },
    }


def _skew_from_dict(data: Mapping[str, Any]) -> SkewReport:
    return SkewReport(
        global_skew=data["global_skew"],
        max_delay=data["max_delay"],
        min_delay=data["min_delay"],
        per_group_skew={int(g): s for g, s in data["per_group_skew"].items()},
        per_group_delay_range={
            int(g): (lo, hi) for g, (lo, hi) in data["per_group_delay_range"].items()
        },
    )


def _wire_to_dict(report: WirelengthReport) -> Dict[str, Any]:
    return {
        "total": report.total,
        "snaking": report.snaking,
        "source_connection": report.source_connection,
        "num_edges": report.num_edges,
    }


def _wire_from_dict(data: Mapping[str, Any]) -> WirelengthReport:
    return WirelengthReport(
        total=data["total"],
        snaking=data["snaking"],
        source_connection=data["source_connection"],
        num_edges=data["num_edges"],
    )


@dataclass
class RunResult:
    """Everything one routing run produced, as plain serialisable data.

    The routed :class:`~repro.cts.tree.ClockTree` itself is deliberately not
    part of the contract -- results must stay cheap to pickle across worker
    processes and to cache as JSON.  Callers that need the tree use
    :func:`repro.api.run` with ``keep_tree=True`` and read ``routing`` (which
    is then excluded from ``to_dict``).
    """

    spec: RunSpec
    instance_name: str = ""
    num_sinks: int = 0
    num_groups: int = 0
    num_nodes: int = 0
    wirelength: float = 0.0
    skew: Optional[SkewReport] = None
    wire: Optional[WirelengthReport] = None
    issues: List[ValidationIssue] = field(default_factory=list)
    route_seconds: float = 0.0
    total_seconds: float = 0.0
    error: Optional[str] = None
    #: Post-construction optimizer report (when the spec enabled ``opt``).
    opt: Optional[OptReport] = None
    #: Resource/stage measurements of the run (``peak_rss_mb``,
    #: ``wall_seconds``, per-stage ``*_seconds``), shared verbatim by the
    #: service ``/stats`` endpoint.  Excluded from
    #: equality so cached results compare equal across re-runs.
    stats: Dict[str, float] = field(default_factory=dict, compare=False)
    #: Span trace of the run (the NDJSON event dicts of
    #: :mod:`repro.obs.trace`); only populated by ``run(spec, trace=True)``
    #: -- ``--trace-out`` and the service's ``X-Repro-Trace`` opt-in.
    #: Excluded from equality, and from ``to_dict`` when empty, so untraced
    #: results serialise byte-identically to previous releases.
    trace: List[Dict[str, Any]] = field(default_factory=list, compare=False, repr=False)
    #: The full RoutingResult (tree, stats, loci); only populated by
    #: ``run(spec, keep_tree=True)`` and never serialised.
    routing: Optional[Any] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """True when the run completed without error or validation issues."""
        return self.error is None and not self.issues

    @property
    def global_skew_ps(self) -> float:
        return self.skew.global_skew_ps if self.skew is not None else 0.0

    @property
    def max_intra_group_skew_ps(self) -> float:
        return self.skew.max_intra_group_skew_ps if self.skew is not None else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable summary that round-trips via :meth:`from_dict`.

        The ``*_ps`` convenience keys are derived output for consumers (the
        CLI's ``--json`` mode); ``from_dict`` ignores them.
        """
        data: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "instance_name": self.instance_name,
            "num_sinks": self.num_sinks,
            "num_groups": self.num_groups,
            "num_nodes": self.num_nodes,
            "wirelength": self.wirelength,
            "skew": None if self.skew is None else _skew_to_dict(self.skew),
            "wire": None if self.wire is None else _wire_to_dict(self.wire),
            "issues": [{"code": i.code, "message": i.message} for i in self.issues],
            "route_seconds": self.route_seconds,
            "total_seconds": self.total_seconds,
            "error": self.error,
            "opt": None if self.opt is None else self.opt.to_dict(),
            "stats": dict(self.stats),
            "ok": self.ok,
            "global_skew_ps": self.global_skew_ps,
            "max_intra_group_skew_ps": self.max_intra_group_skew_ps,
        }
        if self.trace:
            data["trace"] = [dict(event) for event in self.trace]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
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
            route_seconds=data.get("route_seconds", 0.0),
            total_seconds=data.get("total_seconds", 0.0),
            error=data.get("error"),
            opt=None
            if data.get("opt") is None
            else OptReport.from_dict(data["opt"]),
            stats=dict(data.get("stats", {})),
            trace=[dict(event) for event in data.get("trace", [])],
        )
