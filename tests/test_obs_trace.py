"""Tests of the span tracer (repro.obs.trace) and the traced run contract."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.api import InstanceSpec, RouterSpec, RunSpec
from repro.api.runner import run
from repro.obs.trace import (
    StageSpans,
    Tracer,
    get_tracer,
    span as module_span,
    write_ndjson,
)
from repro.obs.trace import _NOOP  # noqa: F401 - the disabled-path contract is public behaviour
from repro.opt import BUFFERED_PASSES, OptConfig


@pytest.fixture()
def tracer():
    """A private tracer so tests never leak state into the process-wide one."""
    return Tracer()


class TestDisabledPath:
    def test_span_returns_the_shared_noop(self, tracer):
        a = tracer.span("x")
        b = tracer.span("y", attr=1)
        assert a is b is _NOOP

    def test_noop_span_operations_record_nothing(self, tracer):
        with tracer.span("x") as s:
            s.add("n", 3)
            s.set(k="v")
            assert s.seconds == 0.0
        tracer.add("orphan")
        assert tracer.events() == []

    def test_module_level_span_uses_the_process_tracer(self):
        assert get_tracer().enabled is False
        assert module_span("x") is _NOOP

    def test_enabled_reflects_global_and_session_state(self, tracer):
        assert tracer.enabled is False
        tracer.enable()
        assert tracer.enabled is True
        tracer.disable()
        with tracer.session():
            assert tracer.enabled is True
        assert tracer.enabled is False


class TestRecording:
    def test_events_carry_the_ndjson_schema(self, tracer):
        tracer.enable()
        with tracer.span("work", size=4) as s:
            s.add("merged", 2)
            s.add("merged", 3)
            s.set(phase="done")
        (event,) = tracer.events()
        assert event["name"] == "work"
        assert event["span_id"] == 1
        assert event["parent_id"] is None
        assert event["thread"] == threading.get_ident()
        assert event["seconds"] >= 0.0
        assert event["attrs"] == {"size": 4, "merged": 5, "phase": "done"}

    def test_nesting_links_parent_ids_and_completion_order(self, tracer):
        tracer.enable()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                tracer.add("hits")
        inner_event, outer_event = tracer.events()
        assert inner_event["name"] == "inner"
        assert inner_event["parent_id"] == outer.span_id
        assert inner_event["attrs"] == {"hits": 1}
        assert outer_event["parent_id"] is None

    def test_span_pops_from_the_stack_on_exception(self, tracer):
        tracer.enable()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("boom"):
                    raise RuntimeError("inside")
        with tracer.span("after"):
            pass
        events = {e["name"]: e for e in tracer.events()}
        assert set(events) == {"boom", "outer", "after"}
        # The failed spans still closed in order and "after" is a fresh root.
        assert events["boom"]["parent_id"] == events["outer"]["span_id"]
        assert events["after"]["parent_id"] is None

    def test_drain_and_reset(self, tracer):
        tracer.enable()
        with tracer.span("x"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.events() == []
        with tracer.span("y"):
            pass
        tracer.reset()
        assert tracer.events() == []


class TestSessions:
    def test_session_collects_only_its_thread(self, tracer):
        started = threading.Barrier(2)

        def worker(name):
            with tracer.session() as session:
                started.wait(timeout=5)
                with tracer.span(name):
                    pass
            return session

        sessions = {}

        def record(name):
            sessions[name] = worker(name)

        threads = [
            threading.Thread(target=record, args=("a",)),
            threading.Thread(target=record, args=("b",)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [e["name"] for e in sessions["a"].events] == ["a"]
        assert [e["name"] for e in sessions["b"].events] == ["b"]

    def test_span_open_at_session_exit_still_belongs_to_it(self, tracer):
        session = tracer.session()
        session.__enter__()
        s = tracer.span("late").__enter__()
        session.__exit__(None, None, None)
        s.__exit__(None, None, None)
        assert [e["name"] for e in session.events] == ["late"]

    def test_nested_sessions_both_capture(self, tracer):
        with tracer.session() as outer:
            with tracer.session() as inner:
                with tracer.span("x"):
                    pass
            with tracer.span("y"):
                pass
        assert [e["name"] for e in inner.events] == ["x"]
        assert [e["name"] for e in outer.events] == ["x", "y"]


class TestNdjson:
    def test_write_ndjson_to_path_and_file_object(self, tracer, tmp_path):
        tracer.enable()
        with tracer.span("x", n=1):
            pass
        events = tracer.events()
        path = tmp_path / "trace.ndjson"
        write_ndjson(events, str(path))
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == events
        buffer = io.StringIO()
        write_ndjson(events, buffer)
        assert buffer.getvalue() == path.read_text()

    def test_export_ndjson_returns_line_count(self, tracer, tmp_path):
        tracer.enable()
        with tracer.span("x"):
            pass
        path = tmp_path / "t.ndjson"
        assert tracer.export_ndjson(str(path)) == 1


class TestStageSpans:
    def test_accumulates_like_stage_timer(self):
        stages = StageSpans()
        with stages.stage("x"):
            pass
        with stages.stage("x"):
            pass
        assert set(stages.seconds) == {"x"}
        assert stages.seconds["x"] >= 0.0

    def test_span_and_stats_entry_are_the_same_number(self):
        tracer = get_tracer()
        stages = StageSpans()
        with tracer.session() as session:
            with stages.stage("delay_seconds", "run.delay"):
                sum(range(1000))
        (event,) = session.events
        assert event["name"] == "run.delay"
        assert event["seconds"] == stages.seconds["delay_seconds"]

    def test_untraced_stage_times_without_emitting(self):
        stages = StageSpans()
        before = len(get_tracer().events())
        with stages.stage("k", "name"):
            pass
        assert stages.seconds["k"] >= 0.0
        assert len(get_tracer().events()) == before


# ----------------------------------------------------------------------
# Traced runs through the api facade
# ----------------------------------------------------------------------
def _spec(seed: int = 3) -> RunSpec:
    return RunSpec(
        instance=InstanceSpec.from_random(60, seed=seed, groups=4),
        router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        validate=True,
    )


#: to_dict keys that legitimately vary between two runs of the same spec
#: (wall clocks); everything else must be bit-identical traced vs untraced.
_TIMING_KEYS = ("route_seconds", "total_seconds", "stats", "trace")


class TestTracedRuns:
    @pytest.fixture(scope="class")
    def traced(self):
        return run(_spec(), trace=True)

    @pytest.fixture(scope="class")
    def untraced(self):
        return run(_spec())

    def test_untraced_run_has_no_trace(self, untraced):
        assert untraced.trace == []
        assert "trace" not in untraced.to_dict()

    def test_traced_run_is_structurally_identical(self, traced, untraced):
        a, b = traced.to_dict(), untraced.to_dict()
        for key in _TIMING_KEYS:
            a.pop(key, None)
            b.pop(key, None)
        assert a == b

    def test_trace_covers_every_stage(self, traced):
        names = {event["name"] for event in traced.trace}
        assert {
            "run", "run.route", "run.delay", "run.validate",
            "dme.pass", "dme.select", "dme.merge", "dme.embed",
        } <= names

    def test_stage_span_totals_equal_stats(self, traced):
        """NDJSON per-stage totals agree with RunResult.stats (exactly: the
        stage spans and the stats entries share one measurement)."""
        totals = {}
        for event in traced.trace:
            totals[event["name"]] = totals.get(event["name"], 0.0) + event["seconds"]
        for span_name, stats_key in (
            ("run.delay", "delay_seconds"),
            ("run.validate", "validate_seconds"),
        ):
            assert abs(totals[span_name] - traced.stats[stats_key]) < 1e-3

    def test_root_span_carries_run_attributes(self, traced):
        (root,) = [e for e in traced.trace if e["name"] == "run"]
        assert root["attrs"]["router"] == "ast-dme"
        assert root["attrs"]["num_sinks"] == 60
        assert root["parent_id"] is None

    def test_trace_round_trips_through_to_dict(self, traced):
        from repro.api.spec import RunResult

        data = json.loads(json.dumps(traced.to_dict()))
        assert RunResult.from_dict(data).trace == traced.trace

    def test_tracing_leaves_the_process_tracer_off(self, traced):
        assert get_tracer().enabled is False


class TestOptPassSpans:
    """Each ``opt.pass`` span reports the detours the pass computed, as
    opposed to read from the obstacle set's memo."""

    @staticmethod
    def _opt_spans(instance):
        result = run(
            RunSpec(
                instance=instance,
                router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
                validate=True,
                opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=1200.0),
            ),
            trace=True,
        )
        assert result.ok
        return [event for event in result.trace if event["name"] == "opt.pass"]

    def test_blocked_repair_counts_detours(self):
        spans = self._opt_spans(InstanceSpec.from_family("blocked", 200, seed=0, groups=4))
        assert {span["attrs"]["pass_name"] for span in spans} == set(BUFFERED_PASSES)
        counts = [span["attrs"]["detours_computed"] for span in spans]
        assert all(isinstance(count, int) and count >= 0 for count in counts)
        assert sum(counts) > 0

    def test_obstacle_free_repair_computes_no_detours(self):
        spans = self._opt_spans(InstanceSpec.from_random(60, seed=3, groups=4))
        assert spans
        assert all(span["attrs"]["detours_computed"] == 0 for span in spans)
