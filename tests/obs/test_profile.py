"""Deterministic sampling-profiler tests: synthetic frames, virtual clock.

The profiler's frame source and clock are injectable, so every test here
drives ``sample_once`` directly with hand-built fake frames and asserts
*exact* folded-stack counts, role attribution, self-metering, and
stuck-thread detection — no real threads, no sleeps, no timing slack.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import profile as profile_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    IDLE_FRAME_NAMES,
    SamplingProfiler,
    StackProfile,
    current_role,
    fold_stack,
    frame_label,
    register_thread,
    registered_threads,
    thread_role,
    unregister_thread,
)


class FakeCode:
    def __init__(self, name, filename):
        self.co_name = name
        self.co_filename = filename


class FakeFrame:
    """Stands in for a Python frame: f_code + f_back chain."""

    def __init__(self, name, filename="fake.py", back=None):
        self.f_code = FakeCode(name, filename)
        self.f_back = back


def make_stack(*labels):
    """Leaf frame for a root→leaf label chain of (filename, name) pairs."""
    frame = None
    for filename, name in labels:
        frame = FakeFrame(name, filename=filename, back=frame)
    return frame


def fake_clock(step=0.001, start=0.0):
    """Monotonic clock advancing ``step`` per call."""
    state = {"t": start - step}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


@pytest.fixture(autouse=True)
def clean_registry():
    """Isolate the process-wide thread-role registry per test."""
    with profile_mod._registry_lock:
        saved = dict(profile_mod._thread_roles)
    yield
    with profile_mod._registry_lock:
        profile_mod._thread_roles.clear()
        profile_mod._thread_roles.update(saved)


class TestFolding:
    def test_frame_label_strips_path_and_extension(self):
        frame = FakeFrame("handle", filename="/src/repro/net/rpc.py")
        assert frame_label(frame) == "rpc:handle"

    def test_frame_label_windows_separator(self):
        frame = FakeFrame("flush", filename="C:\\repro\\db\\wal.py")
        assert frame_label(frame) == "wal:flush"

    def test_fold_stack_root_first_role_prefix(self):
        leaf = make_stack(
            ("server.py", "serve"), ("rpc.py", "handle"), ("lrc.py", "query")
        )
        folded = fold_stack(leaf, "rpc.worker")
        assert folded == "rpc.worker;server:serve;rpc:handle;lrc:query"

    def test_fold_stack_truncates_deep_stacks_at_root(self):
        leaf = make_stack(*[("m.py", f"f{i}") for i in range(10)])
        folded = fold_stack(leaf, "r", max_depth=3)
        # The three leaf-most frames survive; root-side frames drop.
        assert folded == "r;m:f7;m:f8;m:f9"


class TestStackProfile:
    def test_add_and_samples(self):
        p = StackProfile()
        p.add("r;a:b")
        p.add("r;a:b")
        p.add("r;c:d", count=3)
        assert p.stacks == {"r;a:b": 2, "r;c:d": 3}
        assert p.samples == 5

    def test_merge_sums_disjoint_and_shared(self):
        a = StackProfile({"r;x": 2}, samples=2)
        b = StackProfile({"r;x": 1, "s;y": 4}, samples=5)
        merged = a.merge(b)
        assert merged.stacks == {"r;x": 3, "s;y": 4}
        assert merged.samples == 7
        # Merge is non-destructive.
        assert a.stacks == {"r;x": 2}

    def test_delta_clamps_at_zero(self):
        before = StackProfile({"r;x": 5, "r;gone": 3}, samples=8)
        after = StackProfile({"r;x": 9, "r;new": 2}, samples=11)
        window = after.delta(before)
        assert window.stacks == {"r;x": 4, "r;new": 2}
        assert window.samples == 6

    def test_by_role_groups_on_prefix(self):
        p = StackProfile({"rpc.worker;a": 2, "rpc.worker;b": 1, "updates;c": 4})
        assert p.by_role() == {"rpc.worker": 3, "updates": 4}

    def test_top_orders_by_count_then_stack(self):
        p = StackProfile({"r;b": 3, "r;a": 3, "r;c": 9})
        assert p.top(2) == [("r;c", 9), ("r;a", 3)]

    def test_render_folded_flamegraph_lines(self):
        p = StackProfile({"r;b:f": 2, "r;a:g": 7})
        assert p.render_folded() == "r;a:g 7\nr;b:f 2"

    def test_dict_round_trip(self):
        p = StackProfile({"r;a": 2}, samples=2)
        clone = StackProfile.from_dict(p.to_dict())
        assert clone.stacks == p.stacks
        assert clone.samples == p.samples

    def test_len_and_bool(self):
        assert not StackProfile()
        assert len(StackProfile({"r;a": 1, "r;b": 1})) == 2


class TestThreadRegistry:
    def test_register_and_current_role(self):
        register_thread("rpc.worker", ident=991)
        assert current_role(991) == "rpc.worker"
        assert registered_threads()[991] == "rpc.worker"
        unregister_thread(ident=991)
        assert current_role(991) == "other"

    def test_reregister_replaces_role(self):
        register_thread("a", ident=992)
        register_thread("b", ident=992)
        assert current_role(992) == "b"
        unregister_thread(ident=992)

    def test_thread_role_overrides_and_restores(self):
        ident = threading.get_ident()
        register_thread("rpc.worker")
        try:
            with thread_role("wal.flush"):
                assert current_role(ident) == "wal.flush"
            assert current_role(ident) == "rpc.worker"
        finally:
            unregister_thread()

    def test_thread_role_on_unregistered_thread_leaves_no_residue(self):
        ident = threading.get_ident()
        unregister_thread()
        with thread_role("wal.flush"):
            assert current_role(ident) == "wal.flush"
        assert ident not in registered_threads()

    def test_thread_role_nests(self):
        ident = threading.get_ident()
        with thread_role("outer"):
            with thread_role("inner"):
                assert current_role(ident) == "inner"
            assert current_role(ident) == "outer"


class TestSampleOnce:
    def test_exact_folded_counts_with_roles(self):
        register_thread("rpc.worker", ident=1)
        register_thread("updates", ident=2)
        frames = {
            1: make_stack(("server.py", "serve"), ("rpc.py", "handle")),
            2: make_stack(("updates.py", "_run")),
            3: make_stack(("misc.py", "spin")),  # unregistered -> other
        }
        profiler = SamplingProfiler(hz=10, frames=lambda: frames)
        for _ in range(3):
            assert profiler.sample_once() == 3
        assert profiler.profile().stacks == {
            "rpc.worker;server:serve;rpc:handle": 3,
            "updates;updates:_run": 3,
            "other;misc:spin": 3,
        }
        assert profiler.profile().samples == 9
        assert profiler.profile().by_role() == {
            "rpc.worker": 3,
            "updates": 3,
            "other": 3,
        }

    def test_own_thread_and_none_frames_excluded(self):
        own = threading.get_ident()
        frames = {own: make_stack(("x.py", "me")), 5: None}
        profiler = SamplingProfiler(hz=10, frames=lambda: frames)
        assert profiler.sample_once() == 0
        assert not profiler.profile()

    def test_self_metering(self):
        registry = MetricsRegistry()
        frames = {7: make_stack(("a.py", "f"))}
        profiler = SamplingProfiler(
            hz=25,
            frames=lambda: frames,
            clock=fake_clock(step=0.001),
            metrics=registry,
        )
        profiler.sample_once()
        # One clock step per walk -> duty = 0.001 * 25.
        assert profiler.last_walk_seconds == pytest.approx(0.001)
        assert profiler._m_samples.value == 1
        assert profiler._m_duty.value == pytest.approx(0.025)

    def test_reset_clears_profile_and_runs(self):
        frames = {7: make_stack(("a.py", "f"))}
        profiler = SamplingProfiler(hz=10, frames=lambda: frames)
        profiler.sample_once()
        profiler.reset()
        assert not profiler.profile()
        assert profiler.thread_states() == []

    def test_window_delta_between_snapshots(self):
        frames = {7: make_stack(("a.py", "f"))}
        profiler = SamplingProfiler(hz=10, frames=lambda: frames)
        profiler.sample_once()
        before = profiler.profile()
        profiler.sample_once()
        profiler.sample_once()
        window = profiler.profile().delta(before)
        assert window.stacks == {"other;a:f": 2}

    def test_negative_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=-1)

    def test_start_requires_positive_hz(self):
        profiler = SamplingProfiler(hz=0)
        assert not profiler.enabled
        with pytest.raises(ValueError):
            profiler.start()

    def test_to_dict_shape(self):
        frames = {7: make_stack(("a.py", "f"))}
        profiler = SamplingProfiler(hz=10, frames=lambda: frames)
        profiler.sample_once()
        payload = profiler.to_dict()
        assert payload["enabled"] is True
        assert payload["hz"] == 10
        assert payload["samples"] == 1
        assert payload["roles"] == {"other": 1}
        assert payload["profile"]["stacks"] == {"other;a:f": 1}


class TestStuckDetection:
    def busy_frames(self, name="hot_loop"):
        return {11: make_stack(("server.py", "serve"), ("lrc.py", name))}

    def test_fires_after_min_samples_with_inflight(self):
        profiler = SamplingProfiler(
            hz=10, frames=self.busy_frames, inflight=lambda: 2.0
        )
        for _ in range(4):
            profiler.sample_once()
        assert profiler.detections() == []
        profiler.sample_once()
        (det,) = profiler.detections()
        assert det.kind == "stuck_thread"
        assert det.severity == "warning"
        assert det.details["top_frame"] == "lrc:hot_loop"
        assert det.details["consecutive"] == 5
        assert det.details["inflight"] == 2.0

    def test_critical_at_double_threshold(self):
        profiler = SamplingProfiler(
            hz=10, frames=self.busy_frames, inflight=lambda: 1.0
        )
        for _ in range(10):
            profiler.sample_once()
        (det,) = profiler.detections()
        assert det.severity == "critical"

    def test_idle_top_frame_never_fires(self):
        assert "recv" in IDLE_FRAME_NAMES
        frames = {11: make_stack(("transport.py", "recv"))}
        profiler = SamplingProfiler(
            hz=10, frames=lambda: frames, inflight=lambda: 5.0
        )
        for _ in range(20):
            profiler.sample_once()
        assert profiler.detections() == []
        (state,) = profiler.thread_states()
        assert state["idle"] is True
        assert state["consecutive"] == 20

    def test_zero_inflight_suppresses(self):
        profiler = SamplingProfiler(
            hz=10, frames=self.busy_frames, inflight=lambda: 0.0
        )
        for _ in range(20):
            profiler.sample_once()
        assert profiler.detections() == []

    def test_no_inflight_source_suppresses(self):
        profiler = SamplingProfiler(hz=10, frames=self.busy_frames)
        for _ in range(20):
            profiler.sample_once()
        assert profiler.detections() == []

    def test_changing_top_frame_resets_run(self):
        calls = {"n": 0}

        def frames():
            calls["n"] += 1
            name = "hot_a" if calls["n"] % 2 else "hot_b"
            return {11: make_stack(("lrc.py", name))}

        profiler = SamplingProfiler(
            hz=10, frames=frames, inflight=lambda: 1.0
        )
        for _ in range(20):
            profiler.sample_once()
        assert profiler.detections() == []
        (state,) = profiler.thread_states()
        assert state["consecutive"] == 1

    def test_exited_thread_drops_from_bookkeeping(self):
        gone = {"yes": False}

        def frames():
            if gone["yes"]:
                return {}
            return {11: make_stack(("lrc.py", "hot"))}

        profiler = SamplingProfiler(hz=10, frames=frames)
        profiler.sample_once()
        assert len(profiler.thread_states()) == 1
        gone["yes"] = True
        profiler.sample_once()
        assert profiler.thread_states() == []


class FakeTracer:
    def __init__(self, contexts):
        self.contexts = contexts

    def context_for_thread(self, ident):
        return self.contexts.get(ident)


class TestThreadDump:
    def test_dump_fields_roles_and_spans(self):
        register_thread("rpc.worker", ident=21)
        frames = {
            21: make_stack(
                ("server.py", "serve"), ("rpc.py", "handle"), ("lrc.py", "query")
            ),
            22: make_stack(("transport.py", "accept")),
        }
        profiler = SamplingProfiler(hz=10, frames=lambda: frames)
        profiler.sample_once()
        tracer = FakeTracer({21: ("trace-1", "span-9")})
        dump = profiler.thread_dump(tracer=tracer)
        by_ident = {entry["ident"]: entry for entry in dump}
        worker = by_ident[21]
        # Frames leaf-first in the dump (what the thread is doing *now*).
        assert worker["frames"][0] == "lrc:query"
        assert worker["role"] == "rpc.worker"
        assert worker["trace_id"] == "trace-1"
        assert worker["span_id"] == "span-9"
        assert worker["idle"] is False
        assert worker["consecutive_top"] == 1
        idle = by_ident[22]
        assert idle["idle"] is True
        assert idle["trace_id"] is None
        assert idle["role"] == "other"

    def test_dump_truncates_frames(self):
        frames = {31: make_stack(*[("m.py", f"f{i}") for i in range(10)])}
        profiler = SamplingProfiler(hz=10, frames=lambda: frames)
        dump = profiler.thread_dump(tracer=FakeTracer({}), top=3)
        (entry,) = [e for e in dump if e["ident"] == 31]
        assert entry["frames"] == ["m:f9", "m:f8", "m:f7"]


class TestBackgroundLoop:
    def test_real_thread_samples_real_frames(self):
        """Smoke: the daemon loop samples genuine interpreter frames."""
        stop = threading.Event()

        def busy():
            register_thread("busy.bee")
            try:
                while not stop.is_set():
                    sum(range(50))
            finally:
                unregister_thread()

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        try:
            with SamplingProfiler(hz=200) as profiler:
                deadline = 200
                while profiler.profile().samples == 0 and deadline:
                    deadline -= 1
                    stop.wait(0.01)
            roles = profiler.profile().by_role()
            assert "busy.bee" in roles
        finally:
            stop.set()
            worker.join()
        # stop() is idempotent and the thread is gone.
        profiler.stop()
        assert not profiler.task.running
