"""The black box freezes references and renders on read.

``RPCServer.handle`` freezes the ring on every handler exception — an RLI
"not found" is one — so the freeze may not build a dict per event.  What
is frozen, and what a reader gets, must be what the eager dump produced.
"""

from repro.net.messages import Hello, Request
from repro.net.rpc import RPCServer
from repro.obs.flight import FlightEvent, FlightRecorder


def eager_dump(recorder: FlightRecorder, reason: str) -> dict:
    """What ``dump()`` built before the freeze became lazy, from public API."""
    return {
        "reason": reason,
        "t": recorder.clock(),
        "stats": recorder.stats(),
        "events": [event.to_dict() for event in recorder.events()],
    }


def count_renders(monkeypatch) -> list[int]:
    rendered = [0]
    to_dict = FlightEvent.to_dict

    def counting(self):
        rendered[0] += 1
        return to_dict(self)

    monkeypatch.setattr(FlightEvent, "to_dict", counting)
    return rendered


def fill(recorder: FlightRecorder, healthy: int, errors: int) -> None:
    for i in range(errors):
        recorder.record("error", detail=f"boom{i}", error=True, message="m")
    for i in range(healthy):
        recorder.record("rpc.in", detail=f"call{i}", principal="p")


def test_freeze_renders_nothing_until_read_and_then_once(monkeypatch):
    recorder = FlightRecorder(capacity=8, clock=lambda: 7.0)
    fill(recorder, healthy=5, errors=1)
    rendered = count_renders(monkeypatch)
    recorder.freeze("query: RuntimeError")
    assert rendered[0] == 0
    first = recorder.last_dump
    assert rendered[0] == 6
    assert recorder.last_dump is first
    assert recorder.to_dict()["last_dump"] is first
    assert rendered[0] == 6 + 6  # to_dict rendered the live ring, not the dump
    assert recorder._dump == [None, first]  # the events are not kept twice


def test_lazy_dump_equals_the_eager_rendering_across_a_wrap():
    recorder = FlightRecorder(capacity=4, error_capacity=2, clock=lambda: 3.0)
    fill(recorder, healthy=9, errors=3)  # both rings wrapped
    expected = eager_dump(recorder, "x: Y")
    recorder.freeze("x: Y")
    fill(recorder, healthy=20, errors=5)  # the live ring moves on
    assert recorder.last_dump == expected
    assert [e["detail"] for e in expected["events"]] == [
        "boom1", "boom2", "call5", "call6", "call7", "call8",
    ]
    assert recorder.dump("later") == eager_dump(recorder, "later")


def test_a_new_freeze_replaces_the_rendered_dump_and_clear_resets():
    recorder = FlightRecorder(capacity=4)
    recorder.record("error", detail="first", error=True)
    first = recorder.dump("first")
    recorder.record("error", detail="second", error=True)
    recorder.freeze("second")
    second = recorder.last_dump
    assert second is not first and second["reason"] == "second"
    assert [e["detail"] for e in second["events"]] == ["first", "second"]
    assert [e["detail"] for e in first["events"]] == ["first"]
    # dump() reads back the freeze it made, even when another one lands
    # between its freeze and its read.
    mine = recorder.freeze("mine")
    recorder.freeze("theirs")
    assert recorder._render(mine)["reason"] == "mine"
    assert recorder.last_dump["reason"] == "theirs"
    recorder.clear()
    assert recorder.last_dump is None
    assert recorder.to_dict()["last_dump"] is None


def test_handler_exception_freezes_without_rendering(monkeypatch):
    recorder = FlightRecorder(capacity=16)
    rpc = RPCServer(observers=[recorder])

    def boom(ctx, args):
        raise KeyError("nope")

    rpc.register("boom", boom)
    rpc.register("ok", lambda ctx, args: 1)
    ctx = rpc.handshake(Hello(), peer="test")
    rendered = count_renders(monkeypatch)
    assert rpc.handle(ctx, Request("ok", ())).ok
    assert not rpc.handle(ctx, Request("boom", ())).ok
    assert rpc.handle(ctx, Request("ok", ())).ok
    assert rendered[0] == 0
    dump = recorder.last_dump
    assert dump["reason"] == "boom: KeyError"
    # Frozen at the failure: the later healthy call is not in it.
    assert [(e["kind"], e["detail"]) for e in dump["events"]] == [
        ("rpc.in", "ok"), ("rpc.out", "ok"), ("rpc.in", "boom"),
        ("error", "boom: KeyError"),
    ]
    assert dump["events"][-1]["data"] == {"message": "'nope'"}
    assert dump["stats"]["recorded"] == 4 and dump["stats"]["errors"] == 1
