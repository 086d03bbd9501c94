"""The transport-agnostic command dispatcher.

The REPL's rendering is covered by test_repl.py; these tests pin down
the *structured* side of each verb — the ``CommandResult.data``
payloads the session server ships over the wire — and the stable
``CommandError`` codes.
"""

import pytest

from repro.debugger.dispatcher import (CommandDispatcher, CommandError,
                                       CommandResult)
from repro.memory.main_memory import PAGE_BYTES
from tests.conftest import make_watch_loop


def _dispatcher(**kwargs):
    return CommandDispatcher(make_watch_loop(30), **kwargs)


def test_verbs_cover_the_repl_command_set():
    assert set(CommandDispatcher.verbs()) == {
        "watch", "break", "delete", "info", "backend", "run", "continue",
        "checkpoint", "rewind", "reverse-continue", "print", "x",
        "overhead", "last-write", "first-write", "seek-transition",
        "seek-until", "value-at"}


def test_verb_table_is_generated_from_the_registry():
    from repro.debugger import verbs

    assert set(CommandDispatcher.verbs()) == set(verbs.command_verbs())
    for spec in verbs.REGISTRY:
        handler = getattr(CommandDispatcher, spec.method)
        # Every registry usage line matches its handler's docstring, so
        # help text and the handlers cannot drift apart.
        doc = " ".join((handler.__doc__ or "").split())
        assert doc.startswith(spec.usage.split(" — ")[0])


def test_watch_returns_structured_result():
    result = _dispatcher().dispatch("watch", ["hot"])
    assert isinstance(result, CommandResult)
    assert result.verb == "watch"
    assert result.data == {"number": 1, "kind": "watchpoint",
                           "describe": "watch hot"}
    assert result.text == "Watchpoint 1: watch hot"


def test_break_and_delete_data():
    dispatcher = _dispatcher()
    result = dispatcher.dispatch("break", ["loop"])
    assert result.data["kind"] == "breakpoint"
    assert result.data["number"] == 1
    deleted = dispatcher.dispatch("delete", ["1"])
    assert deleted.data == {"number": 1}
    info = dispatcher.dispatch("info", ["breakpoints"])
    assert info.data["breakpoints"] == []


def test_run_stop_payload_carries_ordinal_pc_and_fingerprint():
    dispatcher = _dispatcher(record_fingerprints=True)
    dispatcher.dispatch("watch", ["hot"])
    result = dispatcher.dispatch("run", [])
    assert result.data["stopped_at_user"] is True
    stop = result.data["stop"]
    assert stop["ordinal"] == 0
    assert stop["app_instructions"] == result.data["app_instructions"]
    assert stop["pc"] == result.data["pc"]
    assert isinstance(stop["state_fingerprint"], str)
    assert stop["state_fingerprint"]
    values = {w["number"]: w["value"] for w in result.data["watch_values"]}
    assert values[1] == 101


def test_fingerprint_computed_on_demand_when_not_recorded():
    dispatcher = _dispatcher(record_fingerprints=False)
    dispatcher.dispatch("watch", ["hot"])
    stop = dispatcher.dispatch("run", []).data["stop"]
    assert stop["state_fingerprint"]


def test_run_to_halt_payload():
    dispatcher = _dispatcher()
    result = dispatcher.dispatch("run", [])
    assert result.data["halted"] is True
    assert result.data["stopped_at_user"] is False
    assert "exited normally" in result.text


def test_reverse_continue_relands_previous_stop():
    dispatcher = _dispatcher(record_fingerprints=True)
    dispatcher.dispatch("watch", ["other"])
    first = dispatcher.dispatch("run", []).data["stop"]
    second = dispatcher.dispatch("continue", []).data["stop"]
    assert second["ordinal"] == first["ordinal"] + 1
    back = dispatcher.dispatch("reverse-continue", [])
    assert back.data["relanded"] is True
    assert back.data["stop"]["ordinal"] == first["ordinal"]
    assert back.data["stop"]["pc"] == first["pc"]
    assert back.data["stop"]["state_fingerprint"] == \
        first["state_fingerprint"]


def test_rewind_and_checkpoint_data():
    dispatcher = _dispatcher()
    dispatcher.dispatch("run", ["100"])
    snap = dispatcher.dispatch("checkpoint", [])
    assert snap.data["held"] >= 1
    before = dispatcher.dispatch("run", ["0"]).data["app_instructions"]
    back = dispatcher.dispatch("rewind", ["5"])
    assert back.data["app_instructions"] == max(0, before - 5)


def test_print_and_x_data():
    dispatcher = _dispatcher()
    dispatcher.dispatch("run", ["100"])
    printed = dispatcher.dispatch("print", ["hot"])
    assert printed.data["bytes"] is False
    assert isinstance(printed.data["value"], int)
    dump = dispatcher.dispatch("x", ["hot", "2"])
    assert len(dump.data["words"]) == 2
    assert dump.data["words"][1]["address"] == \
        dump.data["words"][0]["address"] + 8


def test_x_dumps_up_to_the_top_of_the_address_space():
    dispatcher = _dispatcher()
    for start in ("0xffffffffffff0000", "0xfffffffffffff000"):
        dump = dispatcher.dispatch("x", [start, "512"])
        assert len(dump.data["words"]) == 512
    last = dispatcher.dispatch("x", ["0xfffffffffffffff8", "1"])
    assert last.data["words"][0]["address"] == 2 ** 64 - 8


def test_run_with_a_bad_count_keeps_the_active_run():
    # The count is parsed before `run` restarts: a typo must not throw
    # away the run the session is in.
    dispatcher = _dispatcher()
    dispatcher.dispatch("run", ["100"])
    backend = dispatcher._backend_obj
    fingerprint = backend.state_fingerprint()
    with pytest.raises(CommandError) as excinfo:
        dispatcher.dispatch("run", ["soon"])
    assert excinfo.value.code == "bad-request"
    assert dispatcher._backend_obj is backend
    assert backend.state_fingerprint() == fingerprint
    assert backend.machine.stats.app_instructions == 100


def test_dise_breakpoint_outside_text_is_refused():
    # Past the end of text it used to index past the instruction list,
    # an internal error on the wire.
    program = make_watch_loop(30)
    for pc in (program.pc_of_index(len(program.instructions)), 0xff8):
        dispatcher = CommandDispatcher(program, backend="dise")
        dispatcher.dispatch("break", [hex(pc)])
        with pytest.raises(CommandError, match="not an instruction") as info:
            dispatcher.dispatch("run", [])
        assert info.value.code == "command-failed"


def test_x_on_unmapped_pages_allocates_nothing():
    # A dump reads memory; it must not map the pages it reads, or any
    # client could grow the session (and every later snapshot of it)
    # with read-only verbs.
    dispatcher = _dispatcher()
    dispatcher.dispatch("run", ["100"])
    memory = dispatcher._backend_obj.machine.memory
    before = memory.resident_pages
    for page in range(1000):
        address = (1 << 40) + page * PAGE_BYTES
        dump = dispatcher.dispatch("x", [hex(address), "1"])
        assert dump.data["words"] == [{"address": address, "value": 0}]
    assert memory.resident_pages == before


def test_overhead_data():
    dispatcher = _dispatcher()
    dispatcher.dispatch("watch", ["hot"])
    dispatcher.dispatch("run", [])
    result = dispatcher.dispatch("overhead", [])
    assert result.data["ratio"] > 0
    assert result.data["app_instructions"] > 0


def test_unknown_verb_code():
    with pytest.raises(CommandError) as excinfo:
        _dispatcher().dispatch("frobnicate", [])
    assert excinfo.value.code == "unknown-verb"


def test_usage_errors_are_bad_request():
    dispatcher = _dispatcher()
    for verb, args in [("watch", []), ("break", []), ("delete", ["x"]),
                       ("run", ["soon"]), ("print", []), ("x", []),
                       ("backend", []), ("info", ["nonsense"])]:
        with pytest.raises(CommandError) as excinfo:
            dispatcher.dispatch(verb, args)
        assert excinfo.value.code == "bad-request", verb


def test_domain_errors_map_to_command_failed():
    dispatcher = _dispatcher()
    with pytest.raises(CommandError) as excinfo:
        dispatcher.dispatch("watch", ["no_such_symbol ?"])
    assert excinfo.value.code == "command-failed"
    assert str(excinfo.value).startswith("error: ")
