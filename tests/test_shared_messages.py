"""Messages built once per process and sent in many runs.

A message that carries no per-transaction data (an empty reply, a VERIFY
reply, a SELECT by AID and its reply, a kernel-2 or mag-stripe GPO reply, a
READ RECORD, an issuer response, a PIN guess, a mag-stripe UN query) is one
shared object, and ``channel.shared``'s one cache holds them all. Its payload
refuses every write and admits no value that can change, so no run can change
what the next one sends. A trace renders each message object once per ``to_jsonl`` call,
however often it holds it, and a shared message keeps its text for the
process. Neither may show in the output: a trace whose every message is a
fresh, unshared object emits the same text.
"""

from __future__ import annotations

import pytest

from tapsim import attacks, card, channel, elements, issuer, runner, terminal
from tapsim.attacks import CATALOG, run_attack
from tapsim.channel import (EMPTY, MESSAGES, READ_RECORD, SELECT, Message, TransactionTrace,
                            shared)
from tapsim.elements import (AFL, CTQ, DOL, IAD, TTQ, Amount, CodecError, CVMCondition, CVMEntry,
                             CVMList, CVMMethod, DataElementMap, SharedElementMap, Tag)
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import (AMOUNT_HIGH, AMOUNT_LOW, build_env, run_genuine,
                           run_genuine_matrix)

MODULES = (attacks, card, channel, elements, issuer, runner, terminal)


def shared_messages() -> list[Message]:
    """Every shared message the package's modules hold, in their globals or in a dict,
    tuple or list there."""
    found: dict[int, Message] = {}

    def visit(value, depth: int) -> None:
        if type(value) is Message and type(value.payload) is SharedElementMap:
            found[id(value)] = value
        elif depth and isinstance(value, (dict, tuple, list)):
            for item in value.values() if isinstance(value, dict) else value:
                visit(item, depth - 1)

    for module in MODULES:
        for value in vars(module).values():
            visit(value, 2)
    return list(found.values())


# taken when the tests are collected, before any test has run a world
AT_IMPORT = {id(msg): (msg, msg.payload.encode()) for msg in shared_messages()}


# id of each shared message the seed-42 catalogue logs -> (the message, its encoding when
# first logged); the catalogue fixture fills it
LOGGED: dict[int, tuple[Message, bytes]] = {}


class _NotingEvents(list):
    """A trace's event list that notes each shared message, and its bytes, as it is logged:
    the NFC hop appends its events itself, and the rails through ``log_msg``."""

    def append(self, ev) -> None:
        for msg in (ev.sent, ev.received):
            if msg is not None and type(msg.payload) is SharedElementMap and id(msg) not in LOGGED:
                LOGGED[id(msg)] = msg, msg.payload.encode()
        list.append(self, ev)


@pytest.fixture(scope="module")
def catalogue():
    # the enumerations build their commands on first use, where the import-time scan
    # cannot see them: note each shared message, and its bytes, as it is logged
    init = TransactionTrace.__init__

    def noting(self, meta=None):
        init(self, meta)
        self.events = _NotingEvents()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TransactionTrace, "__init__", noting)
        return [run_attack(attack_id, seed=42) for attack_id in CATALOG]


def test_the_tables_are_found():
    assert {id(EMPTY[name]) for name in MESSAGES} <= AT_IMPORT.keys()
    assert len(AT_IMPORT) >= len(MESSAGES) + 256  # the empty messages and every READ RECORD


MUTATORS = {
    "put": lambda m: m.put(Tag.ATC, 1),
    "setitem": lambda m: m.__setitem__(Tag.ATC, 1),
    "delitem": lambda m: m.__delitem__(next(iter(m), Tag.ATC)),
    "ior": lambda m: m.__ior__({Tag.ATC: 1}),
    "update": lambda m: m.update({Tag.ATC: 1}),
    "setdefault": lambda m: m.setdefault(Tag.ATC, 1),
    "pop": lambda m: m.pop(next(iter(m), Tag.ATC)),
    "popitem": lambda m: m.popitem(),
    "clear": lambda m: m.clear(),
}


@pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS)
def test_every_shared_payload_refuses_every_write(mutate):
    for msg, wire in AT_IMPORT.values():
        with pytest.raises(TypeError):
            mutate(msg.payload)
        assert msg.payload.encode() == wire


def test_a_copy_of_a_shared_payload_is_writable():
    for msg, wire in AT_IMPORT.values():
        clone = msg.payload.copy()
        assert type(clone) is DataElementMap and clone == msg.payload
        clone.put(Tag.ATC, 1)
        assert Tag.ATC in clone and msg.payload.encode() == wire


# (a message that may carry the tag, the tag, a value that can change once admitted, the
# same value in the form that cannot): the composite values refuse where they are built
CHANGEABLE = {
    "bytearray": ("SELECT", Tag.AID, lambda: bytearray(b"\xa0\x00"), b"\xa0\x00"),
    "iad_filled_with_bytearray": ("GENERATE_AC", Tag.IAD, lambda: IAD(filler=bytearray(b"\x01")),
                                  IAD(filler=b"\x01")),
    "afl_over_a_list": ("GET_PROCESSING_OPTIONS", Tag.AFL, lambda: AFL([1, 2]), AFL((1, 2))),
    "dol_over_a_list": ("SELECT", Tag.PDOL, lambda: DOL([Tag.UN]), DOL((Tag.UN,))),
    "cvm_list_over_a_list": ("READ_RECORD", Tag.CVM_LIST, lambda: CVMList([]), CVMList(())),
}


@pytest.mark.parametrize("kind", CHANGEABLE)
def test_a_shared_message_admits_no_value_that_can_change(kind):
    # a shared message would send (and emit) stale bytes once the value changed after the
    # first run. The cache cannot key an unhashable value; a composite value refuses where
    # it is built.
    name, tag, changeable, fixed = CHANGEABLE[kind]
    assert shared(name, tag, fixed).payload[tag] is fixed
    with pytest.raises(TypeError if kind == "bytearray" else CodecError):
        shared(name, tag, changeable())


def test_the_cache_keys_each_value_by_its_exact_type():
    assert shared("VERIFY", Tag.PIN_TRIES_REMAINING, 1).payload[Tag.PIN_TRIES_REMAINING] == 1
    with pytest.raises(CodecError):  # True == 1, and a bool is no uint
        shared("VERIFY", Tag.PIN_TRIES_REMAINING, True)


@pytest.mark.parametrize("case", CHANGEABLE.values(), ids=CHANGEABLE)
def test_an_unshared_map_admits_no_value_that_can_change(case):
    # a logged payload would emit other bytes than those that were MACed, signed or sent
    name, tag, changeable, fixed = case
    assert Message(name, DataElementMap({tag: fixed})).payload[tag] is fixed
    hash(fixed)  # a frozen value over a tuple hashes
    with pytest.raises(CodecError):
        DataElementMap({tag: changeable()})
    with pytest.raises(CodecError):
        DataElementMap().put(tag, changeable())


def test_shared_checks_what_message_checks():
    assert shared("SELECT", Tag.AID, b"\xa0\x00") == Message(
        "SELECT", DataElementMap({Tag.AID: b"\xa0\x00"}))
    for name, items in (("NO_SUCH", ()), ("VERIFY", (Tag.AID, b""))):
        with pytest.raises(channel.ChannelError):
            shared(name, *items)


def test_every_shared_message_the_catalogue_logs_stays_read_only(catalogue):
    # the PIN guesses and UN queries are among them, built during the run
    names = {msg.name for msg, _wire in LOGGED.values()}
    assert {"VERIFY", "GENERATE_AC", "SELECT", "READ_RECORD"} <= names
    assert any(Tag.UN in msg.payload for msg, _wire in LOGGED.values())
    for msg, wire in LOGGED.values():
        for mutate in MUTATORS.values():
            with pytest.raises(TypeError):
                mutate(msg.payload)
        assert msg.payload.encode() == wire


def test_shared_messages_are_unchanged_by_the_catalogue(catalogue):
    assert all(result.success and not result.diffs for result in catalogue)
    for msg, wire in AT_IMPORT.values():
        assert msg.payload.encode() == wire
    # every issuer response is the shared message for its (name, decision, reason)
    responses = [ev.sent for result in catalogue for ev in result.trace.events
                 if ev.direction == "from_issuer"]
    assert {response.name for response in responses} == {"AUTH_RESPONSE", "CLEARING_RESPONSE"}
    for response in responses:
        decision, reason = response.payload[Tag.DECISION], response.payload[Tag.REASON]
        assert response is shared(response.name, Tag.DECISION, decision, Tag.REASON, reason)
        assert response.payload.encode() == DataElementMap(
            {Tag.DECISION: decision, Tag.REASON: reason}).encode()


@pytest.mark.parametrize("attack_id", ["pin_guessing", "magstripe_mode_clone"])
def test_a_second_enumeration_builds_no_message(attack_id):
    run_attack(attack_id, seed=0)
    misses = shared.cache_info().misses
    run_attack(attack_id, seed=0)
    assert shared.cache_info().misses == misses


def test_constant_card_replies_are_shared_across_worlds():
    kernel3_gpo = Message("GET_PROCESSING_OPTIONS", DataElementMap(
        {Tag.TTQ: TTQ(), Tag.AMOUNT: Amount(100, "EUR"), Tag.UN: 7}))

    def replies(seed: int, card_name: str, gpo: Message) -> tuple[Message, Message]:
        card = build_env(seed=seed).cards[card_name]
        return card.exchange(SELECT[card.profile.aid]), card.exchange(gpo)

    for card_name in ("mastercard_cda", "magstripe_only"):
        first = replies(0, card_name, EMPTY["GET_PROCESSING_OPTIONS"])
        again = replies(1, card_name, EMPTY["GET_PROCESSING_OPTIONS"])
        assert Tag.KERNEL_ID in first[0].payload and Tag.AIP in first[1].payload
        assert first[0] is again[0] and first[1] is again[1]
    # a kernel-3 card transacts at GPO: its reply carries the ATC and the cryptogram
    first = replies(0, "visa_plastic_no_fdda", kernel3_gpo)
    again = replies(1, "visa_plastic_no_fdda", kernel3_gpo)
    assert first[0] is again[0] and Tag.AC in first[1].payload
    assert type(again[1].payload) is DataElementMap and first[1] is not again[1]


def test_records_1_and_2_are_shared_across_worlds_and_record_3_is_not():
    # records 1 and 2 are the card's fixed profile; record 3 carries the world's certificates
    def records(seed: int, card_name: str) -> list[Message]:
        card = build_env(seed=seed).cards[card_name]
        return [card.exchange(READ_RECORD[number]) for number in (1, 2, 3)]

    for card_name in ("mastercard_cda", "visa_plastic_fdda", "magstripe_only"):
        first, again = records(0, card_name), records(1, card_name)
        assert first[0] is again[0] and type(first[0].payload) is SharedElementMap
        assert first[0].payload[Tag.RECORD_NUMBER] == 1 and Tag.PAN in first[0].payload
        if card_name == "magstripe_only":  # one record, with the track-1 image
            assert Tag.TRACK1 in first[0].payload and first[1] is first[2] is EMPTY["READ_RECORD"]
            continue
        assert first[1] is again[1] and first[1].payload[Tag.RECORD_NUMBER] == 2
        assert first[2] is not again[2] and type(first[2].payload) is DataElementMap
        assert first[2].payload[Tag.CARD_CERT] != again[2].payload[Tag.CARD_CERT]


def test_a_kernel3_record_2_carries_the_ctq_of_the_latest_gpo():
    card = build_env(seed=0).cards["visa_plastic_no_fdda"]
    assert card.exchange(READ_RECORD[2]).payload[Tag.CTQ] == CTQ()
    seen = set()
    for amount, cvm_required in ((AMOUNT_HIGH, True), (AMOUNT_LOW, True), (AMOUNT_LOW, False),
                                 (AMOUNT_HIGH, True)):
        gpo = card.exchange(Message("GET_PROCESSING_OPTIONS", DataElementMap({
            Tag.TTQ: TTQ(cvm_required=cvm_required), Tag.AMOUNT: Amount(amount, "EUR"),
            Tag.UN: 7})))
        assert card.exchange(READ_RECORD[2]).payload[Tag.CTQ] == gpo.payload[Tag.CTQ]
        seen.add(gpo.payload[Tag.CTQ])
    assert len(seen) == 3


def test_a_profile_edit_shows_in_the_next_taps_marker_and_record_2():
    # the card-constant facts of a card_tx marker are read when the card is placed on a hop
    env = build_env(seed=0)
    card = env.cards["maestro_debit"]  # kernel 2 with no ODA: no signature covers the list
    fixture_list = card.profile.cvm_list
    edited = CVMList((CVMEntry(CVMMethod.NoCVM, CVMCondition.Always),))
    for cvm_list in (fixture_list, edited, fixture_list):
        card.profile.cvm_list = cvm_list
        session = run_genuine(env, "maestro_debit", "standard_pos", AMOUNT_LOW)["session"]
        events = [ev for ev in env.trace.events if ev.session == session]
        [marker] = [ev for ev in events if ev.kind == "card_tx"]
        [record2] = [ev.sent for ev in events if ev.direction == "from_card"
                     and ev.sent.payload.get(Tag.RECORD_NUMBER) == 2]
        # the record is the shared reply of an equal list, maybe one an earlier world built
        assert marker.data["cvm_list"] is cvm_list == record2.payload[Tag.CVM_LIST]
    assert edited != fixture_list


def _fresh(msg: Message) -> Message:
    return Message(msg.name, msg.payload.copy())


def unshared(trace: TransactionTrace) -> TransactionTrace:
    """A copy of ``trace`` in which every logged message, and every message in
    marker data, is a fresh object held nowhere else."""
    copy = TransactionTrace(trace.meta)
    for ev in trace.events:
        if ev.kind == "msg":
            ev = ev._replace(sent=_fresh(ev.sent), received=_fresh(ev.received))
        else:
            ev = ev._replace(data={key: _fresh(value) if type(value) is Message else value
                                   for key, value in ev.data.items()})
        copy.events.append(ev)
    return copy


def test_emission_does_not_depend_on_sharing(catalogue):
    traces = [result.trace for result in catalogue] + [
        env.trace for policy in (PERMISSIVE_2019, HARDENED)
        for _pairing, env, _result in run_genuine_matrix(policy, seed=0)]
    # the replayer logs the card's recorded replies a second time, in its own session
    replayed = next(r.trace for r in catalogue if r.spec.attack_id == "replay_nonce_reuse")
    sessions: dict[int, set] = {}
    for ev in replayed.events:
        if ev.kind == "msg" and type(ev.sent.payload) is DataElementMap:
            sessions.setdefault(id(ev.sent), set()).add(ev.session)
    assert any(len(logged_in) > 1 for logged_in in sessions.values())
    # a first emission keeps each shared message's text: the comparison meets them warm
    texts = [trace.to_jsonl() for trace in traces]
    assert EMPTY["VERIFY"].payload.message_json is not None
    for trace, text in zip(traces, texts):
        copy = unshared(trace)
        assert all(ev.sent is not ev.received for ev in copy.events if ev.kind == "msg")
        assert copy.to_jsonl() == trace.to_jsonl() == text

