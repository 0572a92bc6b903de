"""Channels, traces and the adversary.

Three channels exist: the contactless air gap between card and terminal
(``nfc``), the authorization leg between terminal and issuer (``acquirer``)
and the clearing leg (``payment``). Every exchanged message is logged with
the sender's view *and* the receiver's view, so a man-in-the-middle edit is
visible in the trace as a disagreement between the two.

The adversary is a hook container. Capabilities gate what the hooks may do:

* ``A1`` — own the NFC hop: eavesdrop, modify, inject, relay.
* ``A5`` — talk to the payment rails directly (submit authorizations or
  clearing records without an honest terminal).
* ``A8`` — physically look at the card (printed PAN, expiry, name, CSC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, NamedTuple, Protocol

from .elements import (AID_BRANDS, PLAIN_JSON, RENDER, DataElementMap, FrozenElementMap, Tag,
                       TagInfo, json_chunks, keep, render_value, to_json)

CAPABILITIES = frozenset({"A1", "A5", "A8"})

# Line shapes, the latest _SHAPES_SIZE met (code paths make most, an adversary's edits any): a
# message's (name, *payload tags) or a marker's data keys -> (keys in output order, %-template)
_SHAPES_SIZE = 1024  # per cache; the catalogue and genuine matrix meet 45 + 14
_MESSAGE_SHAPES: dict[tuple, tuple[tuple, str]] = {}
_MARKER_SHAPES: dict[tuple, tuple[tuple, str]] = {}


def _shape(cache: dict, key: tuple, names: dict[Any, str], head: str, tail: str) -> tuple:
    """Keep a new shape: members sorted on their names as json.dumps sorts, '%' escaped."""
    order = sorted(names, key=names.__getitem__)
    members = ", ".join([_quote(names[k]).replace("%", "%%") + ": %s" for k in order])
    return keep(cache, key, (tuple(order), head.replace("%", "%%") + members + tail), _SHAPES_SIZE)


# Fixed message vocabulary and the tags each message may legally carry
# (union over both directions; construction-time typo guard).
_T = Tag
MESSAGES: dict[str, frozenset[TagInfo]] = {
    "SELECT": frozenset({_T.AID, _T.AID_LIST, _T.PDOL, _T.KERNEL_ID}),
    "GET_PROCESSING_OPTIONS": frozenset({
        _T.TTQ, _T.AMOUNT, _T.UN, _T.MCC, _T.MERCHANT_ID, _T.TERMINAL_ID, _T.TX_TYPE,
        _T.AIP, _T.AFL, _T.ATC, _T.CID, _T.AC, _T.IAD, _T.CTQ, _T.UN_CARD, _T.SDAD,
        _T.N_UN_DIGITS, _T.TRACK2, _T.PAN,
    }),
    "READ_RECORD": frozenset({
        _T.RECORD_NUMBER, _T.PAN, _T.EXPIRY, _T.CARDHOLDER_NAME, _T.TRACK1, _T.TRACK2,
        _T.CVM_LIST, _T.IAC, _T.CA_PK_INDEX, _T.ISSUER_CERT, _T.CARD_CERT,
        _T.STATIC_SIGNATURE, _T.CTQ, _T.AIP, _T.SERVICE_CODE, _T.CDOL1, _T.SDAD,
    }),
    "GENERATE_AC": frozenset({
        _T.AMOUNT, _T.UN, _T.CVM_RESULTS, _T.TX_TYPE, _T.CDA_REQUESTED, _T.ATC,
        _T.CID, _T.AC, _T.IAD, _T.SDAD, _T.UN_CARD, _T.CVC3, _T.TRACK2,
    }),
    "VERIFY": frozenset({_T.PIN_GUESS, _T.PIN_TRIES_REMAINING, _T.DECISION}),
    "AUTH_REQUEST": frozenset({
        _T.PAN, _T.EXPIRY, _T.AMOUNT, _T.UN, _T.ATC, _T.AC, _T.CID, _T.IAD,
        _T.CVM_RESULTS, _T.CTQ, _T.TTQ, _T.AIP, _T.ENC_PIN, _T.MCC, _T.MERCHANT_ID,
        _T.TERMINAL_ID, _T.AID, _T.TX_TYPE, _T.TRACK2, _T.CVC3, _T.N_UN_DIGITS,
        _T.KERNEL_ID, _T.SERVICE_CODE, _T.UN_CARD,
    }),
    "AUTH_RESPONSE": frozenset({_T.DECISION, _T.REASON, _T.PIN_TRIES_REMAINING}),
    "CLEARING_SUBMIT": frozenset({
        _T.PAN, _T.EXPIRY, _T.AMOUNT, _T.UN, _T.ATC, _T.AC, _T.CID, _T.IAD,
        _T.CVM_RESULTS, _T.CTQ, _T.TTQ, _T.AIP, _T.MCC, _T.MERCHANT_ID,
        _T.TERMINAL_ID, _T.AID, _T.TX_TYPE, _T.KERNEL_ID, _T.UN_CARD, _T.DECISION,
    }),
    "CLEARING_RESPONSE": frozenset({_T.DECISION, _T.REASON}),
    "MAGIC_BYTES": frozenset({_T.MAGIC}),
}

# the kinds the sandbox marks: ``to_jsonl`` writes a trace's meta line itself
MARKER_KINDS = frozenset({
    "card_tx", "decision", "auth", "clearing", "cvm", "knowledge", "genuine_probe",
})


class ChannelError(Exception):
    pass


@dataclass(frozen=True, slots=True, init=False)
class Message:
    """A named protocol message, a value: the map it is built with becomes its read-only payload,
    so an edit is a new message. ``json`` is its JSON text once a trace emits it, None before."""

    name: str
    payload: FrozenElementMap
    json: str | None = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, payload: DataElementMap | None = None) -> None:
        allowed = MESSAGES.get(name)
        if allowed is None:
            raise ChannelError(f"unknown message name {name!r}")
        payload = FrozenElementMap() if payload is None else payload
        if not allowed.issuperset(payload):
            names = ", ".join(sorted(t.name for t in payload.tags() - allowed))
            raise ChannelError(f"{name} payload may not carry: {names}")
        if type(payload) is not FrozenElementMap:  # a builder becomes read-only; a dict refuses
            payload.__class__, payload._wire = FrozenElementMap, None
        _set_name(self, name)
        _set_payload(self, payload)
        _set_json(self, None)

    def render(self) -> dict[str, Any]:
        return {"name": self.name, "payload": self.payload.render()}

    def with_payload(self, **by_name: Any) -> "Message":
        """Copy with named payload elements replaced/added."""
        p = self.payload.copy()
        for name, value in by_name.items():
            p.put(Tag.by_name(name), value)
        return Message(self.name, p)


# each field's slot setter, which writes a frozen message at half object.__setattr__'s cost
_set_name, _set_payload, _set_json = (Message.name.__set__, Message.payload.__set__,
                                      Message.json.__set__)

# Messages that carry no per-transaction data, the latest _SHARED_SIZE asked for. Its domain:
# 287 eager messages (below and in card), a VERIFY per four-digit PIN guess (10,000), a
# GENERATE AC per mag-stripe UN (10 ** card.N_UN_DIGITS = 1,000) and a few dozen issuer
# responses, SELECT and GPO replies and cards' records 1 and 2; the three benchmark workloads
# at seeds 0-2 meet 2,559.
_SHARED_SIZE = 1 << 14


@lru_cache(maxsize=_SHARED_SIZE, typed=True)
def shared(name: str, *items: Any) -> Message:
    """``Message(name, DataElementMap(...))`` over ``items``, flat ``tag, value, tag, value, ...``,
    built once per process and sent in many runs. A message admits no value that can change, so
    no run can change what the next one sends. The cache keys each value by its exact type, so
    ``True`` is not the message built for ``1``; a hit runs no Python code, and a miss makes
    ``Message``'s check itself instead of calling ``Message``."""
    payload = FrozenElementMap(zip(items[::2], items[1::2], strict=True))
    allowed = MESSAGES.get(name)
    if allowed is None or not allowed.issuperset(payload):
        return Message(name, payload)  # raises the ChannelError that names the fault
    msg = object.__new__(Message)
    _set_name(msg, name)
    _set_payload(msg, payload)
    _set_json(msg, None)
    return msg


# Each message with an empty payload: the reply to a command the card cannot answer, and
# the commands that ask without data.
EMPTY: dict[str, Message] = {name: shared(name) for name in MESSAGES}
# The commands that name no per-transaction data: a SELECT per known AID and a READ RECORD
# per record number an AFL can hold
SELECT: dict[bytes, Message] = {aid: shared("SELECT", Tag.AID, aid) for aid in AID_BRANDS}
READ_RECORD: tuple[Message, ...] = tuple(
    shared("READ_RECORD", Tag.RECORD_NUMBER, n) for n in range(0x100))


class TraceEvent(NamedTuple):
    """One logged event; the trace and the NFC hop build it with ``tuple.__new__``, so no
    Python frame."""

    idx: int
    kind: str                      # "msg" or a marker kind
    session: int | None
    channel: str | None            # a message's; None for a marker
    direction: str | None
    relay_active: bool
    sent: Message | None           # what the sender put on the wire
    received: Message | None       # what the receiver actually got
    data: dict[str, Any]           # a marker's; empty for a message



class TransactionTrace:
    """Ordered log of everything that happened in one scenario run."""

    def __init__(self, meta: dict[str, Any] | None = None):
        self.meta: dict[str, Any] = dict(meta or {})
        self.events: list[TraceEvent] = []
        self._next_session = 1

    def new_session(self) -> int:
        sid = self._next_session
        self._next_session += 1
        return sid

    def log_msg(self, channel: str, session: int, direction: str, sent: Message,
                received: Message, relay_active: bool = False) -> TraceEvent:
        ev = tuple.__new__(TraceEvent, (len(self.events), "msg", session, channel, direction,
                                        relay_active, sent, received, {}))
        self.events.append(ev)
        return ev

    def mark(self, kind: str, session: int | None, data: dict[str, Any]) -> TraceEvent:
        """Log a marker. The event keeps ``data`` itself: the caller hands it over."""
        if kind not in MARKER_KINDS:
            raise ChannelError(f"unknown marker kind {kind!r}")
        ev = tuple.__new__(TraceEvent, (len(self.events), kind, session, None, None, False,
                                        None, None, data))
        self.events.append(ev)
        return ev

    def to_jsonl(self) -> str:
        """One JSON object per line, keys sorted: an event's line is its shape's template filled
        with its values. A message is rendered once and keeps its text, however many traces
        hold it; a value is rendered and encoded once per call, and an interned value never: it
        carries its text."""
        # id of a value the trace holds -> its JSON. Ids, not values, key it: 1, True and
        # CID.ARQC are equal and each has its own text. The trace keeps every key alive.
        memo: dict[int, str] = {}

        def message(msg: Message) -> str:
            items = msg.payload  # a dict: read in place, no copy, no call per entry
            order, template = _MESSAGE_SHAPES.get(key := (msg.name, *items)) or _shape(
                _MESSAGE_SHAPES, key, {tag: tag.name for tag in items},
                f'{{"name": {_quote(msg.name)}, "payload": {{', "}}")
            texts = []
            for value in map(items.__getitem__, order):
                text = memo.get(ref := id(value))
                if text is None:  # not yet seen in this call
                    write = PLAIN_JSON.get(type(value))
                    if write is not None:
                        text = write(value)
                    elif (text := getattr(value, "json", None)) is None:  # no text of its own
                        text = RENDER.get(type(value), render_value)(value)
                        text = (_quote(text) if type(text) is str
                                else "".join(json_chunks(text, 0)))
                    memo[ref] = text
                texts.append(text)
            text = template % tuple(texts)
            _set_json(msg, text)  # none of it can change: keep it
            return text

        meta = {"kind": "meta", **self.meta}
        for key, value in meta.items():  # to_json(meta), with no call for a plain value
            if type(value) not in PLAIN_JSON:
                meta[key] = render_value(value)
        lines = ["".join(json_chunks(meta, 0))]
        for idx, kind, session, channel, direction, relay, sent, received, data in self.events:
            session = "" if session is None else f', "session": {session}'
            if kind == "msg":
                sent = sent.json or message(sent)
                received = received.json or message(received)
                lines.append(f'{{"channel": {_quote(channel)}, "direction": '
                             f'{_quote(direction)}, "idx": {idx}, "kind": "msg", '
                             f'"received": {received}, "relay": {PLAIN_JSON[bool](relay)}, '
                             f'"sent": {sent}{session}, "status": "ok"}}')
                continue
            order, template = _MARKER_SHAPES.get(key := tuple(data)) or _shape(
                _MARKER_SHAPES, key, dict(zip(key, key)), '{"data": {' if key else "{",
                ('}, ' if key else "") + '"idx": %s, "kind": %s%s}')
            texts = []
            for value in map(data.__getitem__, order):
                text = memo.get(ref := id(value))
                if text is None:
                    write = PLAIN_JSON.get(type(value))
                    if write is not None:
                        text = write(value)
                    elif (text := getattr(value, "json", None)) is None:  # no text of its own
                        text = RENDER.get(type(value), render_value)(value)
                        text = (_quote(text) if type(text) is str
                                else "".join(json_chunks(text, 0)))
                    memo[ref] = text
                texts.append(text)
            lines.append(template % (*texts, idx, _quote(kind), session))
        lines.append("")  # the text ends in a newline, joined in one copy
        return "\n".join(lines)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


# --- adversary ------------------------------------------------------------------

# A hook that returns the message it was given only observes the hop. An edit returns a new
# message (as Edit and Message.with_payload do): the payload it was handed refuses every write,
# so the message the hop logs as sent is the one the sender sent.
Hook = Callable[[Message, "Adversary"], Message]


@dataclass(frozen=True, slots=True)
class Edit:
    """A hook as data: in each message named ``message`` (any message when None) whose
    ``where`` guard (tag, value) holds, rewrite ``tag``. A dict op sets those flag bits and a
    callable maps the old value, both only where the tag is carried; any other op puts the
    value, only into a message that ``MESSAGES`` lets carry the tag, so an edit naming no
    message passes every other message on unchanged."""

    tag: TagInfo
    op: Any
    message: str | None = None
    where: tuple[TagInfo, Any] | None = None

    def __call__(self, msg: Message, adversary: "Adversary") -> Message:
        where = self.where
        if self.message not in (None, msg.name) or (
                where is not None and msg.payload.get(where[0]) != where[1]):
            return msg
        op = self.op
        if type(op) is dict or callable(op):
            if self.tag not in msg.payload:
                return msg
            old = msg.payload[self.tag]
            op = old.replace(**op) if type(op) is dict else op(old)
        elif self.tag not in MESSAGES[msg.name]:
            return msg
        return msg.with_payload(**{self.tag.name: op})


class Adversary:
    """Capability-gated hook container for man-in-the-middle behavior."""

    def __init__(self, capabilities: frozenset[str] | set[str] | tuple[str, ...] = ("A1",), *,
                 trace: TransactionTrace):
        caps = frozenset(capabilities)
        unknown = caps - CAPABILITIES
        if unknown:
            raise ChannelError(f"unknown capabilities: {sorted(unknown)}")
        self.capabilities = caps
        self.trace = trace
        self.to_card_hooks: list[Hook] = []
        self.from_card_hooks: list[Hook] = []
        self.knowledge: set[tuple[str, str]] = set()

    def can(self, cap: str) -> bool:
        return cap in self.capabilities

    def require(self, cap: str) -> None:
        if not self.can(cap):
            raise ChannelError(f"adversary lacks capability {cap}")

    def on_to_card(self, hook: Hook) -> None:
        self.to_card_hooks.append(hook)

    def on_from_card(self, hook: Hook) -> None:
        self.from_card_hooks.append(hook)

    def learn(self, category: str, value: Any, session: int | None = None) -> None:
        value = render_value(value)  # a value rendered as a string is known as that string
        if not isinstance(value, str):
            value = to_json(value)
        item = (category, value)
        if item in self.knowledge:
            return
        self.knowledge.add(item)
        self.trace.mark("knowledge", session, {"category": item[0], "value": item[1]})

    def knows(self, category: str) -> set[str]:
        return {v for c, v in self.knowledge if c == category}


class CardFace(Protocol):
    def exchange(self, msg: Message) -> Message: ...


class NfcChannel:
    """One contactless hop. With an A1 adversary attached, every message in
    both directions flows through its hooks; the trace records both views.

    A relay's far leg is an A1-owned hop to the real card with
    ``relay_active``, and it answers like a card itself. Run the near leg with
    the far leg's ``session`` (and ``relay_active``) so the trace shows one
    logical session across both."""

    def __init__(self, trace: TransactionTrace, card: CardFace,
                 session: int | None = None, adversary: Adversary | None = None,
                 relay_active: bool = False):
        self.trace = trace
        self.card = card
        self.session = trace.new_session() if session is None else session
        self.adversary = adversary
        self.relay_active = relay_active
        if adversary is not None and not adversary.can("A1"):
            raise ChannelError("attaching to the NFC hop requires A1")
        # real cards log what they themselves committed to; clones and
        # replayers have no bind() and leave no card-side record
        bind = getattr(card, "bind", None)
        if callable(bind):
            bind(trace, self.session)

    def exchange(self, msg: Message) -> Message:
        # logs both events as ``TransactionTrace.log_msg`` does, with no call per event
        adversary = self.adversary
        events = self.trace.events
        delivered = msg
        for hook in () if adversary is None else adversary.to_card_hooks:
            delivered = hook(delivered, adversary)
        events.append(tuple.__new__(TraceEvent, (len(events), "msg", self.session, "nfc",
                                                 "to_card", self.relay_active, msg, delivered, {})))
        reply = self.card.exchange(delivered)
        returned = reply
        for hook in () if adversary is None else adversary.from_card_hooks:
            returned = hook(returned, adversary)
        events.append(tuple.__new__(TraceEvent, (len(events), "msg", self.session, "nfc",
                                                 "from_card", self.relay_active, reply, returned,
                                                 {})))
        return returned


class Replayer:
    """Answers from a recorded transcript; no card is present. Requests are
    matched by message name in recorded order, so a replay against a terminal
    that asks the same questions reproduces the old answers verbatim. A command
    the transcript has no reply for gets the empty reply, as a card's unknown
    command does."""

    def __init__(self, transcript: list[tuple[Message, Message]]):
        self.remaining = list(transcript)

    def exchange(self, msg: Message) -> Message:
        for i, (req, resp) in enumerate(self.remaining):
            if req.name == msg.name:
                del self.remaining[i]
                return resp
        return EMPTY[msg.name]


class PaymentRails:
    """Authorization and clearing legs. Adversary-driven submissions require
    A5 and are labeled as such in the trace."""

    def __init__(self, trace: TransactionTrace, issuer: Any):
        self.trace = trace
        self.issuer = issuer

    def authorize(self, request: Message, session: int,
                  submitted_by: str = "terminal",
                  adversary: Adversary | None = None) -> Message:
        return self._submit("acquirer", "auth", self.issuer.handle_auth,
                            request, session, submitted_by, adversary)

    def clear(self, submit: Message, session: int,
              submitted_by: str = "terminal",
              adversary: Adversary | None = None) -> Message:
        return self._submit("payment", "clearing", self.issuer.handle_clearing,
                            submit, session, submitted_by, adversary)

    def _submit(self, channel: str, marker: str,
                handle: Callable[[Message], Message], request: Message,
                session: int, submitted_by: str,
                adversary: Adversary | None) -> Message:
        if submitted_by != "terminal":
            if adversary is None:
                raise ChannelError("non-terminal submission needs an adversary")
            adversary.require("A5")
        response = handle(request)
        self.trace.log_msg(channel, session, "to_issuer", sent=request,
                           received=request)
        self.trace.log_msg(channel, session, "from_issuer", sent=response,
                           received=response)
        self.trace.mark(marker, session, {"submitted_by": submitted_by,
                                          "decision": response.payload[Tag.DECISION],
                                          "reason": response.payload.get(Tag.REASON),
                                          "request": request})
        return response


def visual_read(adversary: Adversary, face: dict[str, str],
                session: int | None = None) -> None:
    """A8: read what is printed on the card."""
    adversary.require("A8")
    for category in ("PAN", "EXPIRY", "CARDHOLDER_NAME", "CSC"):
        if category in face:
            adversary.learn(category, face[category], session=session)
