"""Security-property checker: decide which guarantees a finished run broke.

The checker works purely on the trace. It collects every *acceptance* (a
terminal approving, the issuer authorizing, clearing settling) and holds each
one against the card's own ``card_tx`` markers:

* **P1 — data authentication.** Card and terminal must agree on what was
  transacted. Each field both sides saw but disagree on becomes a label
  (``TTQ``, ``AC``, ``AID``...). An acceptance whose card commitment lives in
  a *different* session is a replayed transaction (label ``replay``). An
  acceptance with no card commitment at all is a clone talking — there is no
  card view to disagree with, so other checks must catch it.
* **P2 — no delayed decline.** Nothing accepted offline at the terminal may
  bounce at clearing.
* **P3.1 — high-value transactions require CVM.** Above ``CVM_LIMIT``,
  some genuinely performed cardholder verification must exist in the session.
* **P3.2 — card close to terminal.** The acceptance must trace back to a
  real card in the same session that fully agrees with the accepted view,
  with no relay legs and no adversary-submitted authorization in between.
  Plain swipes have no contactless session and are out of scope.
* **P5 — secrecy.** The adversary's recorded knowledge must not intersect
  the secrets in scope for the scenario.
* **P6 — availability.** Post-run genuine probes must still work.

P4 (privacy) is out of scope for this model and always reported as
not evaluated. A derived ``P3`` (cardholder intent) is the disjunction of
P3.1 and P3.2 and is reported for convenience but never compared against
expectations directly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .channel import Tag, TraceEvent, TransactionTrace
from .elements import CVM_LIMIT, FIELD_NAMES

BASE_PROPERTIES = ("P1", "P2", "P3.1", "P3.2", "P5", "P6")

# Secrets whose leak always counts, regardless of scenario scope.
CORE_SECRETS = frozenset({"PIN", "MASTER_KEY", "CVC3_KEY", "SIGNING_KEY"})

# Fields card and terminal can both hold an opinion about. A mismatch on any
# of them is a P1 violation and disqualifies the card_tx for P3.2 agreement.
AGREEMENT_FIELDS = (
    "amount", "un", "ttq", "ctq", "aip", "aid",
    "cvm_list", "ca_pk_index", "iac_denial", "ac", "cvm_results",
)


@dataclass
class PropertyReport:
    """Which properties a run violated, with per-property labels."""

    violations: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def p3(self) -> bool:
        return "P3.1" in self.violations or "P3.2" in self.violations

    def summary(self) -> str:
        if not self.violations:
            return "none"
        parts = []
        for prop in sorted(self.violations):
            labels = self.violations[prop]
            parts.append(f"{prop}({','.join(labels)})" if labels else prop)
        return ", ".join(parts)

    def render(self) -> dict[str, Any]:
        return {
            "violations": {p: list(l) for p, l in sorted(self.violations.items())},
            "p3": self.p3,
            "not_evaluated": ["P4"],  # privacy is out of scope
        }


def _mismatches(view: Mapping[str, Any], card_view: Mapping[str, Any]) -> list[str]:
    labels = []
    for f in AGREEMENT_FIELDS:
        tv, cv = view.get(f), card_view.get(f)
        if tv is cv or tv is None:  # one object is one value: interning makes it common
            continue
        if cv is None:
            # a kernel-2 card never issued any kernel-3 CVM qualifier; if the
            # accepted view carries one anyway, somebody made it up
            if f == "ctq":
                labels.append("CTQ")
            continue
        if tv != cv:
            labels.append(f.upper())
    return labels


def evaluate(trace: TransactionTrace,
             secret_scope: Iterable[str] = ()) -> PropertyReport:
    # one pass: markers by kind, the sessions that carried an NFC message and
    # the sessions that carried a relayed one
    markers: dict[str, list[TraceEvent]] = defaultdict(list)
    nfc_sessions, relayed = set(), set()
    for ev in trace.events:
        _idx, kind, session, channel, _direction, relay_active, _sent, _received, _data = ev
        if kind != "msg":
            markers[kind].append(ev)
            continue
        if relay_active:
            relayed.add(session)
        if channel == "nfc" and session is not None:
            nfc_sessions.add(session)
    by_pan_atc: dict[tuple[Any, Any], list[TraceEvent]] = {}
    for m in markers["card_tx"]:
        by_pan_atc.setdefault((m.data.get("pan"), m.data.get("atc")), []).append(m)
    genuine_cvm = {ev.session for ev in markers["cvm"] if ev.data.get("genuine")}

    p1: set[str] = set()
    p2 = p31 = p32 = False
    offline: set[tuple[Any, Any]] = set()  # (pan, atc) of each offline approval

    # an acceptance is an approving marker: a terminal's decision, then the
    # issuer's authorization, then clearing's settlement
    for kind in ("decision", "auth", "clearing"):
        for ev in markers[kind]:
            data = ev.data
            if kind == "decision":
                if not str(data.get("outcome", "")).startswith("approve"):
                    continue
                view, submitted_by, emv = data, "terminal", data.get("mode", "emv") == "emv"
                if data.get("outcome") == "approve_offline":
                    offline.add((data.get("pan"), data.get("atc")))
            elif data.get("decision") == "approve":
                # a request's elements by field name, as the terminal wrote them;
                # neither a mag-stripe (CVC3) nor a plain swipe (track 2, no AC) is EMV
                view = {FIELD_NAMES[tag]: v for tag, v in data["request"].payload.items()}
                submitted_by = data.get("submitted_by", "terminal")
                emv = view.get("cvc3") is None and (view.get("track2") is None
                                                    or view.get("ac") is not None)
            else:
                # P2 — an offline approval that bounced at clearing
                if kind == "clearing" and data.get("decision") == "decline":
                    payload = data["request"].payload
                    p2 = p2 or (payload.get(Tag.PAN), payload.get(Tag.ATC)) in offline
                continue
            session = ev.session

            # P1 — only terminal-submitted acceptances claim card agreement
            same: list[TraceEvent] = []   # card_tx markers of this (pan, atc) in-session
            if submitted_by == "terminal":
                key = (view.get("pan"), view.get("atc"))
                matches = by_pan_atc.get(key, []) if None not in key else []
                same = [m for m in matches if m.session == session]
                if same:
                    mismatched = _mismatches(view, same[0].data)
                    p1.update(mismatched)
                elif matches and emv:
                    # the card committed to this ATC in a different session: a
                    # stored transcript was played back as if live
                    p1.add("replay")

            # P3.1 — high value needs a genuinely performed CVM in-session
            amount = view.get("amount")
            if amount is not None and amount.value > CVM_LIMIT and session not in genuine_cvm:
                p31 = True

            # P3.2 — only meaningful where a contactless session exists: an unrelayed
            # commitment that agrees on every field, P1's labels judging the first
            # (``same`` is empty for an adversary's submission)
            if session in nfc_sessions and not p32:
                p32 = (session in relayed or not same
                       or bool(mismatched) and all(_mismatches(view, m.data) for m in same[1:]))

    # P5 — learned categories against the secrets in scope
    scope = CORE_SECRETS | set(secret_scope)
    leaked = tuple(sorted({ev.data.get("category") for ev in markers["knowledge"]} & scope))

    # P6 — genuine probes that no longer work
    p6 = any(not ev.data.get("ok") for ev in markers["genuine_probe"])

    found = {"P1": (p1, tuple(sorted(p1))), "P2": (p2, ()), "P3.1": (p31, ()),
             "P3.2": (p32, ()), "P5": (leaked, leaked), "P6": (p6, ())}
    return PropertyReport({prop: labels for prop, (broken, labels) in found.items() if broken})


def compare_expected(report: PropertyReport,
                     expected: Mapping[str, Iterable[str]]) -> list[str]:
    """Diff a report against the expected base-property pattern.

    ``expected`` maps property ids to expected label sets (empty for
    unlabeled properties); any base property missing from the mapping is
    expected to hold. Returns human-readable diff lines, empty on match.
    """
    diffs = []
    for prop in BASE_PROPERTIES:
        want = prop in expected
        got = prop in report.violations
        if want != got:
            diffs.append(f"{prop}: expected {'violated' if want else 'holds'}, "
                         f"got {'violated' if got else 'holds'}")
            continue
        if want:
            want_labels = set(expected[prop])
            got_labels = set(report.violations[prop])
            if want_labels != got_labels:
                diffs.append(f"{prop} labels: expected "
                             f"{sorted(want_labels)}, got {sorted(got_labels)}")
    return diffs
