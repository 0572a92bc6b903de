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


@dataclass
class _Acceptance:
    kind: str            # decision | auth | clearing
    session: int | None
    mode: str            # emv | ms | swipe
    submitted_by: str
    view: dict[str, Any]


def _acceptances(markers: Mapping[str, list[TraceEvent]]) -> list[_Acceptance]:
    out = []
    for ev in markers["decision"]:
        if str(ev.data.get("outcome", "")).startswith("approve"):
            out.append(_Acceptance(kind="decision", session=ev.session,
                                   mode=ev.data.get("mode", "emv"),
                                   submitted_by="terminal",
                                   view=dict(ev.data)))
    for kind in ("auth", "clearing"):
        for ev in markers[kind]:
            if ev.data.get("decision") != "approve":
                continue
            # a request's elements by field name, as the terminal wrote them
            view = {FIELD_NAMES[tag]: v for tag, v in ev.data["request"].payload.items()}
            if view.get("cvc3") is not None:
                mode = "ms"
            elif view.get("track2") is not None and view.get("ac") is None:
                mode = "swipe"
            else:
                mode = "emv"
            out.append(_Acceptance(kind=kind, session=ev.session, mode=mode,
                                   submitted_by=ev.data.get("submitted_by",
                                                            "terminal"),
                                   view=view))
    return out


def _mismatches(view: dict[str, Any], card_view: dict[str, Any]) -> list[str]:
    labels = []
    for f in AGREEMENT_FIELDS:
        tv, cv = view.get(f), card_view.get(f)
        if tv is None:
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


def _scan(trace: TransactionTrace) -> tuple[dict[str, list[TraceEvent]], set[int], set[Any]]:
    """One pass over the trace: markers by kind, the sessions that carried
    an NFC message, and the sessions that carried a relayed message."""
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
    return markers, nfc_sessions, relayed


def evaluate(trace: TransactionTrace,
             secret_scope: Iterable[str] = ()) -> PropertyReport:
    markers, nfc_sessions, relayed = _scan(trace)
    acceptances = _acceptances(markers)
    by_pan_atc: dict[tuple[Any, Any], list[Any]] = {}
    for m in markers["card_tx"]:
        by_pan_atc.setdefault((m.data.get("pan"), m.data.get("atc")), []).append(m)
    genuine_cvm = {ev.session for ev in markers["cvm"] if ev.data.get("genuine")}

    p1: set[str] = set()
    p2 = False
    p31 = False
    p32 = False

    for acc in acceptances:
        view = acc.view
        amount = view.get("amount")

        # P1 — only terminal-submitted acceptances claim card agreement
        same: list[Any] = []   # card_tx markers of this (pan, atc) in-session
        if acc.submitted_by == "terminal":
            key = (view.get("pan"), view.get("atc"))
            matches = by_pan_atc.get(key, []) if None not in key else []
            same = [m for m in matches if m.session == acc.session]
            if same:
                p1 |= set(_mismatches(view, same[0].data))
            elif matches and acc.mode == "emv":
                # the card committed to this ATC in a different session: a
                # stored transcript was played back as if live
                p1.add("replay")

        # P3.1 — high value needs a genuinely performed CVM in-session
        if amount is not None and amount.value > CVM_LIMIT \
                and acc.session not in genuine_cvm:
            p31 = True

        # P3.2 — only meaningful where a contactless session exists
        # (``same`` is empty for an adversary's submission)
        if acc.session in nfc_sessions:
            ok = (acc.session not in relayed
                  and any(not _mismatches(view, m.data) for m in same))
            if not ok:
                p32 = True

    # P2 — offline approval that bounced at clearing
    offline = {(a.view.get("pan"), a.view.get("atc"))
               for a in acceptances
               if a.kind == "decision" and a.view.get("outcome") == "approve_offline"}
    for ev in markers["clearing"]:
        if ev.data.get("decision") != "decline":
            continue
        payload = ev.data["request"].payload
        if (payload.get(Tag.PAN), payload.get(Tag.ATC)) in offline:
            p2 = True

    # P5 — learned categories against the secrets in scope
    scope = CORE_SECRETS | set(secret_scope)
    learned = {ev.data.get("category") for ev in markers["knowledge"]}
    leaked = sorted(learned & scope)

    # P6 — genuine probes that no longer work
    p6 = any(not ev.data.get("ok") for ev in markers["genuine_probe"])

    violations: dict[str, tuple[str, ...]] = {}
    if p1:
        violations["P1"] = tuple(sorted(p1))
    if p2:
        violations["P2"] = ()
    if p31:
        violations["P3.1"] = ()
    if p32:
        violations["P3.2"] = ()
    if leaked:
        violations["P5"] = tuple(leaked)
    if p6:
        violations["P6"] = ()
    return PropertyReport(violations=violations)


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
