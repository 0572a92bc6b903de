"""Layer boundaries of the traced run, and what each layer should move.

``OPS`` maps each per-layer op to the public entry points it wraps. A target
``"Class.method"`` is wrapped on the class; a bare function name is wrapped
wherever a tapsim module binds it (``card``, ``terminal``, ``issuer``,
``runner`` and ``attacks`` import their crypto, ``build_env`` and
``evaluate`` by name). ``attacks.stage`` wraps the staging function of every
catalogue entry.

``COUNTED`` targets are counted but record no span, so their time stays in
the op that called them (``encode_value`` is the inner step of both
``DataElementMap.put`` and ``DataElementMap.encode``).

``MOVES`` writes down, before any optimisation, which end-to-end metric
each layer metric should move and on which workload.
"""

OPS: dict[str, tuple[tuple[str, str], ...]] = {
    "runner.build_env": (("tapsim.runner", "build_env"),),
    "crypto.sign": (("tapsim.crypto", "generate_signing_key"),
                    ("tapsim.crypto", "sign_sdad"),
                    ("tapsim.crypto", "sign_static_records"),
                    ("tapsim.crypto", "issue_certificate")),
    "crypto.mac": (("tapsim.crypto", "kdf"),
                   ("tapsim.crypto", "compute_ac"),
                   ("tapsim.crypto", "verify_ac"),
                   ("tapsim.crypto", "compute_cvc3")),
    "crypto.verify": (("tapsim.crypto", "verify_sdad"),
                      ("tapsim.crypto", "verify_static_records"),
                      ("tapsim.crypto", "CAStore.verify_chain")),
    "channel.to_jsonl": (("tapsim.channel", "TransactionTrace.to_jsonl"),),
    "channel.msg_render": (("tapsim.channel", "Message.render"),),
    "channel.exchange": (("tapsim.channel", "NfcChannel.exchange"),),
    "channel.log": (("tapsim.channel", "TransactionTrace.log_msg"),
                    ("tapsim.channel", "TransactionTrace.mark")),
    "elements.render": (("tapsim.elements", "DataElementMap.render"),),
    "elements.put": (("tapsim.elements", "DataElementMap.put"),),
    "elements.encode": (("tapsim.elements", "DataElementMap.encode"),),
    "card.exchange": (("tapsim.card", "Card.exchange"),),
    "attacks.stage": (("tapsim.attacks", "CATALOG.stage"),),
    "terminal.run": (("tapsim.terminal", "Terminal.run_purchase"),
                     ("tapsim.terminal", "Terminal.run_transit_tap"),
                     ("tapsim.terminal", "Terminal.run_swipe"),
                     ("tapsim.terminal", "Terminal.submit_clearing")),
    "issuer.handle": (("tapsim.issuer", "Issuer.handle_auth"),
                      ("tapsim.issuer", "Issuer.handle_clearing")),
    "properties.evaluate": (("tapsim.properties", "evaluate"),),
}

COUNTED: tuple[tuple[str, str], ...] = (("tapsim.elements", "encode_value"),)

# waste ratio -> (numerator target, denominator target)
RATIOS: dict[str, tuple[str, str]] = {
    # put encodes a value to validate it, encode encodes it again
    "elements.encode_value_per_put": ("encode_value", "DataElementMap.put"),
    # renders of a Message per logged message (sent and received views)
    "channel.msg_render_per_msg": ("Message.render", "TransactionTrace.log_msg"),
}

_SIGN = "runs_per_s, run_ms_p50 (genuine, sweep); small on catalogue"
_RENDER = ("run_ms_p90, runs_per_s (catalogue); run_ms_p50 (genuine); "
           "no change on sweep")
_DIALOGUE = "run_ms_p90, events_per_s (catalogue); runs_per_s (sweep)"
_MINOR = "each was <=6% of a run; recorded so that a regression shows"

MOVES: dict[str, str] = {
    "runner.build_env": _SIGN,
    "crypto.sign": _SIGN,
    "channel.to_jsonl": _RENDER,
    "elements.render": _RENDER,
    "channel.msg_render": _RENDER,
    "card.exchange": _DIALOGUE,
    "channel.exchange": _DIALOGUE,
    "channel.log": _DIALOGUE,
    "attacks.stage": _DIALOGUE,
    "crypto.mac": _DIALOGUE,
    "elements.put": "all three workloads, the largest share on sweep",
    "elements.encode": "all three workloads, the largest share on sweep",
    "crypto.verify": "run_ms_p50 (genuine, sweep)",
    "terminal.run": _MINOR,
    "issuer.handle": _MINOR,
    "properties.evaluate": _MINOR,
    "elements.encode_value_per_put": "runs_per_s (catalogue, sweep)",
    # reads 0 on sweep: it emits nothing, and nothing in tapsim calls
    # TraceEvent.tampered, the other place a Message is rendered
    "channel.msg_render_per_msg": "runs_per_s (catalogue, genuine)",
    "trace.overhead": "none: traced over untraced runs_per_s, per workload",
}
