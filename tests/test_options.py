"""Every configuration field must be able to hold more than one value.

A ``CardProfile`` or ``TerminalConfig`` field that no fixture, flaw or
override ever sets to anything but one value is a constant spelled as an
option: it adds a settable value and guards code paths that never run.
"""

import dataclasses

import pytest

from tapsim.attacks import CATALOG, KNOWN_FLAWS, _world_for
from tapsim.card import CardProfile
from tapsim.runner import build_env
from tapsim.terminal import TerminalConfig


def _worlds():
    """Each catalogue entry's world with its required flaws, with every
    flaw on and with every flaw off."""
    for spec in CATALOG.values():
        for flaws in (spec.required_flaws, dict.fromkeys(KNOWN_FLAWS, True),
                      dict.fromkeys(KNOWN_FLAWS, False)):
            policy, card_over, term_over = _world_for(dict(flaws))
            yield build_env(policy=policy, card_overrides=card_over,
                            terminal_overrides=term_over)


def _single_valued(objects, cls) -> list[str]:
    single = []
    for f in dataclasses.fields(cls):
        values = [getattr(obj, f.name) for obj in objects]
        if all(v == values[0] for v in values):
            single.append(f"{cls.__name__}.{f.name}")
    return single


def test_no_option_holds_only_one_value():
    worlds = list(_worlds())
    profiles = [c.profile for env in worlds for c in env.cards.values()]
    configs = [t.config for env in worlds for t in env.terminals.values()]
    single = (_single_valued(profiles, CardProfile)
              + _single_valued(configs, TerminalConfig))
    assert not single, f"options that only ever hold one value: {single}"


@pytest.mark.parametrize("overrides", [
    {"card_overrides": {"visa_plastic_no_fdda": {"offline_pin_enabeld": True}}},
    {"terminal_overrides": {"standard_pos": {"lenient_cashire": True}}},
    {"card_overrides": {"visa_plastic_no_fdda": {"brand": "visa"}}},  # the PAN names the brand
])
def test_mistyped_override_is_rejected(overrides):
    with pytest.raises(TypeError):
        build_env(**overrides)
