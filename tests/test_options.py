"""Every configuration field must be able to hold more than one value.

A ``CardProfile`` or ``TerminalConfig`` field that no fixture, flaw or
override ever sets to anything but one value is a constant spelled as an
option: it adds a settable value and guards code paths that never run.
"""

import dataclasses

import pytest

from tapsim.attacks import CATALOG, KNOWN_FLAWS, _world_for
from tapsim.card import CardProfile, Wallet
from tapsim.elements import AID_BRANDS, TRANSIT_MCCS, brand_of
from tapsim.runner import CARD_FIXTURES, TERMINAL_FIXTURES, build_env
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
    # worked out, not set: the kernel from the brand, a phone from its wallet, transit from the MCC
    {"card_overrides": {"mastercard_cda": {"kernel": 2}}},
    {"card_overrides": {"google_like_phone": {"device_type": "phone"}}},
    {"terminal_overrides": {"transit_gate": {"transit": True}}},
    # a device's identity is its fixture's: the issuer finds it by its PAN or terminal id
    {"card_overrides": {"maestro_debit": {"pan": "6011000000000004"}}},
    {"terminal_overrides": {"standard_pos": {"terminal_id": "T-STD-2"}}},
])
def test_mistyped_override_is_rejected(overrides):
    with pytest.raises(TypeError):
        build_env(**overrides)


@pytest.mark.parametrize("name", CARD_FIXTURES)
def test_a_card_works_out_its_application_kernel_and_device(name):
    profile = build_env().cards[name].profile
    brand = brand_of(profile.pan)
    assert AID_BRANDS[profile.aid] == brand
    assert (profile.kernel == 3) == (brand == "visa") and profile.kernel in (2, 3)
    assert (profile.device_type == "phone") == (profile.wallet is not None)
    assert profile.device_type in ("phone", "plastic")


@pytest.mark.parametrize("name", TERMINAL_FIXTURES)
def test_a_transit_gate_is_a_reader_with_a_transit_mcc(name):
    terminal = build_env().terminals[name]
    assert terminal.transit == (terminal.config.mcc in TRANSIT_MCCS)
    assert terminal.transit == (name == "transit_gate")


def test_an_unknown_wallet_kind_is_refused_when_the_card_is_built():
    env = build_env(card_overrides={"google_like_phone": {"wallet": "huawei_like"}})
    with pytest.raises(ValueError):
        env.cards["google_like_phone"]
    with pytest.raises(ValueError):
        Wallet("huawei_like")
