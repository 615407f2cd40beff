"""The reference CLI runs of ``cli_pins.CASES`` give their recorded output."""

import json

import pytest

from cli_pins import CASES, PINS_PATH, record

PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_pinned(name):
    assert record(name) == PINS[name]
