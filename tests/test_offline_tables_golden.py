"""The offline tables against a committed golden, bit for bit.

``tests/data/offline_tables.golden.json`` holds every EIB row of every
``DEVICES`` profile x cellular kind x direction and the MDP values and
policy that ``mdp_policy_for`` serves, as ``float.hex()``.  The
comparison is exact: a threshold or a value that moves by one ulp
fails.  Regenerate with ``tests/offline_tables_golden.py`` only when a
change is meant to move the tables.
"""

import json

import pytest

from repro.energy.device import DEVICES
from repro.experiments.protocols import mdp_policy_for
from tests.offline_tables_golden import CELL_KINDS, build, mdp_key, mdp_tables


@pytest.fixture(scope="module")
def golden(test_data_dir):
    return json.loads((test_data_dir / "offline_tables.golden.json").read_text())


@pytest.fixture(scope="module")
def built():
    return build()


def test_every_table_is_pinned(golden, built):
    assert sorted(built["eib"]) == sorted(golden["eib"])
    assert sorted(built["mdp"]) == sorted(golden["mdp"])
    assert len(golden["eib"]) == len(DEVICES) * len(CELL_KINDS) * 2


def test_eib_rows_bit_identical(golden, built):
    for key, rows in golden["eib"].items():
        assert len(built["eib"][key]) == len(rows), key
        for got, want in zip(built["eib"][key], rows):
            assert got == want, (key, got, want)


def test_mdp_values_and_policy_bit_identical(golden, built):
    for key, tables in golden["mdp"].items():
        assert built["mdp"][key]["policy"] == tables["policy"], key
        assert built["mdp"][key]["values"] == tables["values"], key


def test_mdp_policy_for_serves_the_pinned_tables(golden):
    for name, profile in DEVICES.items():
        for kind in CELL_KINDS:
            served = mdp_tables(mdp_policy_for(profile, kind))
            assert served == golden["mdp"][mdp_key(name, kind)]
