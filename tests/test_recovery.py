"""The CbC search's recovery at population 50, seeds 0-19, held as a
floor at the measured counts (tests/recovery.py). A search change may
raise the floor; it may not lower it without saying so."""

import pytest
from recovery import CONTAINERS, recovery

# container -> (runs recovered, runs whose best has the truth's signature)
FLOOR = {"pi": (14, 14), "pid": (2, 2), "limpid": (1, 1)}


@pytest.mark.parametrize("name", CONTAINERS)
def test_cbc_recovery_at_population_50_keeps_its_floor(name):
    measured = recovery(name, 50)
    assert measured["runs"] == 20
    recovered, same_signature = FLOOR[name]
    assert measured["recovered"] >= recovered, measured
    assert measured["truth_signature"] >= same_signature, measured
    assert measured["simulations"] <= measured["evaluations"], measured
