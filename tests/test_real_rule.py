"""Every real-number parameter follows the one rule of ``masks.require_real``: a
finite ``numbers.Real`` that is not a ``bool``, stored as a plain ``float``;
anything else is the site's error with the one message. Each site's range check
comes after it, with its own message."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from maskfuse import (
    CorruptionSpec,
    RefineConfig,
    Scenario,
    ScenarioError,
    corruption_report,
    fig2_scenario,
    generate,
    scenario_to_dict,
)
from maskfuse.masks import require_real

# (id, call(value) -> what the site stores, error type, name in the message)
SITES = [
    ("RefineConfig.tau", lambda v: RefineConfig(tau=v).tau, ValueError, "tau"),
    ("CorruptionSpec.flicker_drop_prob",
     lambda v: CorruptionSpec(flicker_drop_prob=v).flicker_drop_prob,
     ScenarioError, "flicker_drop_prob"),
    ("CorruptionSpec.spurious_add_prob",
     lambda v: CorruptionSpec(spurious_add_prob=v).spurious_add_prob,
     ScenarioError, "spurious_add_prob"),
    ("require_real", lambda v: require_real(v, "x"), ValueError, "x"),
]
BAD = [True, False, np.True_, "0.5", None, math.nan, math.inf, -math.inf, np.float32("nan"),
       10**400, Fraction(10**400, 3), 0.5j, [0.5]]
GOOD = [0.5, 0, np.float32(0.1), np.float16(0.25), np.int64(0), np.uint8(0),
        Fraction(1, 3), np.longdouble(0.5)]


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("site, call, error, name", SITES)
def test_a_bad_real_is_the_sites_error(site, call, error, name, bad):
    with pytest.raises(error) as info:
        call(bad)
    assert type(info.value) is error
    assert str(info.value) == f"{name} must be a finite real number, got {bad!r}"


@pytest.mark.parametrize("good", GOOD, ids=repr)
@pytest.mark.parametrize("site, call, error, name", SITES)
def test_a_real_is_stored_as_a_plain_float(site, call, error, name, good):
    stored = call(good)
    assert type(stored) is float and stored == float(good)


def test_range_messages_are_unchanged():
    with pytest.raises(ValueError, match=r"^tau must satisfy 0 <= tau < 1, got 1\.0$"):
        RefineConfig(tau=1)
    with pytest.raises(ValueError, match=r"^tau must satisfy 0 <= tau < 1, got -0\.5$"):
        RefineConfig(tau=-0.5)
    with pytest.raises(ScenarioError,
                       match=r"^flicker_drop_prob must be a probability in \[0, 1\], got 2$"):
        CorruptionSpec(flicker_drop_prob=2)
    with pytest.raises(ScenarioError,
                       match=r"^spurious_add_prob must be a probability in \[0, 1\], got -0\.1$"):
        CorruptionSpec(spurious_add_prob=-0.1)


def test_a_scenario_with_numpy_and_fraction_probabilities_serialises_and_renders_alike():
    # CorruptionSpec used to take only int and float, so np.float32 raised.
    plain = fig2_scenario()
    spec = CorruptionSpec(flicker_drop_prob=np.float32(0.25), spurious_add_prob=Fraction(1, 8))
    built = Scenario(**{**vars(plain), "corruption": spec})
    expected = Scenario(**{**vars(plain), "corruption": CorruptionSpec(
        flicker_drop_prob=float(np.float32(0.25)), spurious_add_prob=0.125)})
    assert json.dumps(scenario_to_dict(built)) == json.dumps(scenario_to_dict(expected))
    assert (json.dumps(corruption_report(generate(built), 2))
            == json.dumps(corruption_report(generate(expected), 2)))
