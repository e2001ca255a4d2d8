"""Fixed-seed CLI runs against the outcomes recorded in ``golden.json``.

Discrete values (pairs, labels, restart indices, iteration counts, stopping
T, pair counts, matrix digests, summary lines) must match exactly; floats
match at 1e-12 relative, so a change of BLAS that moves the last bits passes
and a change of result does not.  ``make_golden.py`` says how to rewrite the
file, and when that is right.
"""

import json
import math

import pytest

from make_golden import CASES, GOLDEN, run_cases

FLOAT_RTOL = 1e-12


def mismatches(expected, actual, path="$"):
    """Every place where ``actual`` departs from ``expected``."""
    if isinstance(expected, float) and isinstance(actual, float):
        if not math.isclose(actual, expected, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            yield f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            yield f"{path}: keys {sorted(actual)} != {sorted(expected)}"
            return
        for key in expected:
            yield from mismatches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{path}: length {len(actual)} != {len(expected)}"
            return
        for index, (e, a) in enumerate(zip(expected, actual)):
            yield from mismatches(e, a, f"{path}[{index}]")
    elif type(expected) is not type(actual) or expected != actual:
        yield f"{path}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_holds_every_case(golden):
    assert list(golden) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name", [name for name, _, _ in CASES])
def test_outcome_matches_golden(name, outcomes, golden):
    found = list(mismatches(golden[name], outcomes[name], name))
    assert not found, "\n".join(found[:20])


def test_comparison_tolerates_only_last_bits():
    assert not list(mismatches({"icl": -100.0}, {"icl": -100.0 * (1 + 3e-15)}))
    assert list(mismatches({"icl": -100.0}, {"icl": -100.0 * (1 + 1e-9)}))
    assert list(mismatches({"z": [1, 2]}, {"z": [1, 3]}))
    assert list(mismatches({"t": 2}, {"t": 2.0}))
    assert list(mismatches({"pairs": [1]}, {"pairs": [1, 1]}))
