"""One test per numbered criterion of the verification battery.

Each test prints a single pass/fail line so the battery's outcome is
readable from the pytest output, then asserts the verdict with the
measured numbers attached.
"""

import json

import pytest

from octoslice import acceptance

_IDS = [num for num, _, _ in sorted(acceptance._CRITERIA)]


@pytest.mark.parametrize("num", _IDS)
def test_criterion(num):
    record = acceptance.run_criterion(num)
    verdict = "PASS" if record["pass"] else "FAIL"
    print(f"criterion {record['id']:2d} ({record['name']}): {verdict}")
    assert record["pass"], json.dumps(record, sort_keys=True)


def test_battery_is_complete():
    assert _IDS == list(range(1, 13))


def test_run_all_stops_at_first_failure(monkeypatch):
    fake = [
        (1, "a", lambda seed: (True, {})),
        (2, "b", lambda seed: (False, {})),
        (3, "c", lambda seed: (True, {})),
    ]
    monkeypatch.setattr(acceptance, "_CRITERIA", fake)
    assert [r["id"] for r in acceptance.run_all()] == [1, 2]
    assert [r["pass"] for r in acceptance.run_all(fail_fast=False)] == [
        True,
        False,
        True,
    ]


def test_unknown_criterion_rejected():
    from octoslice.errors import PreconditionError

    with pytest.raises(PreconditionError):
        acceptance.run_criterion(13)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_battery_holds_across_seeds(seed):
    failed = [r for r in acceptance.run_all(seed=seed, fail_fast=False) if not r["pass"]]
    assert not failed, json.dumps(failed, sort_keys=True)
