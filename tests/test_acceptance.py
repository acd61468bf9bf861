"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one pass/fail line (also available via `bankfair verify`).
"""

import inspect
import re
import time

import pytest

from bankfair import acceptance

CHECKS = sorted(acceptance.CRITERIA)


@pytest.mark.parametrize("cid", CHECKS)
def test_criterion(cid):
    result = acceptance.run_criterion(cid)
    print(result.line())
    assert result.passed, result.line()


def test_every_criterion_is_covered():
    assert CHECKS == list(range(1, 10))


def test_criterion_6_serves_both_price_paths():
    # Its catalogs listed by provider expand the prices over their runs; the
    # others gather one price per item.
    _, detail = acceptance.criterion_6()
    counts = dict(re.findall(r"(expanded|gathered)=(\d+)", detail))
    assert int(counts["expanded"]) > 0 and int(counts["gathered"]) > 0, detail


def test_gates():
    # Criteria 1, 2 and 7 are timed against a gate; every check takes no arguments.
    gates = {cid: gate for cid, (_, _, gate) in acceptance.CRITERIA.items()}
    assert gates == {1: 1.0, 2: 10.0, 3: None, 4: None, 5: None, 6: None, 7: 60.0, 8: None,
                     9: None}
    for check, _, _ in acceptance.CRITERIA.values():
        assert not inspect.signature(check).parameters


# A check that runs past its gate fails; one with no gate never fails on time.
@pytest.mark.parametrize("verdict,gate,passed", [
    (True, 0.01, False), (True, None, True), (True, 60.0, True), (False, 60.0, False)])
def test_run_criterion_gates_the_check(monkeypatch, verdict, gate, passed):
    def check():
        time.sleep(0.05)
        return verdict, "slow"
    monkeypatch.setitem(acceptance.CRITERIA, 1, (check, "stub", gate))
    (result,) = acceptance.run_all({1})
    assert (result.cid, result.description, result.passed, result.detail) == (
        1, "stub", passed, "slow")
    assert result.seconds >= 0.05
