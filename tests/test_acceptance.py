"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one pass/fail line (also available via `bankfair verify`).
"""

import re

import pytest

from bankfair import acceptance

CHECKS = sorted(acceptance.CRITERIA)


@pytest.mark.parametrize("cid", CHECKS)
def test_criterion(cid):
    result = acceptance.CRITERIA[cid]()
    print(result.line())
    assert result.passed, result.line()


def test_every_criterion_is_covered():
    assert CHECKS == list(range(1, 10))


def test_criterion_6_serves_both_price_paths():
    # Its catalogs listed by provider expand the prices over their runs; the
    # others gather one price per item.
    detail = acceptance.criterion_6().detail
    counts = dict(re.findall(r"(expanded|gathered)=(\d+)", detail))
    assert int(counts["expanded"]) > 0 and int(counts["gathered"]) > 0, detail
