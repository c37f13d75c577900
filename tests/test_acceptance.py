"""Acceptance gate: every criterion runs at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; the same suite backs ``xorland verify``.
"""
import pytest

from xorland.acceptance import CRITERIA, run_criteria


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    (result,) = run_criteria({number})
    assert result.passed, f"criterion {result.number} failed: {result.details}"
