"""The shipped mock loop prints exactly the committed goldens.

The goldens were taken with numpy 2.4 on x86-64. There is no looser
comparison: where another platform's floats differ in the last bit, this
test fails there. Rewrite them with `tests/goldens.py`.
"""

import difflib

import pytest

from goldens import GOLDEN_DIR, GOLDENS


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_equals_golden(name):
    expected = (GOLDEN_DIR / name).read_bytes().decode("utf-8")
    got = GOLDENS[name]()
    if got != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True), got.splitlines(keepends=True), f"golden/{name}", f"now/{name}"
        )
        pytest.fail(f"{name} differs from its golden:\n{''.join(diff)}", pytrace=False)
