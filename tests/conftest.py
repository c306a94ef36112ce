"""A fresh family table for every test.

fockrep.family_table is memoised by (parity, l) alone, so a table built
while one test patches one of its inputs (relations_for, generator_form,
generators, ambient_form) would otherwise be read by the next test that
asks for the same family, and a clean table built before a patch would
hide the patch.  Clearing the memo before and after each test keeps the
tests independent of their order; a test that patches an input after it
has read that family clears the memo itself, where it patches.
"""

import pytest

from qrwp.fockrep import family_table


@pytest.fixture(autouse=True)
def fresh_family_tables():
    family_table.cache_clear()
    yield
    family_table.cache_clear()
