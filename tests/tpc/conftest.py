"""``tests/tpc``: the ``exp2`` overflow of an unbounded inverse log
transform is a defect here, not noise — fail the test that raises it."""

import pytest

_EXP2_OVERFLOW = pytest.mark.filterwarnings(
    "error:overflow encountered in exp2:RuntimeWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if "tests/tpc/" in item.nodeid:
            item.add_marker(_EXP2_OVERFLOW)
