"""The suite runs with --continue-on-collection-errors, under which a test module that fails to import (say, one
that still imports a deleted name) drops out of the run with its tests.  This module imports nothing of the
package, so it still runs, and fails the run instead."""
from conftest import COLLECTION_ERRORS


def test_every_test_module_collects():
    assert COLLECTION_ERRORS == []
