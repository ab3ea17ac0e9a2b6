"""Hooks of the test suite."""

# "path: error" of each module or file this run failed to collect
COLLECTION_ERRORS: list[str] = []


def pytest_collectreport(report):
    if report.failed:
        COLLECTION_ERRORS.append(f"{report.nodeid}: {report.longreprtext.strip().splitlines()[-1]}")
