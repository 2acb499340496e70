import sys

import pytest

from blockprune import errors


@pytest.fixture
def refuse_open(monkeypatch):
    """Every file the package opens is refused, as a mode-000 file is to
    any user but root (who reads it anyway, so the refusal is stubbed)."""
    def refused(path, *args):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(errors, "open", refused, raising=False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance check, in order, after the run."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance")
    for number, label, ok in sorted(results):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {status}  {label}")
