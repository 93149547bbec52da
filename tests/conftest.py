"""Shared test plumbing: collects the numbered checklist lines emitted by
test_acceptance.py and replays them in the terminal summary, where pytest's
output capture can't swallow them, and changes every byte of a binary file
for the cache and checkpoint tests."""

import pytest

from stgcvae.errors import FormatError

checklist = []


@pytest.fixture
def each_byte_change():
    """check(path, load, payload): give each byte of the file at `path`
    outside the (start, stop) spans of `payload` each of its 255 other
    values in turn, and fail unless every changed file loads or raises
    FormatError."""
    def check(path, load, payload):
        blob = path.read_bytes()
        skip = {i for start, stop in payload for i in range(start, stop)}
        for i in sorted(set(range(len(blob))) - skip):
            changed = bytearray(blob)
            for value in set(range(256)) - {blob[i]}:
                changed[i] = value
                path.write_bytes(changed)
                try:
                    load(path)
                except FormatError:
                    pass
                except Exception as exc:
                    pytest.fail(f"byte {i} set to {value}: {exc!r}")
    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not checklist:
        return
    terminalreporter.section("release checklist")
    for _, line in sorted(checklist):
        terminalreporter.write_line(line)
