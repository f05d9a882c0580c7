"""Suite-wide wall ceiling: a hung test fails with every thread's stack.

Each item collected from a ``test_*.py`` module (``tests/`` and the e2e
smoke test; not the ``bench_*.py`` benchmarks, which may legitimately run
for minutes) is wrapped — setup, call and teardown — in
:func:`faulthandler.dump_traceback_later`.  A test still running after
:data:`CEILING_SECONDS` dumps the stack of every thread to stderr and
exits the run, instead of idling until the CI job's hard timeout.
"""

import faulthandler
import os
import sys

import pytest

#: Per-test wall ceiling.  The slowest tier-1 item takes a few seconds,
#: so only a hang gets near it.
CEILING_SECONDS = 60.0

#: A copy of the real stderr, taken while output capture is suspended:
#: during a test fd 2 is pytest's capture file, which ``exit=True``
#: would discard together with the stacks.
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    armed = item.path.name.startswith("test_")
    if armed:
        faulthandler.dump_traceback_later(
            CEILING_SECONDS, exit=True, file=item.config.stash[_STDERR_FD]
        )
    yield
    if armed:
        faulthandler.cancel_dump_traceback_later()
