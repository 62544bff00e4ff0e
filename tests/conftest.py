"""Session-wide test settings: the closure certificates run first, and a
test that runs too long fails.

Library results are built unchecked (the ``_of`` constructors of ``witt``
and ``invariants``), so a kernel that makes an invalid leaf code need not
fail where it goes wrong: it can fail much later, or loop on a growing
value.  ``TestClosure`` and the guard test catch such a fault within about
a second, so they run before every other test.  Each test also fails once
it has run for ``TIME_LIMIT_S`` seconds of wall time (the slowest takes
about 3 s), so that a hang ends as a failure.  The limit is a SIGALRM
timer, so it cannot cut short one long call into C code, such as a single
huge integer product.
"""

import signal

import pytest

TIME_LIMIT_S = 60

FIRST_CLASS = "TestClosure"
FIRST_TEST = "test_unchecked_constructors_build_only_checkable_values"


def _runs_first(item) -> bool:
    cls = getattr(item, "cls", None)
    return (cls is not None and cls.__name__ == FIRST_CLASS) or getattr(item, "originalname", None) == FIRST_TEST


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: not _runs_first(item))  # stable: the rest keep their order


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
