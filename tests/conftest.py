"""Shared test helpers."""

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds):
    """Fail the enclosed block with TimeoutError after ``seconds``.

    Guards computations that once crawled, so that a regression fails the
    suite instead of hanging it.  Uses SIGALRM, so it works only in the
    main thread of a POSIX process.
    """
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def group_window(group, width):
    """All elements with free coordinates in [-width, width]: a brute-force
    reference set, every element of a finite group."""
    from preordgrp.groups import _bounded_elements
    if group.backend == "finite":
        return group.elements()
    return _bounded_elements(group, width)


def cone_window(cone, width):
    """Cone members in the coordinate window; exhaustive iff the carrier is
    finite."""
    from preordgrp.cones import cone_contains
    return [x for x in group_window(cone.group, width)
            if cone_contains(cone, x)]
