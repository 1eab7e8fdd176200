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
