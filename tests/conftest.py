"""Shared test helpers."""

import contextlib
import importlib
import pkgutil
import signal

import preordgrp


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


def package_caches():
    """(qualified name, wrapper) for every ``functools`` cache in the
    package: each ``lru_cache`` wrapper in a module's namespace, once per
    module that holds it."""
    for info in pkgutil.iter_modules(preordgrp.__path__, "preordgrp."):
        if info.name == "preordgrp.__main__":  # runs the command line
            continue
        for fn in vars(importlib.import_module(info.name)).values():
            if callable(getattr(fn, "cache_parameters", None)):
                yield f"{fn.__module__}.{fn.__qualname__}", fn


def clear_package_caches():
    """Forget every cached result of the package.  A test that patches an
    internal calls it before the patch, so that no right verdict hides the
    patch, and after it, so that no wrong verdict outlives the test."""
    for _, fn in package_caches():
        fn.cache_clear()
