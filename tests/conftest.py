"""Fixtures shared by the test modules."""

import contextlib
import os
import threading

import pytest

from calibwalk import _pool


@pytest.fixture
def forks(monkeypatch):
    """A list that gets one item per process forked from here on."""
    made = []
    fork = os.fork

    def counting():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return made


@pytest.fixture
def thread_alive():
    """A context manager that keeps a second Python thread alive in it,
    which makes the worker pool one worker, this process."""
    @contextlib.contextmanager
    def alive():
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    return alive


@pytest.fixture
def use_cpus(monkeypatch):
    """A function that makes the worker pool see ``cpus`` usable CPUs with
    its memory budget lifted, so that the CPU count alone sets the workers
    (up to the number of blocks)."""
    def use(cpus):
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(_pool, "_MEMORY_BYTES", 1 << 60)

    return use


@pytest.fixture
def no_children():
    """A function that returns True when this process has no child left to
    wait for, and fails the test otherwise."""
    def none_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return True

    return none_left
