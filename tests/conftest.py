"""Fixtures shared by the test modules."""

import contextlib
import os
import threading

import pytest


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
