"""Fixtures shared by the test modules."""

import os

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
