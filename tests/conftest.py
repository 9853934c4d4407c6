"""Fixtures shared by the test modules."""

import os

import pytest

from dermfeat import train


@pytest.fixture(params=[1, 3], ids=["1-worker", "3-workers"])
def workers(request, monkeypatch):
    """Run train and predict on this many image threads, whatever the
    image size: the count follows os.sched_getaffinity, and
    PARALLEL_MIN_PIXELS no longer keeps small images serial. Three
    threads exceed the CI runner's two CPUs."""
    monkeypatch.setattr(train, "PARALLEL_MIN_PIXELS", 0)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(request.param)))
    return request.param
