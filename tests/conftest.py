import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

# the test modules import their shared oracle ops (oracle_ops.py) from here
HERE = str(Path(__file__).resolve().parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)


class RecordingWorker(ThreadPoolExecutor):
    """A one-thread tape worker that keeps the future of every task it is
    handed, each a leaf's contribution: a deferred product, or an array that
    follows one; a test installs it as ``m3enc.tensor._worker``."""

    def __init__(self):
        super().__init__(1, thread_name_prefix="test-tape")
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


@pytest.fixture
def tape_worker():
    worker = RecordingWorker()
    yield worker
    worker.shutdown()


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(autouse=True)
def blas_env_unchanged():
    """Fail a test that leaves a BLAS thread variable changed, and restore it,
    so no test changes the environment of the tests after it."""
    before = {var: os.environ.get(var) for var in BLAS_ENV}
    yield
    after = {var: os.environ.get(var) for var in BLAS_ENV}
    for var, value in before.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
    assert after == before, "the test changed the BLAS thread variables"
