import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

# the test modules import their shared oracle ops (oracle_ops.py) from here
HERE = str(Path(__file__).resolve().parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)


class RecordingWorker(ThreadPoolExecutor):
    """A one-thread tape worker that keeps the future of every product it is
    handed; a test installs it as ``m3enc.tensor._worker``."""

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
