import sys
from pathlib import Path

# the test modules import their shared oracle ops (oracle_ops.py) from here
HERE = str(Path(__file__).resolve().parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)
