"""Exception types shared across the toolkit, and ``writing``, which turns a
failed output write into one of them."""

from contextlib import contextmanager


class M3Error(Exception):
    """Base class for all toolkit errors."""


class ShapeError(M3Error):
    """Operands have incompatible or invalid extents."""


class NumericsError(M3Error):
    """A tensor left the finite-value domain (NaN/Inf) or a numeric
    precondition failed."""


class ConfigError(M3Error):
    """Invalid model, stage, or run configuration."""


class ContractError(M3Error):
    """A caller violated an operation's documented precondition."""


class CorpusError(M3Error):
    """Malformed corpus input (encoding, structure, or field content)."""


class CheckpointError(M3Error):
    """Checkpoint or index file is unreadable, corrupt, or version-mismatched."""


class TrainingAbort(M3Error):
    """Training stopped mid-stage; the last good checkpoint is retained."""


class OutputError(M3Error):
    """An output file or directory cannot be created or written."""


@contextmanager
def writing(path):
    """Raise a failed write as an OutputError naming its file, else ``path``."""
    try:
        yield
    except OSError as e:
        name = e.filename2 or e.filename or path
        raise OutputError(f"{name}: cannot write output: {e.strerror or e}") from e
