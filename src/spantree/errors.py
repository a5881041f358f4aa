"""Shared exception types.

Contract violations (bad arguments, malformed inputs, broken invariants) raise
ContractViolation; plain I/O failures surface as OSError.  The command line
maps the former to exit code 1 and the latter to exit code 2.
"""


class ContractViolation(ValueError):
    """An input or internal state violates a documented contract."""


class CheckpointError(ContractViolation):
    """A checkpoint directory is malformed, truncated, or inconsistent."""


class TrainingDiverged(ContractViolation):
    """Training hit a non-finite loss.  Checkpoints written so far are kept."""

    def __init__(self, message: str, checkpoints=None):
        super().__init__(message)
        self.checkpoints = checkpoints or []


def numbered_lines(path):
    """Yield (line number, line) over a UTF-8 text file; a byte sequence that
    is not UTF-8 raises ContractViolation naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ContractViolation(f"{path}: not UTF-8 text ({exc.reason})") from exc
