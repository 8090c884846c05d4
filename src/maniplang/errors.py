"""Shared exception base so the CLI can map failures to exit codes, and the
evaluation errors that `retrieval` raises without importing `costs`."""

EXIT_INVALID = 2  # syntax, type or translation failure, or a bad input file
EXIT_SOLVER = 3  # solver or evaluation failure, degenerate geometry included


class ManiplangError(Exception):
    """Base class for all errors raised by this package; `exit_code` is the
    CLI's exit status for it."""

    exit_code = EXIT_INVALID


class EvalError(ManiplangError):
    exit_code = EXIT_SOLVER


class MissingPartError(EvalError):
    def __init__(self, name: str):
        self.part = name
        super().__init__(f"no part named {name!r} in scene")
