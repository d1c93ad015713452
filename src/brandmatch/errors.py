"""Exception types shared across the pipeline, and the CLI exit codes.

Each error type carries the exit code the CLI returns for it (FORMATS.md lists
them), so the code is decided where the error is defined.
"""

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_MALFORMED = 4
EXIT_BAD_TARGET = 5
EXIT_EMPTY_CORPUS = 6


class BrandMatchError(Exception):
    """Base class for all errors raised by this package.

    Raised itself for an error no input file explains, such as a matrix of the
    wrong shape, an invalid distance matrix or an unknown fixture category.
    """
    exit_code = EXIT_FAILURE


class MissingProfileFileError(BrandMatchError):
    """A user list or a listed username's metadata file cannot be read, whatever the reason."""
    exit_code = EXIT_MISSING_INPUT


class MalformedFileError(BrandMatchError):
    """A metadata file or user list breaks its format (FORMATS.md).

    Bad JSON, a field of the wrong type or value, tag labels and scores of
    different lengths, or a duplicate or invalid username.
    """
    exit_code = EXIT_MALFORMED


class UnknownTargetError(BrandMatchError):
    """The target username is not in the user list, or a target index is outside the matrix."""
    exit_code = EXIT_BAD_TARGET


class EmptyCorpusError(BrandMatchError):
    """Nothing to match on or embed: no tokens, or fewer than two profiles."""
    exit_code = EXIT_EMPTY_CORPUS

