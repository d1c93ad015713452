"""Exception and warning types shared across the pipeline, and the CLI exit codes.

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
    """Base class for all errors raised by this package."""
    exit_code = EXIT_FAILURE


class MissingProfileFileError(BrandMatchError):
    """A user list or a listed username's metadata file is absent, or is a directory."""
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


class DimensionMismatchError(BrandMatchError):
    """Operands have incompatible shapes."""


class InvalidDistanceMatrixError(BrandMatchError):
    """A distance matrix is asymmetric, has a nonzero diagonal, or a non-finite or negative entry."""


class UnknownCategoryError(BrandMatchError):
    """A category name is not known to the receiver (plot order or fixture spec)."""


class DegenerateEmbeddingWarning(UserWarning):
    """Both leading eigenvalues were non-positive; the 2-D embedding collapsed to zero."""
