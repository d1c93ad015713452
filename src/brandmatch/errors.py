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


class MalformedFileError(BrandMatchError):
    """A metadata file is not a JSON array or carries a field of the wrong type/value."""
    exit_code = EXIT_MALFORMED


class ScoreLengthMismatchError(BrandMatchError):
    """`image_contents` and `image_scores` differ in length: corrupted upstream classification."""
    exit_code = EXIT_MALFORMED


class MissingProfileFileError(BrandMatchError):
    """A username listed in the user-list file has no metadata file."""
    exit_code = EXIT_MISSING_INPUT


class UnknownTargetError(BrandMatchError):
    """The requested target username is not in the user list."""
    exit_code = EXIT_BAD_TARGET


class DuplicateUsernameError(BrandMatchError):
    """The user list names the same username twice."""
    exit_code = EXIT_MALFORMED


class EmptyCorpusError(BrandMatchError):
    """No document contributed a single token; there is nothing to match on."""
    exit_code = EXIT_EMPTY_CORPUS


class DimensionMismatchError(BrandMatchError):
    """Operands have incompatible shapes."""


class TargetOutOfRangeError(BrandMatchError):
    """Target row index outside the matrix."""
    exit_code = EXIT_BAD_TARGET


class SingletonSetError(BrandMatchError):
    """Fewer than two profiles: no neighbors exist."""
    exit_code = EXIT_EMPTY_CORPUS


class InvalidDistanceMatrixError(BrandMatchError):
    """A distance matrix is asymmetric, has a nonzero diagonal, or a non-finite or negative entry."""


class UnknownCategoryError(BrandMatchError):
    """A category name is not known to the receiver (plot order or fixture spec)."""


class OverlappingPoolsError(BrandMatchError):
    """Fixture tag pools share tokens across categories."""


class DegenerateEmbeddingWarning(UserWarning):
    """Both leading eigenvalues were non-positive; the 2-D embedding collapsed to zero."""
