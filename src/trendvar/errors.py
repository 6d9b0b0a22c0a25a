"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message wording: ConfigError -> 1, DataError -> 2,
NumericError -> 3.
"""


class TrendvarError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(TrendvarError):
    """Invalid configuration: bad flag values, incompatible shapes between a
    checkpoint and a dataset, unsupported filter orders, malformed settings
    files."""


class ShapeMismatchError(ConfigError):
    """Array shapes do not satisfy a stage's contract.

    Subclass of ConfigError because a shape mismatch is always a wiring
    mistake, never a data-quality problem.
    """


class DataError(TrendvarError):
    """Malformed or missing input data: unreadable CSV files, unknown patient
    ids, degenerate cohorts."""


class NumericError(TrendvarError):
    """Non-finite values where finite ones are required: NaN losses,
    overflowing gradients, infinities in raw series."""
