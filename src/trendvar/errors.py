"""Exception hierarchy shared across the package.

Each class carries the process exit code and the stderr label the CLI
reports it with, so raising the right class matters more than the message
wording.
"""


class TrendvarError(Exception):
    """Base class for everything raised deliberately by this package."""

    exit_code = 1
    label = "error"


class ConfigError(TrendvarError):
    """Invalid configuration: bad flag values, incompatible shapes between a
    checkpoint and a dataset, unsupported filter orders, kernels too wide
    for their input, malformed settings files."""

    label = "configuration error"


class DataError(TrendvarError):
    """Malformed or missing input data: unreadable CSV files, unknown patient
    ids, degenerate cohorts."""

    exit_code = 2
    label = "data error"


class NumericError(TrendvarError):
    """Non-finite values where finite ones are required: overflowing
    gradients or parameters, infinities in raw series."""

    exit_code = 3
    label = "numerical error"
