"""Trend/variation decomposition models for irregular clinical visit data.

The package splits each dynamic feature into a wavelet trend and variation
line, extracts cross-line correlation patterns with dilated convolutions,
attends over first-order variation differences, and fuses everything with a
static-feature embedding into a softmax disease classifier.  Training,
cross-validation, ranking metrics and a CLI are included; everything is
exercisable from pure numpy with bit-reproducible seeding.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    DataError,
    NumericError,
    TrendvarError,
)
