"""Exceptions shared across the pipeline.

DataError covers everything caused by bad or missing input (CLI exit code 2);
NumericError covers internal numerical failures (CLI exit code 3). Each raise
site tells its cases apart by its message, not by a subclass.
"""


class DataError(Exception):
    """Input data is malformed, missing, or otherwise unusable: a bad WAV
    header or encoding, truncated data, a clip or signal too short, an input
    or model that does not fit the network, a class with no samples, an empty
    evaluation set."""


class NumericError(Exception):
    """A numerical invariant was violated during computation, e.g. a gradient
    or a network output containing NaN or infinity."""
