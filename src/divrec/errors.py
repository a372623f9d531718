"""Exception hierarchy shared across the pipeline.

DataError covers everything caused by bad or missing input (CLI exit code 2);
NumericError covers internal numerical failures (CLI exit code 3).
"""


class DivrecError(Exception):
    """Base class for all package errors."""


class DataError(DivrecError):
    """Input data is malformed, missing, or otherwise unusable."""


class NumericError(DivrecError):
    """A numerical invariant was violated during computation."""


# audio_io
class MalformedHeader(DataError):
    """File is not a RIFF/WAVE container."""


class UnsupportedEncoding(DataError):
    """WAV encoding is not uncompressed 16-bit PCM."""


class TruncatedData(DataError):
    """WAV data chunk is shorter than its declared size."""


# preprocess / features
class ClipTooShort(DataError):
    """Clip shorter than one noise-reduction frame."""


class SignalTooShort(DataError):
    """Signal shorter than one analysis frame."""


# network
class ShapeMismatch(DataError):
    """Input shape does not match the network architecture."""


class ModelIncompatible(DataError):
    """Model file is corrupt or does not fit the expected architecture."""


# training / evaluation
class EmptyClass(DataError):
    """A division label has no samples."""


class NonFiniteGradient(NumericError):
    """A gradient contained NaN or infinity."""


class EmptySet(DataError):
    """Evaluation requested on an empty sample set."""
