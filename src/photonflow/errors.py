"""Exception types shared across the package."""


class PhotonflowError(Exception):
    """Base class for all package errors."""


class FieldValidationError(PhotonflowError):
    """A field array is malformed (wrong shape, wrong dtype, non-finite entries)."""


class RangeError(FieldValidationError):
    """A finite value lies outside the range the package supports for it
    (a grid's box length, c or hbar)."""


class RepresentationError(PhotonflowError):
    """An operation received a field in the wrong representation (position vs momentum)."""


class TransversalityError(PhotonflowError):
    """A momentum-space field violates k . F(k) = 0 beyond tolerance."""


class DCContentError(PhotonflowError):
    """The k = 0 mode carries too much energy for the 1/sqrt(k) photon weighting."""


class ZeroFieldError(PhotonflowError):
    """The operation is undefined on an identically zero field."""


class OffGridWaveVectorError(PhotonflowError):
    """A plane-wave component's wave vector is not representable on the grid.

    Carries the nearest representable wave vector in ``nearest``.
    """

    def __init__(self, message, nearest=None):
        super().__init__(message)
        self.nearest = nearest


class GuidanceNodeError(PhotonflowError):
    """The guidance denominator fell below the node floor at some point.

    Carries the offending ``location`` (3-vector) and ``time``.
    """

    def __init__(self, message, location=None, time=None):
        super().__init__(message)
        self.location = location
        self.time = time


class InternalConsistencyError(PhotonflowError):
    """Two routes that must agree (by algebra) disagreed beyond roundoff tolerance."""


class ConfigError(PhotonflowError):
    """A run configuration is invalid. Carries the offending ``field`` path."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
