"""Exception types shared across the simulator."""


class MegsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(MegsimError, ValueError):
    """A valid config asks for something its preset cannot do."""


class DimensionError(MegsimError):
    """Array shape does not match a layer or pipeline contract."""


class StateError(MegsimError):
    """Operation called in the wrong order (e.g. backward before forward)."""


class TrainingError(MegsimError):
    """Training produced a non-finite loss or gradient."""


class ScheduleError(MegsimError):
    """Noise schedule violates its monotonicity or variance constraints."""


class CodecError(MegsimError):
    """Seed compression or decompression contract violated."""


class FrameError(MegsimError):
    """Seed wire frame is malformed or fails its checksum."""


class ProtocolError(MegsimError):
    """A request does not match the deployed model or its batch."""


class BundleError(MegsimError):
    """A cached model file is corrupt or was trained for another config,
    or a loaded bundle lacks the network that a call needs."""
