"""Exception types shared across the package.

Everything user-facing derives from StrokebenchError so the CLI can catch
one base class and turn it into a nonzero exit with a clean message.
"""


class StrokebenchError(Exception):
    pass


class ShapeError(StrokebenchError, ValueError):
    """Tensor shapes incompatible with the requested operation."""


class ArchitectureError(StrokebenchError, ValueError):
    """A model number breaks its rule, or a chain is not the default one for its numbers."""


class AnnotationError(StrokebenchError, ValueError):
    """Malformed or inconsistent annotation data."""


class TaxonomyError(StrokebenchError, ValueError):
    """Malformed taxonomy file or unknown label."""


class VideoFormatError(StrokebenchError, ValueError):
    """Bad RGBV container or PPM frame directory."""


class CuboidError(StrokebenchError, ValueError):
    """Requested cuboid window does not fit inside the video."""


class CheckpointError(StrokebenchError, ValueError):
    """Corrupt, truncated or incompatible checkpoint file."""


class TrainingError(StrokebenchError, RuntimeError):
    """Training cannot proceed (e.g. no usable samples in an epoch)."""


class MetricError(StrokebenchError, ValueError):
    """Evaluation input rejected (e.g. no ground truth at all)."""


class ConfigError(StrokebenchError, ValueError):
    """Bad run configuration, config file or command-line usage."""
