"""Exception hierarchy for the netsketch package.

``UsageError`` (and its subclasses) marks problems caused by bad inputs:
inconsistent configuration, or requests that exceed configured resource
limits.  The command line maps these to exit code 1, while unexpected
internal failures map to exit code 2.
"""

from __future__ import annotations


class NetSketchError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(NetSketchError):
    """The caller supplied invalid input or configuration."""


class AmbientTooSmallError(UsageError):
    """The configured ambient dimension cannot hold the required resolution."""


class NetTooLargeError(UsageError):
    """Building the requested net would exceed the configured center budget."""
