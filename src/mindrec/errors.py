"""Exception hierarchy shared across the package."""


class MindrecError(Exception):
    """Base class for all package-specific errors."""


# mind-map parsing / queries

class MalformedInput(MindrecError):
    pass


class NoRoot(MindrecError):
    pass


class UnknownNode(MindrecError):
    pass


class InconsistentRevisions(MindrecError):
    pass


# corpus

class EmptyTitle(MindrecError):
    pass


class UnknownTitle(MindrecError):
    pass


# user modeling

class NoModel(MindrecError):
    """No user model can be built for a user; `reason` says why."""
    reason = None


class EmptyCollection(NoModel):
    reason = "no_maps"


class NoPositiveFeatures(NoModel):
    reason = "no_features"


# experiment / storage

class InvalidConfig(MindrecError, ValueError):
    """A configuration or variable space with an unknown key or value."""


class InvariantViolation(MindrecError):
    pass


class MalformedRow(MindrecError):
    pass
