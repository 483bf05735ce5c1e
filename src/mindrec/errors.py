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


class EmptyQuery(MindrecError):
    pass


class UnknownTitle(MindrecError):
    pass


# user modeling

class EmptyCollection(MindrecError):
    pass


class EmptyScores(MindrecError):
    pass


class EmptyOccurrences(MindrecError):
    pass


class NoPositiveFeatures(MindrecError):
    pass


# matching

class EmptyModel(MindrecError):
    pass


class EmptyPool(MindrecError):
    pass


# evaluation

class NoCitations(MindrecError):
    pass


class NoImpressions(MindrecError):
    pass


# experiment / storage

class UnknownPreset(MindrecError):
    pass


class InvalidConfig(MindrecError, ValueError):
    """A configuration or variable space with an unknown key or value."""


class InvariantViolation(MindrecError):
    pass


class MalformedRow(MindrecError):
    pass
