"""Exception types shared across bolkit."""


class BolkitError(Exception):
    pass


# table parsing / validation

class Malformed(BolkitError):
    pass


class NotLatin(BolkitError):
    pass


class NoIdentity(BolkitError):
    pass


class TooLarge(BolkitError):
    pass


# element-level operations

class NoInverse(BolkitError):
    pass


class NoTwoSidedInverse(NoInverse):
    pass


class NotPeriodicThroughIdentity(BolkitError):
    """Powers of the element do not form a cyclic subgroup."""


# structural analysis

class NotSubloop(BolkitError):
    pass


class NotNormal(BolkitError):
    pass


class NotPartition(BolkitError):
    pass


class NotAssociative(BolkitError):
    pass


class ClosureCapExceeded(BolkitError):
    pass


# constructions and search

class BadParams(BolkitError):
    pass


class BadSpec(BolkitError):
    pass


class SearchBudgetExceeded(BolkitError):
    pass
