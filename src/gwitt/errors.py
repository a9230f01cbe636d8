"""Exception types shared across the library."""


class GwittError(Exception):
    pass


class IntegralityError(GwittError):
    """An exact division failed; the input is not in the image of the map.

    `where` names the subgroup class at which the triangular solve broke.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class EquivarianceError(GwittError):
    """A map or value violates equivariance."""


class GroupOrderError(GwittError):
    """A group exceeds the configured order cap, or a permutation group
    the cap on its points."""


class SupportError(GwittError):
    """Word supports differ or the common support is not simple."""


class DslSyntaxError(GwittError):
    """Parse error with 1-based position and the expected token set."""

    def __init__(self, message, line, column, expected=()):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
