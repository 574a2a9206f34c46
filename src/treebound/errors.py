"""Exception types shared across the package."""


class TreeboundError(Exception):
    """Base class for all package-specific errors."""


# -- numeric ----------------------------------------------------------------

class NoRootIsolated(TreeboundError):
    """The given interval does not isolate exactly one real root."""


class NotSquareFree(TreeboundError):
    """The defining polynomial has a repeated root inside the interval."""


class FieldMismatch(TreeboundError):
    """Arithmetic between elements of two different number fields."""


class DivisionByZero(TreeboundError, ZeroDivisionError):
    """Inversion of the zero element."""


class NotInvertible(TreeboundError):
    """The element shares a nontrivial factor with the defining polynomial.

    Carries the discovered factor (low-to-high rational coefficients) so the
    caller can see which proper factor's ideal the element lies in.
    """

    def __init__(self, factor):
        self.factor = tuple(factor)
        super().__init__(f"element not invertible, gcd factor {list(factor)}")


# -- geometry / system ------------------------------------------------------

class DimensionMismatch(TreeboundError):
    """Vector or matrix dimensions do not agree."""


class NonPositiveScale(TreeboundError):
    """A scaling constant that must be positive is not."""


class EmptySystem(TreeboundError):
    """No coordinate is both accessible and co-accessible (count is 0)."""


class LevelBudgetExceeded(TreeboundError):
    """A per-level vector cardinality cap was hit while expanding levels."""


class EvidenceRejected(TreeboundError):
    """The search kernel's evidence for a query failed the checker."""


# -- automaton / file formats -----------------------------------------------

class ParseError(TreeboundError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DeterminismViolation(ParseError):
    """Two transitions share the same (left, right) state pair."""


class UndeclaredState(ParseError):
    """A rule references a state that was never declared."""


class NoLeafRule(TreeboundError):
    """Compilation needs at least one leaf rule to build the initial vector."""


# -- spectral ---------------------------------------------------------------

class MultipleHoles(TreeboundError):
    """A gadget expression must contain exactly one recursion hole."""


class NoRealRoot(TreeboundError):
    """The polynomial has no real root."""


class NegativeEntry(TreeboundError):
    """A transfer matrix entry is negative (outside the supported regime)."""


# -- oracle -----------------------------------------------------------------

class CapExceeded(TreeboundError):
    """Tree-shape enumeration was requested beyond the configured cap."""


class AuditFailure(TreeboundError):
    """A certificate bound failed against the brute-force count.

    Carries the violating tree order ``k``.
    """

    def __init__(self, k, count, bound_repr):
        self.k = k
        self.count = count
        super().__init__(f"audit failed at k={k}: count {count} exceeds {bound_repr}")
