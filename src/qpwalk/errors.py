"""Exception types shared across the toolkit."""


class QpwalkError(Exception):
    """Base class for all toolkit errors."""


class InvalidWalk(QpwalkError):
    """A walk specification violates its stochasticity invariants."""

    def __init__(self, issues):
        self.issues = list(issues)
        detail = "; ".join(str(i) for i in self.issues)
        super().__init__(f"invalid walk: {detail}")


class InvalidRouting(QpwalkError):
    """Switch routing probabilities are inconsistent."""


class SingularWalk(QpwalkError):
    """Kernel-level analysis requested for a singular walk."""


class ComplexRoots(QpwalkError):
    """Fewer real discriminant roots were found than the theory predicts."""


class EmptyComponent(QpwalkError):
    """No real curve points exist between the branch points."""


class InconsistentSingularity(QpwalkError):
    """The origin crossing of an eligible walk is not a two-branch node."""


class MixedGroup(QpwalkError):
    """A boundary sum was requested for terms that do not share the required coordinate."""


class OffCurve(QpwalkError):
    """A companion was requested for a term that does not lie on the kernel curve."""


class DegenerateT(QpwalkError):
    """A coefficient ratio is undefined because the paired T value vanishes."""


class NotEligible(QpwalkError):
    """Series construction requested for a walk with north, northeast or east steps."""


class StalledAtBranchPoint(QpwalkError):
    """Series construction hit a branch point before reaching the tail tolerance."""


class Diverged(QpwalkError):
    """Series coordinates failed to decrease within the grace window."""


class IllConditioned(QpwalkError):
    """The series weight system is numerically indeterminate."""

