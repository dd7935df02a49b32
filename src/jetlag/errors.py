"""Typed errors shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own class;
the CLI maps them onto exit codes.
"""


class JetlagError(Exception):
    """Base class for all toolkit errors."""


class ParseError(JetlagError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier that looks structured but does not match the symbol grammar."""

    def __init__(self, token, offset):
        super().__init__(f"unknown identifier {token!r}", offset)
        self.token = token


class UnboundSymbolError(JetlagError):
    """A binding gives no value to a symbol that is evaluated under it."""

    def __init__(self, symbol):
        super().__init__(f"no value bound for symbol {symbol}")
        self.symbol = symbol


class DomainEvalError(JetlagError):
    """Evaluation left the domain of a function (ln of a nonpositive value, ...)."""


class DomainExhaustionError(JetlagError):
    """Rejection sampling failed to find a binding inside all function domains."""


class LevelOverflowError(JetlagError):
    """A jet symbol sits at or above the derivative-level cap."""


class UnshiftableSymbolError(JetlagError):
    """Total time derivative met a symbol kind with no jet-prolongation rule."""


class ChartMismatchError(JetlagError):
    """Point or one-form handed to an operation on the wrong chart."""


class DegenerateLagrangianError(JetlagError):
    """Acceleration Hessian is rank deficient where full rank is required."""


class NotLinearError(JetlagError):
    """Equations are not linear in the requested unknowns; symbolic solve refused."""


class IncompatibleGaugeError(JetlagError):
    """Gauge function fails the compatibility residual for the Lagrangian."""


class GaugeConditionError(JetlagError):
    """Mixed gauge Hessian in (velocity, auxiliary) directions is singular."""


class SingularJacobianError(JetlagError):
    """Constraint Jacobian is singular: genuinely implicit point.

    Carries the numeric rank seen and the rank that would be needed to
    resolve the multipliers uniquely.  Raised from an integration it also
    carries the time of the last good sample and the step that failed
    (step 0 is the initial data); elsewhere both are None.
    """

    def __init__(self, rank, needed, time=None, step=None):
        message = f"constraint Jacobian rank {rank} of {needed}: multipliers not uniquely solvable"
        if step is not None:
            message += f" (step {step}, last good time {time!r})"
        super().__init__(message)
        self.rank = rank
        self.needed = needed
        self.time = time
        self.step = step

    def located(self, time, step):
        """The same error, placed at an integration time and step."""
        return SingularJacobianError(self.rank, self.needed, time, step)


class StepSizeError(JetlagError):
    """Nonpositive or otherwise unusable integration step."""


class ClosureError(JetlagError):
    """Candidate one-form is not closed; carries the failing coordinate pair."""

    def __init__(self, pair, sup):
        super().__init__(f"closure fails for coordinate pair {pair}: residual {sup:g}")
        self.pair = pair
        self.sup = sup


class ArityMismatchError(JetlagError):
    """Component lists whose lengths disagree with the chart."""


class ConfigError(JetlagError):
    """Bad job configuration (missing fields, wrong method, unusable values)."""


class NumericFailureError(JetlagError):
    """Internal numeric breakdown (overflow, non-convergence, NaN)."""
