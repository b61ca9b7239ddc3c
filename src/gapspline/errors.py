"""Error taxonomy shared by the library and the CLI.

Each class maps to a distinct process exit code so scripted callers can tell
failure modes apart without parsing messages.
"""


class GapsplineError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidArgument(GapsplineError, ValueError):
    """A value violates a documented precondition (bad index, bad knot vector, ...)."""

    exit_code = 2


class FormatError(GapsplineError):
    """A scene, curve, or solution file does not match the documented schema."""

    exit_code = 2


class DslSyntaxError(GapsplineError):
    """Lagrangian text failed to parse.  Carries the byte offset of the failure."""

    exit_code = 2

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DslTypeError(GapsplineError):
    """Lagrangian parsed but is invalid for the scene (e.g. trip() in 2D)."""

    exit_code = 2


class BalanceError(GapsplineError):
    """Fewer effective equations than unknowns: the Lagrangian misses some unknown."""

    exit_code = 3

    def __init__(self, unknowns: int, equations: int, detail: str = ""):
        msg = f"under-determined system: {unknowns} unknowns vs {equations} effective equations"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.unknowns = unknowns
        self.equations = equations
        self.detail = detail


class ConvergenceFailure(GapsplineError):
    """No multistart run reached the residual tolerance."""

    exit_code = 4

    def __init__(self, best_residual: float, best_point):
        super().__init__(
            f"no start converged; best residual max-norm {best_residual:.3e}"
        )
        self.best_residual = best_residual
        self.best_point = best_point


class OrientationFailure(GapsplineError):
    """Newton converged, but every root has alpha <= tol or beta <= tol.

    tol = 1e-8 * (1 + max|u|), the solver's root-deduplication tolerance, so
    a root collapsed onto the chord (alpha or beta zero up to rounding) fails
    here whatever the sign of its rounding noise.  The first converged root
    is attached so callers can inspect the rejected geometry.
    """

    exit_code = 5

    def __init__(self, root, alpha: float, beta: float, residual_norm: float):
        super().__init__(
            "converged root violates orientation "
            f"(alpha={alpha:.6g}, beta={beta:.6g}); boundary tangents would "
            "point away from the gap"
        )
        self.root = root
        self.alpha = alpha
        self.beta = beta
        self.residual_norm = residual_norm


class DegenerateScene(GapsplineError):
    """Scene geometry leaves the problem ill-posed (coincident boundary points,
    zero-length end tangents, ...)."""

    exit_code = 6


class UnsupportedComplexity(GapsplineError):
    """The planner's inflection target needs more than one inserted control point."""

    exit_code = 7
