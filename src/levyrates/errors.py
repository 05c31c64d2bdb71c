"""Exception taxonomy shared across the package.

Domain errors are misuse (bad arguments, parameters outside admissible
ranges) and numerical errors are failures of the machinery itself
(non-convergent quadrature, inconsistent intermediate results). The CLI
maps these onto distinct exit codes.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside its admissible domain."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(NumericalError):
    """A quadrature ran out of budget: adaptive panels, or the kernel rule's node ladder."""

    def __init__(self, message: str, *, panels: int = 0, rel_err: float = float("nan")):
        super().__init__(message)
        self.panels = panels
        self.rel_err = rel_err


class StrikeOutOfRangeError(DomainError):
    """Strike is not attainable by the bond price over the driver's support.

    Carries the boundary classification so callers can report the option
    price distinctly (worthless, or its always-exercised lower bound).
    """

    def __init__(self, message: str, *, side: str):
        super().__init__(message)
        if side not in ("always_itm", "always_otm"):
            raise ValueError(f"unknown side {side!r}")
        self.side = side


class UnsupportedModelError(ValueError):
    """The requested operation needs structure this model lacks.

    Typical case: critical-level option formulas require a monotone phi;
    for non-monotone phi use the Monte Carlo pricer instead.
    """
