"""Exception types shared across the package."""


class PmdkitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PmdkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(PmdkitError, ValueError):
    """A scenario config is malformed (unknown key, missing key, bad value)."""


class TransientExceedsWindowError(PmdkitError, ValueError):
    """The attack transient is longer than the detection window K."""


class MonotonicityError(PmdkitError, RuntimeError):
    """A quantity assumed monotone was observed not to be."""


class NumericalError(PmdkitError, RuntimeError):
    """A solver encountered non-finite intermediate values."""


class InfeasibleAtCapError(PmdkitError, RuntimeError):
    """No sensor count up to the cap meets the target miss probability.

    Carries the cap and the worst-case miss probability achieved there so
    callers can report how far away the target was.
    """

    def __init__(self, delta: float, m_max: int, q_at_cap: float):
        self.delta = delta
        self.m_max = m_max
        self.q_at_cap = q_at_cap
        super().__init__(
            f"worst-case miss probability at M={m_max} is {q_at_cap:.6g}, "
            f"still above the target {delta:.6g}"
        )
