"""Attack and detector model: mean-shift profiles, transient lengths,
detector configuration, and the three-phase slot timeline.

An attacked sensor reports N(mu(z), 1) where z is the per-sensor resource
rate invested against it; mu is decreasing and strictly convex with
mu(0) = c (the unsuppressed shift) and mu(z) -> 0 as z grows. The
adversary spends theta per slot for L(theta) slots after the changepoint,
then runs out; the detector sums the M sensor readings each slot and
alarms when the sum crosses h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import stdnorm
from .errors import ConfigError, DomainError, TransientExceedsWindowError, UnsupportedFamilyError

MEAN_FAMILIES = ("rational", "exponential")
TRANSIENT_FAMILIES = ("reciprocal", "exponential", "budget_floor")
GAMMA_CONVENTIONS = ("per_sensor", "raw")
_L_SLACK = 1e-9  # tolerance when checking L(theta) <= K at the boundary


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value


class _Profile:
    """value, derivative and second_derivative of a model family: checked
    views over the subclass's unchecked _profile(x) = (f, f', f'')."""

    def _view(self, x, order: int) -> float | np.ndarray:
        out = self._profile(self._check(x))[order]
        if out is None:
            raise UnsupportedFamilyError(f"{self.family} transient is not differentiable")
        return float(out) if np.ndim(x) == 0 else out

    def value(self, x) -> float | np.ndarray:
        return self._view(x, 0)

    def derivative(self, x) -> float | np.ndarray:
        return self._view(x, 1)

    def second_derivative(self, x) -> float | np.ndarray:
        return self._view(x, 2)


@dataclass(frozen=True)
class MeanProfile(_Profile):
    """Per-sensor mean shift mu(z) as a function of invested resources z.

    rational:    mu(z) = c / (1 + k z)
    exponential: mu(z) = c * exp(-k z)

    Both are strictly decreasing and strictly convex on z >= 0 with
    mu(0) = c and mu(z) -> 0, which is what every monotonicity and
    uniqueness argument downstream relies on.
    """

    family: str
    c: float
    k: float

    def __post_init__(self):
        if self.family not in MEAN_FAMILIES:
            raise ConfigError(f"unknown mean family {self.family!r}; expected one of {MEAN_FAMILIES}")
        _require_positive(self.c, "c")
        _require_positive(self.k, "k")

    def _check(self, z) -> np.ndarray:
        arr = np.asarray(z, dtype=float)
        if not (np.isfinite(arr) & (arr >= 0.0)).all():
            raise DomainError("resource rate z must be finite and >= 0")
        return arr

    @np.errstate(over="ignore", invalid="ignore")
    def _profile(self, z):
        """(mu, mu', mu'') at z, unchecked; callers validate z. A huge k
        or c overflows to inf (inf / inf to nan) on purpose."""
        if self.family == "rational":
            d = 1.0 + self.k * z
            return self.c / d, -self.c * self.k / d**2, 2.0 * self.c * (self.k * self.k) / d**3
        e = np.exp(-self.k * z)
        return self.c * e, -self.c * self.k * e, self.c * (self.k * self.k) * e


@dataclass(frozen=True)
class TransientModel(_Profile):
    """Transient length L(theta): slots the budget lasts at spend rate theta.

    reciprocal:   L = A / theta        (real-valued relaxation)
    exponential:  L = a * exp(-theta)
    budget_floor: L = floor(A / theta) (integer; simulator semantics)

    A is the total budget; a is the exponential scale and is only used by
    that family. The closed-form analysis treats L as real valued; only
    the simulator truncates to whole slots.
    """

    family: str
    A: float
    a: float | None = None

    def __post_init__(self):
        if self.family not in TRANSIENT_FAMILIES:
            raise ConfigError(
                f"unknown transient family {self.family!r}; expected one of {TRANSIENT_FAMILIES}"
            )
        _require_positive(self.A, "A")
        if self.family == "exponential":
            if self.a is None:
                raise ConfigError("exponential transient family requires the scale a")
            _require_positive(self.a, "a")

    def _check(self, theta) -> np.ndarray:
        arr = np.asarray(theta, dtype=float)
        if not (np.isfinite(arr) & (arr > 0.0)).all():
            raise DomainError("theta must be finite and > 0")
        return arr

    def _profile(self, theta):
        """(L, L', L'') at theta, unchecked; budget_floor has no derivatives."""
        if self.family == "reciprocal":
            return self.A / theta, -self.A / theta**2, 2.0 * self.A / theta**3
        if self.family == "exponential":
            e = np.exp(-theta)
            return self.a * e, -self.a * e, self.a * e
        return np.floor(self.A / theta), None, None


@dataclass(frozen=True)
class DetectorConfig:
    """Shewhart detector: per-slot false-alarm alpha, M sensors, window K.

    x_star = quantile(1 - alpha) and h = sqrt(M) * x_star are derived so
    that the nominal sum statistic crosses h with probability alpha each
    slot. h_override replaces the calibrated threshold (diagnostics only,
    e.g. negative controls in the validation battery).
    """

    alpha: float
    M: int
    K: int
    h_override: float | None = None
    x_star: float = field(init=False, repr=False)
    h: float = field(init=False)

    def __post_init__(self):
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
        if int(self.M) != self.M or self.M < 1:
            raise DomainError(f"M must be a positive integer, got {self.M!r}")
        if int(self.K) != self.K or self.K < 1:
            raise DomainError(f"K must be a positive integer, got {self.K!r}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "x_star", float(stdnorm.quantile(1.0 - alpha)))
        if self.h_override is None:
            object.__setattr__(self, "h", math.sqrt(self.M) * self.x_star)
        else:
            h = float(self.h_override)
            if not math.isfinite(h):
                raise DomainError(f"h_override must be finite, got {h!r}")
            object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class AttackScenario:
    """Binds a mean profile, transient model, detector, and theta domain.

    gamma_convention controls the argument handed to the mean profile for
    a slot-level spend theta: "per_sensor" evaluates mu(theta / M) (the
    spend is split evenly over sensors), "raw" evaluates mu(theta).
    """

    mean: MeanProfile
    transient: TransientModel
    detector: DetectorConfig
    theta_min: float
    theta_max: float
    gamma_convention: str = "per_sensor"

    def __post_init__(self):
        if self.gamma_convention not in GAMMA_CONVENTIONS:
            raise ConfigError(
                f"unknown gamma_convention {self.gamma_convention!r}; "
                f"expected one of {GAMMA_CONVENTIONS}"
            )
        tmin = _require_positive(self.theta_min, "theta_min")
        tmax = _require_positive(self.theta_max, "theta_max")
        if not tmin < tmax:
            raise DomainError("theta_min must be < theta_max")
        if tmax > self.transient.A + 1e-12:
            raise DomainError(
                f"theta_max={tmax} exceeds the total budget A={self.transient.A}"
            )
        l_at_min = float(self.transient.value(tmin))
        if l_at_min > self.detector.K + 1e-12:
            raise DomainError(
                f"transient L(theta_min)={l_at_min:.6g} exceeds the window K={self.detector.K}; "
                "raise theta_min"
            )

    def gamma(self, theta, m=None) -> float | np.ndarray:
        """Per-sensor resource argument for the mean profile; m replaces
        the detector's sensor count (a count, or an array of them)."""
        if self.gamma_convention == "per_sensor":
            return theta / (self.detector.M if m is None else m)
        return theta

    @property
    def gamma_slope(self) -> float:
        """d(gamma)/d(theta): the chain-rule constant for the convention."""
        return self.gamma(1.0)

    def transient_length(self, theta) -> np.ndarray:
        """L(theta), float or elementwise, refusing a transient longer than K."""
        length = np.asarray(self.transient.value(theta), dtype=float)
        if (length > self.detector.K + _L_SLACK).any():
            raise TransientExceedsWindowError(
                f"transient L = {np.max(length):.6g} exceeds the window K = {self.detector.K}"
            )
        return length

    def transient_slots(self, theta: float) -> int:
        """floor(L(theta)), the whole slots the simulator suppresses; 0 at
        theta = 0, the no-attack baseline."""
        if theta == 0.0:
            return 0
        return int(math.floor(float(self.transient_length(theta))))

    def allocation_shift(self, allocations) -> np.floating | np.ndarray:
        """Summed mean shift sum_i mu(alloc_i) of one length-M allocation,
        or of each row of an (n, M) stack of them."""
        alloc = np.asarray(allocations, dtype=float)
        m = self.detector.M
        if alloc.ndim not in (1, 2) or alloc.shape[-1] != m:
            raise DomainError(f"allocations must have shape ({m},) or (n, {m}), got {alloc.shape}")
        return np.sum(self.mean.value(alloc), axis=-1)


@dataclass(frozen=True)
class AttackTimeline:
    """Slot-indexed mean sequence for changepoint nu and spend rate theta.

    Slots 1..nu are nominal (mean 0), slots nu+1..nu+floor(L) are the
    suppressed transient, and everything after reverts to the full shift
    mu(0). The transient occupies a whole number of slots, so the real
    valued L is truncated here and only here.
    """

    nu: int
    theta: float
    scenario: AttackScenario

    def __post_init__(self):
        if int(self.nu) != self.nu or self.nu < 0:
            raise DomainError(f"nu must be a nonnegative integer, got {self.nu!r}")
        object.__setattr__(self, "nu", int(self.nu))
        theta = float(self.theta)
        if not math.isfinite(theta) or theta < 0.0:
            raise DomainError(f"theta must be finite and >= 0, got {theta!r}")

    @property
    def transient_slots(self) -> int:
        return self.scenario.transient_slots(self.theta)


def slot_mean(timeline: AttackTimeline, n: int) -> float:
    """Per-sensor mean of slot n (1-based) under the three-phase timeline."""
    if int(n) != n or n < 1:
        raise DomainError(f"slot index n must be a positive integer, got {n!r}")
    if n <= timeline.nu:
        return 0.0
    if n <= timeline.nu + timeline.transient_slots:
        return float(timeline.scenario.mean.value(timeline.scenario.gamma(timeline.theta)))
    return float(timeline.scenario.mean.value(0.0))


def kl_gaussian(mu) -> float | np.ndarray:
    """KL divergence D(N(mu,1) || N(0,1)) = mu^2 / 2."""
    arr = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("mu must be finite")
    out = 0.5 * arr * arr
    return float(out) if np.ndim(mu) == 0 else out


def budget_gap(scenario: AttackScenario, theta) -> float | np.ndarray:
    """Diagnostic theta * L(theta) - A: positive means the transient model
    spends more than the stated total budget at this rate."""
    l_val = scenario.transient.value(theta)
    return theta * l_val - scenario.transient.A


# --- flat key-value scenario config -------------------------------------

# Key order is the canonical serialization order.
CONFIG_KEYS = (
    "mu.family",
    "mu.c",
    "mu.k",
    "L.family",
    "L.A",
    "L.a",
    "det.alpha",
    "det.M",
    "det.K",
    "det.h",
    "theta.min",
    "theta.max",
    "gamma_convention",
)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines into a mapping.

    Blank lines and ``#`` comments are ignored; unknown keys are rejected.
    """
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        mapping[key] = value
    return mapping


def _get(mapping: dict[str, str], key: str) -> str:
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}")
    return mapping[key]


def _get_float(mapping: dict[str, str], key: str) -> float:
    value = _get(mapping, key)
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {value!r}") from exc


def _get_int(mapping: dict[str, str], key: str) -> int:
    value = _get(mapping, key)
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {value!r}") from exc


def scenario_from_mapping(mapping: dict[str, str]) -> AttackScenario:
    """Build an AttackScenario from a parsed config mapping."""
    for key in mapping:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    mean = MeanProfile(
        family=_get(mapping, "mu.family"),
        c=_get_float(mapping, "mu.c"),
        k=_get_float(mapping, "mu.k"),
    )
    transient = TransientModel(
        family=_get(mapping, "L.family"),
        A=_get_float(mapping, "L.A"),
        a=_get_float(mapping, "L.a") if "L.a" in mapping else None,
    )
    detector = DetectorConfig(
        alpha=_get_float(mapping, "det.alpha"),
        M=_get_int(mapping, "det.M"),
        K=_get_int(mapping, "det.K"),
        h_override=_get_float(mapping, "det.h") if "det.h" in mapping else None,
    )
    return AttackScenario(
        mean=mean,
        transient=transient,
        detector=detector,
        theta_min=_get_float(mapping, "theta.min"),
        theta_max=_get_float(mapping, "theta.max"),
        gamma_convention=_get(mapping, "gamma_convention"),
    )


def parse_scenario(text: str) -> AttackScenario:
    return scenario_from_mapping(parse_config_text(text))


def scenario_to_mapping(scenario: AttackScenario) -> dict[str, str]:
    mapping = {
        "mu.family": scenario.mean.family,
        "mu.c": repr(scenario.mean.c),
        "mu.k": repr(scenario.mean.k),
        "L.family": scenario.transient.family,
        "L.A": repr(scenario.transient.A),
        "det.alpha": repr(scenario.detector.alpha),
        "det.M": str(scenario.detector.M),
        "det.K": str(scenario.detector.K),
        "theta.min": repr(scenario.theta_min),
        "theta.max": repr(scenario.theta_max),
        "gamma_convention": scenario.gamma_convention,
    }
    if scenario.transient.a is not None:
        mapping["L.a"] = repr(scenario.transient.a)
    if scenario.detector.h_override is not None:
        mapping["det.h"] = repr(scenario.detector.h_override)
    return mapping


def scenario_to_config(scenario: AttackScenario) -> str:
    """Serialize a scenario to canonical flat key-value text."""
    mapping = scenario_to_mapping(scenario)
    lines = [f"{key} = {mapping[key]}" for key in CONFIG_KEYS if key in mapping]
    return "\n".join(lines) + "\n"
