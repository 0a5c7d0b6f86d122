"""Declared decay/growth classes of defining and test functions.

The class of a function describes its behavior as ``Re z -> +-inf`` inside a
horizontal strip: gaussian(rate) C e^(-rate r^2), exp_decay(rate)
C e^(-rate r), asymptotic (rapid decay), tempered(gamma) C (1 + r)^gamma or
infra_exponential, in that inclusion order.  Gaussian-damped functions, the
S_1/2-type members of the Gelfand-Shilov spaces, take the first.  A class is
declared by the caller and spot-checked numerically
(`hypercalc.quad.verify_growth`); inference is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# inclusion order of the kinds, narrowest first; the rated kinds need rate > 0
_ORDER = {"gaussian": 0, "exp_decay": 1, "asymptotic": 2, "tempered": 3,
          "infra_exponential": 4}
_RATED = ("gaussian", "exp_decay")


class GrowthError(Exception):
    pass


@dataclass(frozen=True)
class GrowthClass:
    """One of gaussian(rate), exp_decay(rate), asymptotic, tempered(gamma),
    infra_exponential.

    ``constant`` is the user-declared envelope constant C: the function is
    asserted to satisfy |f| <= C * envelope(|Re z|) in its strip.
    """

    kind: str  # "gaussian" | "exp_decay" | "asymptotic" | "tempered" | "infra_exponential"
    gamma: float = 0.0  # tempered exponent
    rate: float = 0.0  # decay rate of exp_decay and gaussian, > 0
    constant: float = 1.0

    def __post_init__(self):
        if self.kind not in _ORDER:
            raise GrowthError(f"unknown growth kind {self.kind!r}")
        if self.kind in _RATED and self.rate <= 0:
            raise GrowthError(f"{self.kind} requires a positive rate")
        if self.constant <= 0:
            raise GrowthError("envelope constant must be positive")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def asymptotic(constant=1.0):
        return GrowthClass("asymptotic", constant=constant)

    @staticmethod
    def tempered(gamma, constant=1.0):
        return GrowthClass("tempered", gamma=float(gamma), constant=constant)

    @staticmethod
    def infra_exponential(constant=1.0):
        return GrowthClass("infra_exponential", constant=constant)

    @staticmethod
    def exp_decay(rate, constant=1.0):
        return GrowthClass("exp_decay", rate=float(rate), constant=constant)

    @staticmethod
    def gaussian(rate, constant=1.0):
        return GrowthClass("gaussian", rate=float(rate), constant=constant)

    # ----------------------------------------------------------------------
    def fits_within(self, other: "GrowthClass") -> bool:
        """Total predicate for the inclusion ordering.

        gaussian(.) subset exp_decay(.) subset asymptotic subset
        tempered(gamma) subset infra_exponential, for every rate and gamma.
        """
        a, b = _ORDER[self.kind], _ORDER[other.kind]
        if a != b:
            return a < b
        if self.kind == "tempered":
            return self.gamma <= other.gamma
        if self.kind in _RATED:
            return self.rate >= other.rate
        return True

    def envelope(self, r: float) -> float:
        """Declared bound at |Re z| = r (infra-exponential uses epsilon = 1/10)."""
        if self.kind == "gaussian":
            return self.constant * math.exp(-self.rate * r * r)
        if self.kind == "exp_decay":
            return self.constant * math.exp(-self.rate * r)
        if self.kind == "tempered":
            return self.constant * (1.0 + r) ** self.gamma
        if self.kind == "asymptotic":
            # spot-check envelope: rapid decay is checked against a fixed
            # power; the true class is the intersection over all powers
            return self.constant * (1.0 + r) ** -2.0
        return self.constant * math.exp(0.1 * r)

    def to_json(self):
        d = {"kind": self.kind, "constant": self.constant}
        if self.kind == "tempered":
            d["gamma"] = self.gamma
        if self.kind in _RATED:
            d["rate"] = self.rate
        return d

    @staticmethod
    def from_json(d) -> "GrowthClass":
        return GrowthClass(d["kind"], gamma=d.get("gamma", 0.0),
                           rate=d.get("rate", 0.0), constant=d.get("constant", 1.0))
