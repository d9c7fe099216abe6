"""Objective descriptions for ||Ax - b||_p^r + lam * ||x||_q^s."""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import check_exponent, check_lambda, check_positive

# family -> (p, q, r, s); None entries are filled from the p argument.
FAMILIES = {
    "ridge": (2.0, 2.0, 2.0, 2.0),
    "lasso": (2.0, 1.0, 2.0, 1.0),
    "modified_lasso": (2.0, 1.0, 2.0, 2.0),
    "rlad": (1.0, 1.0, 1.0, 1.0),
    "lp_lp": (None, None, None, None),
}


@dataclass(frozen=True)
class ObjectiveSpec:
    """Loss exponents (p, r), penalty exponents (q, s) and weight lam.

    The exponents alone decide how an objective is evaluated and solved; the
    family names of FAMILIES are shorthands for some of their combinations.
    """

    p: float
    q: float
    r: float
    s: float
    lam: float

    def __post_init__(self):
        check_exponent(self.p, "p")
        check_exponent(self.q, "q")
        check_positive(self.r, "r")
        check_positive(self.s, "s")
        check_lambda(self.lam)

    @classmethod
    def for_family(cls, family: str, lam: float, p: float = 2.0) -> "ObjectiveSpec":
        """Build the spec for a named family; p is only used by lp_lp."""
        exponents = FAMILIES.get(family)
        if exponents is None:
            raise ValueError(f"unknown family {family!r}")
        return cls(*(p if e is None else e for e in exponents), lam=lam)

    @classmethod
    def lp_lp(cls, p: float, lam: float) -> "ObjectiveSpec":
        return cls.for_family("lp_lp", lam, p=p)

    @classmethod
    def ridge(cls, lam: float) -> "ObjectiveSpec":
        return cls.for_family("ridge", lam)

    @classmethod
    def lasso(cls, lam: float) -> "ObjectiveSpec":
        return cls.for_family("lasso", lam)

    @classmethod
    def modified_lasso(cls, lam: float) -> "ObjectiveSpec":
        return cls.for_family("modified_lasso", lam)

    @classmethod
    def rlad(cls, lam: float) -> "ObjectiveSpec":
        return cls.for_family("rlad", lam)
