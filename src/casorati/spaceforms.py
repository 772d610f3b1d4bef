"""Generalized complex / Sasakian space forms: constants and structures.

A generalized complex space form M(c1, c2) has curvature

    R(Z1, Z2)Z3 = c1 { g(Z2,Z3) Z1 - g(Z1,Z3) Z2 }
                + c2 { g(Z1, J Z3) J Z2 - g(Z2, J Z3) J Z1 + 2 g(Z1, J Z2) J Z3 }

and a generalized Sasakian space form M(c1, c2, c3) adds

                + c3 { eta(Z1) eta(Z3) Z2 - eta(Z2) eta(Z3) Z1
                       + g(Z1,Z3) eta(Z2) xi - g(Z2,Z3) eta(Z1) xi }.

A ``SpaceFormSpec`` holds (c1, c2, c3) and the structure operator, and is
of contact (generalized Sasakian) type exactly when its structure is
almost-contact; c3 = 0 otherwise. The named constant families (real,
complex, real-Kahler, Sasakian, Kenmotsu, cosymplectic, almost-C(alpha))
are all expressible through (c1, c2, c3). The verifier reads the tensor
only through its trace over a frame, ``verify.model_reference_part``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInput
from .framecore import StructureOperator


@dataclass(frozen=True)
class SpaceFormSpec:
    """Constants plus structure operator for a model curvature tensor. The
    dimension's parity needs no check: ``StructureOperator`` refuses J in odd
    dimension (det J^2 >= 0 > det(-I)) and phi in even dimension (phi on
    ker eta is a complex structure)."""

    c1: float
    c2: float
    c3: float
    structure: StructureOperator

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.constants())):
            raise DegenerateInput(f"space-form constants must be finite, got {self.constants()}")
        if self.c3 != 0.0 and not self.contact:
            raise DegenerateInput("c3 != 0 needs an almost-contact structure")
        if self.c2 != 0.0 and self.structure.kind == "trivial":  # real space forms
            raise DegenerateInput("a trivial structure requires c2 == 0")

    @property
    def contact(self) -> bool:
        """Whether the form is a generalized Sasakian one: its structure is almost-contact."""
        return self.structure.kind == "almost-contact"

    @property
    def dim(self) -> int:
        return self.structure.dim

    def constants(self) -> tuple[float, float, float]:
        return float(self.c1), float(self.c2), float(self.c3)


# (c1, c2, c3) for the named families; alpha enters only where noted.
_FAMILIES = {
    "real": lambda c, a: (c, 0.0, 0.0),
    "complex": lambda c, a: (c / 4.0, c / 4.0, 0.0),
    "real-kahler": lambda c, a: ((c + 3.0 * a) / 4.0, (c - a) / 4.0, 0.0),
    "sasakian": lambda c, a: ((c + 3.0) / 4.0, (c - 1.0) / 4.0, (c - 1.0) / 4.0),
    "kenmotsu": lambda c, a: ((c - 3.0) / 4.0, (c + 1.0) / 4.0, (c + 1.0) / 4.0),
    "cosymplectic": lambda c, a: (c / 4.0, c / 4.0, c / 4.0),
    "almost-C-alpha": lambda c, a: (
        (c + 3.0 * a * a) / 4.0,
        (c - a * a) / 4.0,
        (c - a * a) / 4.0,
    ),
}

# Families whose model lives on an almost-contact (odd-dimensional) manifold.
CONTACT_FAMILIES = frozenset({"sasakian", "kenmotsu", "cosymplectic", "almost-C-alpha"})
FAMILY_NAMES = tuple(sorted(_FAMILIES))


@dataclass(frozen=True)
class NamedFamily:
    """A classical space-form family selected by name and curvature parameter c."""

    name: str
    c: float
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _FAMILIES:
            raise DegenerateInput(f"unknown family {self.name!r}; know {FAMILY_NAMES}")
        needs_alpha = self.name in ("real-kahler", "almost-C-alpha")
        if needs_alpha and self.alpha is None:
            raise DegenerateInput(f"family {self.name!r} needs alpha")
        if not needs_alpha and self.alpha is not None:
            raise DegenerateInput(f"family {self.name!r} does not take alpha")

    def to_json(self) -> dict:
        out = {"name": self.name, "c": self.c}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


def family_constants(fam: NamedFamily) -> tuple[float, float, float]:
    """(c1, c2, c3) for the family; c3 = 0 for the non-contact families."""
    return _FAMILIES[fam.name](float(fam.c), 0.0 if fam.alpha is None else float(fam.alpha))


def spec_for(fam: NamedFamily, structure: StructureOperator) -> SpaceFormSpec:
    """The space form of a named family on a structure of the same contact type."""
    if (fam.name in CONTACT_FAMILIES) != (structure.kind == "almost-contact"):
        raise DegenerateInput(
            f"the family {fam.name!r} and the structure of kind {structure.kind!r} "
            "differ in contact type"
        )
    return SpaceFormSpec(*family_constants(fam), structure)
