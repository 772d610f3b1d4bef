"""Generalized complex / Sasakian space forms: constants and structures.

A generalized complex space form M(c1, c2) has curvature

    R(Z1, Z2)Z3 = c1 { g(Z2,Z3) Z1 - g(Z1,Z3) Z2 }
                + c2 { g(Z1, J Z3) J Z2 - g(Z2, J Z3) J Z1 + 2 g(Z1, J Z2) J Z3 }

and a generalized Sasakian space form M(c1, c2, c3) adds

                + c3 { eta(Z1) eta(Z3) Z2 - eta(Z2) eta(Z3) Z1
                       + g(Z1,Z3) eta(Z2) xi - g(Z2,Z3) eta(Z1) xi }.

The named constant families (real, complex, real-Kahler, Sasakian, Kenmotsu,
cosymplectic, almost-C(alpha)) are all expressible through (c1, c2, c3); the
real family uses c2 = c3 = 0 so contact-style code paths can consume it
uniformly. The verifier reads the tensor only through its trace over a frame,
``verify.model_reference_part``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput
from .framecore import StructureOperator


@dataclass(frozen=True)
class SpaceFormSpec:
    """Constants plus structure operator for a model curvature tensor."""

    kind: str  # "generalized-complex" | "generalized-sasakian"
    c1: float
    c2: float
    structure: StructureOperator
    c3: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "generalized-complex":
            if self.c3 is not None:
                raise DegenerateInput("c3 is only meaningful for the sasakian kind")
            if self.structure.kind == "trivial":
                # Real space forms: the c2 block vanishes identically, so a zero
                # operator is admissible and the dimension parity is unrestricted.
                if self.c2 != 0.0:
                    raise DegenerateInput("a trivial structure requires c2 == 0")
            elif self.structure.kind == "almost-complex":
                if self.structure.dim % 2 != 0:
                    raise DegenerateInput("almost-complex structures need even dimension")
            else:
                raise DegenerateInput("generalized-complex spec needs an almost-complex J")
        elif self.kind == "generalized-sasakian":
            if self.c3 is None:
                raise DegenerateInput("generalized-sasakian spec needs c3")
            if self.structure.kind != "almost-contact":
                raise DegenerateInput(
                    "generalized-sasakian spec needs an almost-contact structure"
                )
            if self.structure.dim % 2 != 1:
                raise DegenerateInput("almost-contact structures need odd dimension")
        else:
            raise DegenerateInput(f"unknown space form kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.structure.dim

    def constants(self) -> tuple[float, float, float]:
        return float(self.c1), float(self.c2), float(self.c3 or 0.0)


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
