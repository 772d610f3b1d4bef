"""Model curvature tensors of generalized complex / Sasakian space forms.

A generalized complex space form M(c1, c2) has curvature

    R(Z1, Z2)Z3 = c1 { g(Z2,Z3) Z1 - g(Z1,Z3) Z2 }
                + c2 { g(Z1, J Z3) J Z2 - g(Z2, J Z3) J Z1 + 2 g(Z1, J Z2) J Z3 }

and a generalized Sasakian space form M(c1, c2, c3) adds

                + c3 { eta(Z1) eta(Z3) Z2 - eta(Z2) eta(Z3) Z1
                       + g(Z1,Z3) eta(Z2) xi - g(Z2,Z3) eta(Z1) xi }.

The named constant families (real, complex, real-Kahler, Sasakian, Kenmotsu,
cosymplectic, almost-C(alpha)) are all expressible through (c1, c2, c3); the
real family uses c2 = c3 = 0 so contact-style code paths can consume it
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import ChartMetric, CurvatureTensor, riemann_at
from .errors import DegenerateInput, DimensionMismatch, ValidationFailed
from .framecore import InnerProduct, StructureOperator

CHART_VALIDATION_TOL = 1e-3


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


def model_curvature(
    spec: SpaceFormSpec,
    z1: np.ndarray,
    z2: np.ndarray,
    z3: np.ndarray,
    inner: InnerProduct,
) -> np.ndarray:
    """R(Z1, Z2)Z3 of the model tensor, as a coordinate vector."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    z3 = np.asarray(z3, dtype=float)
    if z1.shape != (spec.dim,) or z2.shape != (spec.dim,) or z3.shape != (spec.dim,):
        raise DimensionMismatch("tangent vectors do not match the spec dimension")
    if inner.dim != spec.dim:
        raise DimensionMismatch("inner product does not match the spec dimension")

    g = inner.dot
    j = spec.structure.matrix
    jz1, jz2, jz3 = j @ z1, j @ z2, j @ z3

    out = spec.c1 * (g(z2, z3) * z1 - g(z1, z3) * z2)
    out = out + spec.c2 * (
        g(z1, jz3) * jz2 - g(z2, jz3) * jz1 + 2.0 * g(z1, jz2) * jz3
    )
    if spec.kind == "generalized-sasakian":
        eta = spec.structure.eta
        xi = spec.structure.xi
        e1, e2, e3 = float(eta @ z1), float(eta @ z2), float(eta @ z3)
        out = out + spec.c3 * (
            e1 * e3 * z2 - e2 * e3 * z1 + g(z1, z3) * e2 * xi - g(z2, z3) * e1 * xi
        )
    return out


def model_tensor(spec: SpaceFormSpec, inner: InnerProduct) -> CurvatureTensor:
    """All components R_{ijkl} of the model tensor on the coordinate basis."""
    n = spec.dim
    comp = np.empty((n, n, n, n))
    basis = np.eye(n)
    for i in range(n):
        for k in range(n):
            for kk in range(n):
                vec = model_curvature(spec, basis[i], basis[k], basis[kk], inner)
                comp[i, k, kk, :] = inner.gram @ vec
    return CurvatureTensor(comp)


def validate_against_chart(
    spec: SpaceFormSpec,
    chart: ChartMetric,
    structure_fn,
    sample_points,
    rng: np.random.Generator | None = None,
    tol: float = CHART_VALIDATION_TOL,
) -> float:
    """Max relative residual of the chart's numeric curvature vs the model.

    ``structure_fn(p) -> StructureOperator`` supplies the (possibly
    point-dependent) structure in chart coordinates. For each sample point the
    numeric Riemann tensor is compared against the model on random vector
    triples; raises ValidationFailed if any residual exceeds ``tol``.
    """
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    worst_point = None
    for p in sample_points:
        p = np.asarray(p, dtype=float)
        g = chart.metric_at(p)
        inner = InnerProduct(g)
        op = structure_fn(p)
        point_spec = SpaceFormSpec(spec.kind, spec.c1, spec.c2, op, spec.c3)
        numeric = riemann_at(chart, p, refine=True)
        for _ in range(8):
            z = rng.standard_normal((3, chart.dim))
            model = model_curvature(point_spec, z[0], z[1], z[2], inner)
            actual = np.einsum("ijkl,i,j,k->l", numeric.components, z[0], z[1], z[2])
            # numeric components are fully lowered; raise the last index.
            actual = np.linalg.solve(g, actual)
            res = np.linalg.norm(actual - model) / (1.0 + np.linalg.norm(model))
            if res > worst:
                worst = res
                worst_point = p
    if worst > tol:
        raise ValidationFailed(
            f"model mismatch {worst:.3e} > {tol} at {None if worst_point is None else worst_point.tolist()}"
        )
    return worst
