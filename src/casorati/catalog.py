"""Built-in geometries: charts, structures, maps, and hypothesis metadata.

Every entry packages a coordinate chart for each side, a smooth map between
them, a base point, and the theorem tags its geometry honestly supports.  The
built-in entries are geometry-file descriptions (``DESCRIPTIONS``), built
like a user's file by ``entry_from_description``.  The map functions below
are written with plain arithmetic only (no abs/conj), so they stay analytic
under the complex-step differentiation used by SmoothMap.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .curvature import ChartMetric
from .errors import DegenerateInput, DimensionMismatch, HypothesisViolated
from .framecore import MAX_CHART_DIM, StructureOperator
from .rmaps import MapAtPoint, SmoothMap, map_at_point
from .spaceforms import CONTACT_FAMILIES, NamedFamily, SpaceFormSpec, family_constants


# --------------------------------------------------------------------------
# chart builders
# --------------------------------------------------------------------------


class _BadParameter(DegenerateInput):
    """A builder parameter out of range; ``_built`` names it after its section."""


def _chart_size(name: str, value, low: int, high: int) -> int:
    """``value`` if it is an integer in [low, high], the range that gives the
    chart 1 to MAX_CHART_DIM coordinates."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise _BadParameter(f"{name} must be an integer, not {value!r}")
    if not low <= value <= high:
        raise _BadParameter(f"{name} must lie in {low}..{high}, not {value}")
    return int(value)


def flat_chart(dim: int, scale: float = 1.0, half_width: float = 5.0) -> ChartMetric:
    """Constant metric scale * I on a centered box."""
    dim = _chart_size("dim", dim, 1, MAX_CHART_DIM)
    if scale <= 0.0:
        raise DegenerateInput("flat chart needs a positive scale")
    g = scale * np.eye(dim)
    box = np.repeat([[-half_width, half_width]], dim, axis=0)
    return ChartMetric(dim, lambda p: g, box, f"flat-{dim}")


def round_sphere_chart(dim: int, radius: float = 1.0, half_width: float = 2.0) -> ChartMetric:
    """Round sphere of the given radius in stereographic coordinates.

    g(y) = 4 R^4 / (R^2 + |y|^2)^2 * I, constant sectional curvature 1/R^2.
    """
    dim = _chart_size("dim", dim, 1, MAX_CHART_DIM)
    if radius <= 0.0:
        raise DegenerateInput("sphere chart needs a positive radius")
    r2 = radius * radius

    def metric(p: np.ndarray) -> np.ndarray:
        factor = 4.0 * r2 * r2 / (r2 + float(p @ p)) ** 2
        return factor * np.eye(dim)

    box = np.repeat([[-half_width, half_width]], dim, axis=0)
    return ChartMetric(dim, metric, box, f"sphere-{dim}-R{radius:g}")


def warped_line_chart(fiber_dim: int, half_t: float = 0.8, half_x: float = 1.5) -> ChartMetric:
    """Warped product line x fibers: coordinates (t, x_1..x_k), g = diag(1, e^{2t} I_k).

    With the exponential warping this is hyperbolic space of curvature -1 in
    horospherical coordinates.
    """
    fiber_dim = _chart_size("fiber_dim", fiber_dim, 0, MAX_CHART_DIM - 1)

    def metric(p: np.ndarray) -> np.ndarray:
        g = np.eye(fiber_dim + 1)
        g[1:, 1:] *= np.exp(2.0 * p[0])
        return g

    box = np.vstack([[-half_t, half_t], np.repeat([[-half_x, half_x]], fiber_dim, axis=0)])
    return ChartMetric(fiber_dim + 1, metric, box, f"warped-line-{fiber_dim}")


def fubini_study_chart(n: int, half_width: float = 0.8) -> ChartMetric:
    """Complex projective n-space, holomorphic sectional curvature 4.

    Affine coordinates interleaved as (x_1, y_1, ..., x_n, y_n) with
    z_a = x_a + i y_a; the Hermitian matrix
    h_ab = [(1 + |z|^2) delta_ab - conj(z_a) z_b] / (1 + |z|^2)^2 unpacks into
    the real metric blocks g_xx = g_yy = Re h and g_xy = Im h.
    """
    n = _chart_size("n", n, 1, MAX_CHART_DIM // 2)

    def metric(p: np.ndarray) -> np.ndarray:
        z = p[0::2] + 1j * p[1::2]
        s = 1.0 + float(np.real(np.conj(z) @ z))
        h = (s * np.eye(n) - np.outer(np.conj(z), z)) / (s * s)
        g = np.empty((2 * n, 2 * n))
        g[0::2, 0::2] = h.real
        g[1::2, 1::2] = h.real
        g[0::2, 1::2] = h.imag
        g[1::2, 0::2] = -h.imag
        return g

    box = np.repeat([[-half_width, half_width]], 2 * n, axis=0)
    return ChartMetric(2 * n, metric, box, f"fubini-study-{n}")


def heisenberg_chart(half_width: float = 1.6) -> ChartMetric:
    """Standard Sasakian metric on R^5 with phi-sectional curvature -3.

    Coordinates (x_1, y_1, x_2, y_2, z), contact form
    eta = (dz - y_1 dx_1 - y_2 dx_2)/2 and g = (dx^2 + dy^2)/4 + eta (x) eta.
    """

    def metric(p: np.ndarray) -> np.ndarray:
        eta = _heisenberg_eta(p)
        g = 0.25 * np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
        return g + np.outer(eta, eta)

    box = np.repeat([[-half_width, half_width]], 5, axis=0)
    return ChartMetric(5, metric, box, "heisenberg-5")


def _heisenberg_eta(p: np.ndarray) -> np.ndarray:
    return 0.5 * np.array([-p[1], 0.0, -p[3], 0.0, 1.0])


# --------------------------------------------------------------------------
# structure operators in chart coordinates
# --------------------------------------------------------------------------

def trivial_structure(dim: int):
    """Zero operator; the structure placeholder of real space forms."""
    zero = np.zeros((dim, dim))

    def build(p: np.ndarray) -> StructureOperator:
        return StructureOperator(zero, "trivial")

    return build


def interleaved_complex_structure(n: int):
    """Constant J on (x_1, y_1, ..., x_n, y_n): d/dx_a -> d/dy_a."""
    j = np.zeros((2 * n, 2 * n))
    for a in range(n):
        j[2 * a + 1, 2 * a] = 1.0
        j[2 * a, 2 * a + 1] = -1.0

    def build(p: np.ndarray) -> StructureOperator:
        return StructureOperator(j, "almost-complex")

    return build


def heisenberg_structure():
    """Sasakian (phi, xi, eta) matching :func:`heisenberg_chart`."""

    def build(p: np.ndarray) -> StructureOperator:
        y1, y2 = p[1], p[3]
        phi = np.array(
            [
                [0.0, 1.0, 0.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, -1.0, 0.0, 0.0],
                [0.0, y1, 0.0, y2, 0.0],
            ]
        )
        xi = np.array([0.0, 0.0, 0.0, 0.0, 2.0])
        return StructureOperator(phi, "almost-contact", xi=xi, eta=_heisenberg_eta(p))

    return build


def warped_contact_structure(fiber_dim: int):
    """Kenmotsu (phi, xi, eta) on a warped line chart: xi = d/dt, J-pairs on fibers."""
    if fiber_dim % 2:
        raise DegenerateInput("warped contact structure pairs fiber coordinates")
    dim = fiber_dim + 1
    phi = np.zeros((dim, dim))
    for a in range(fiber_dim // 2):
        i, j = 1 + 2 * a, 2 + 2 * a
        phi[j, i] = 1.0
        phi[i, j] = -1.0
    xi = np.zeros(dim)
    xi[0] = 1.0
    eta = xi.copy()

    def build(p: np.ndarray) -> StructureOperator:
        return StructureOperator(phi, "almost-contact", xi=xi, eta=eta)

    return build


# --------------------------------------------------------------------------
# map functions (analytic arithmetic only: safe under complex-step)
# --------------------------------------------------------------------------

def _quaternion_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ]
    )


def _quaternion_conjugate(a: np.ndarray) -> np.ndarray:
    return np.stack([a[0], -a[1], -a[2], -a[3]])


def _stereo_to_sphere(y: np.ndarray, radius: float) -> np.ndarray:
    """Inverse stereographic projection onto the sphere |x| = radius."""
    r2 = radius * radius
    s = np.sum(y * y)
    top = np.concatenate([2.0 * r2 * y, np.atleast_1d(radius * (s - r2))])
    return top / (r2 + s)


def _sphere_to_stereo(x: np.ndarray, radius: float) -> np.ndarray:
    """Stereographic coordinates of a point on the sphere |x| = radius."""
    return radius * x[:-1] / (radius - x[-1])


def coordinate_projection(indices) -> callable:
    idx = np.asarray(indices, dtype=int)

    def func(p: np.ndarray) -> np.ndarray:
        return p[idx]

    return func


def zero_padding(pad: int) -> callable:
    def func(p: np.ndarray) -> np.ndarray:
        return np.concatenate([p, np.zeros(pad, dtype=p.dtype)])

    return func


def identity_map() -> callable:
    return lambda p: p + 0.0


def stereographic_embedding(radius: float = 1.0) -> callable:
    """Chart coordinates of the round sphere into the flat ambient space."""
    return lambda y: _stereo_to_sphere(y, radius)


def hopf(n: int) -> callable:
    """S^(2n-1)(1) -> S^n(1/2) in stereographic coordinates on both sides, n = 2 or 4.

    x = (q1, q2) maps to (q1 conj(q2), (|q1|^2 - |q2|^2)/2), with q1, q2
    quaternions for n = 4 and complex numbers, the quaternions with zero j
    and k parts, for n = 2.
    """
    pad = np.zeros(4 - n)

    def func(y: np.ndarray) -> np.ndarray:
        x = _stereo_to_sphere(y, 1.0)
        q1, q2 = np.concatenate([x[:n], pad]), np.concatenate([x[n:], pad])
        prod = _quaternion_product(q1, _quaternion_conjugate(q2))[:n]
        h = np.concatenate([prod, np.atleast_1d(0.5 * (np.sum(q1 * q1) - np.sum(q2 * q2)))])
        return _sphere_to_stereo(h, 0.5)

    return func


# --------------------------------------------------------------------------
# catalog entries
# --------------------------------------------------------------------------

KIND_MAP = "riemannian-map"
KIND_SUBMERSION = "riemannian-submersion"


@dataclass(frozen=True)
class CatalogEntry:
    """One built-in geometry plus the theorem hypotheses it satisfies."""

    id: str
    kind: str
    smooth_map: SmoothMap
    declared_rank: int
    base_point: np.ndarray
    hypothesis_tags: tuple[str, ...] = ()
    family: NamedFamily | None = None
    spaceform_side: str | None = None  # "source" | "target"
    structure_fn: object | None = None
    reference_values: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_MAP, KIND_SUBMERSION):
            raise DegenerateInput(f"unknown catalog kind {self.kind!r}")
        if self.spaceform_side not in (None, "source", "target"):
            raise DegenerateInput(f"bad space-form side {self.spaceform_side!r}")
        p = np.array(self.base_point, dtype=float)
        if p.shape != (self.smooth_map.source.dim,):
            raise DimensionMismatch("base point does not match the source chart")
        object.__setattr__(self, "base_point", p)
        p.setflags(write=False)

    @property
    def source_chart(self) -> ChartMetric:
        return self.smooth_map.source

    @property
    def target_chart(self) -> ChartMetric:
        return self.smooth_map.target

    @property
    def vertical_dim(self) -> int:
        return self.source_chart.dim - self.declared_rank

    def instantiate(self, point=None) -> MapAtPoint:
        p = self.base_point if point is None else np.asarray(point, dtype=float)
        return map_at_point(self.smooth_map, p, declared_rank=self.declared_rank)

    def structure_at(self, side_point: np.ndarray) -> StructureOperator:
        if self.structure_fn is None:
            raise HypothesisViolated(f"geometry {self.id!r} declares no structure operator")
        return self.structure_fn(np.asarray(side_point, dtype=float))

    def space_form_spec(self, side_point: np.ndarray) -> SpaceFormSpec:
        """Model-curvature constants + structure at a point of the declared side."""
        if self.family is None or self.spaceform_side is None:
            raise HypothesisViolated(f"geometry {self.id!r} declares no space-form side")
        c1, c2, c3 = family_constants(self.family)
        op = self.structure_at(side_point)
        if self.family.name in CONTACT_FAMILIES:
            return SpaceFormSpec("generalized-sasakian", c1, c2, op, c3)
        return SpaceFormSpec("generalized-complex", c1, c2, op, None)

    def summary(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "rank": self.declared_rank,
            "source_dim": self.source_chart.dim,
            "target_dim": self.target_chart.dim,
            "vertical_dim": self.vertical_dim,
            "tags": list(self.hypothesis_tags),
            "family": None if self.family is None else self.family.to_json(),
            "spaceform_side": self.spaceform_side,
            "base_point": [float(x) for x in self.base_point],
        }


# --------------------------------------------------------------------------
# geometry descriptions
# --------------------------------------------------------------------------

_CHART_BUILDERS = {
    "flat": flat_chart,
    "sphere": round_sphere_chart,
    "warped-line": warped_line_chart,
    "fubini-study": fubini_study_chart,
    "heisenberg": heisenberg_chart,
}

_MAP_BUILDERS = {
    "coordinate-projection": coordinate_projection,
    "zero-padding": zero_padding,
    "identity": identity_map,
    "stereographic-embedding": stereographic_embedding,
    "hopf-quaternionic": partial(hopf, 4),
    "hopf-complex": partial(hopf, 2),
}

# Each structure builder gets the dimension of the space-form side's chart.
_STRUCTURE_BUILDERS = {
    "trivial": trivial_structure,
    "interleaved-complex": lambda dim: interleaved_complex_structure(dim // 2),
    "heisenberg": lambda dim: heisenberg_structure(),
    "warped-contact": lambda dim: warped_contact_structure(dim - 1),
}


def _family(name: str, c: float, alpha: float | None = None) -> NamedFamily:
    """The family section as a NamedFamily, with its numbers read as floats."""
    return NamedFamily(name, float(c), None if alpha is None else float(alpha))


def _section(desc: dict, key: str) -> dict:
    """``desc[key]``, which must be a JSON object."""
    section = desc[key]
    if not isinstance(section, dict):
        raise DegenerateInput(f"the key {key!r} must hold an object, not {section!r}")
    return section


def _built(builders: dict, desc: dict, key: str, **context):
    """``desc[key]`` built by the builder it names from its other keys; errors
    name ``key``, or ``key.parameter`` for a parameter out of range."""
    kwargs = dict(_section(desc, key))
    builder = kwargs.pop("builder", None)
    if builder not in builders:
        raise DegenerateInput(f"{key}: unknown builder {builder!r}")
    try:
        return builders[builder](**kwargs, **context)
    except _BadParameter as err:
        raise DegenerateInput(f"{key}.{err}") from None
    except (DegenerateInput, TypeError, ValueError) as err:
        raise DegenerateInput(f"{key}: {err}") from None


def entry_from_description(desc: dict) -> CatalogEntry:
    """Build a CatalogEntry from a JSON-style description dictionary.

    Charts, maps and structures are named builtins with parameters; arbitrary
    user metric functions are out of scope for the file format. A structure
    takes its dimension from the chart of the space-form side. The map is
    evaluated once at the base point, so that bad map parameters fail here.
    """
    source = _built(_CHART_BUILDERS, desc, "source_chart")
    target = _built(_CHART_BUILDERS, desc, "target_chart")
    func = _built(_MAP_BUILDERS, desc, "map")
    # The family section names no builder.
    family = _built({None: _family}, desc, "family") if desc.get("family") else None
    structure_fn = None
    if desc.get("structure"):
        side_chart = target if desc.get("spaceform_side") == "target" else source
        structure_fn = _built(_STRUCTURE_BUILDERS, desc, "structure", dim=side_chart.dim)

    entry = CatalogEntry(
        id=desc["id"],
        kind=desc["kind"],
        smooth_map=SmoothMap(source, target, func, name=desc["id"]),
        declared_rank=int(desc["declared_rank"]),
        base_point=desc["base_point"],
        hypothesis_tags=tuple(desc.get("tags", ())),
        family=family,
        spaceform_side=desc.get("spaceform_side"),
        structure_fn=structure_fn,
        reference_values=dict(desc.get("reference_values", {})),
        notes=desc.get("notes", ""),
    )
    try:
        entry.smooth_map(entry.base_point)
    except (DimensionMismatch, IndexError, TypeError, ValueError) as err:
        raise DegenerateInput(f"map: {err}") from None
    return entry


# --------------------------------------------------------------------------
# built-in entries, in the geometry-file format
# --------------------------------------------------------------------------

DESCRIPTIONS = (
    # Orthogonal projection R^5 -> R^2: everything vanishes.
    {
        "id": "euclidean-projection-5-2",
        "kind": KIND_SUBMERSION,
        "source_chart": {"builder": "flat", "dim": 5},
        "target_chart": {"builder": "flat", "dim": 2},
        "map": {"builder": "coordinate-projection", "indices": [0, 1]},
        "declared_rank": 2,
        "base_point": [0.1, -0.2, 0.3, 0.4, -0.1],
        "tags": ["sub-vert-general", "sub-vert-gcsf", "sub-vert-gcsf-anti"],
        "family": {"name": "real", "c": 0.0},
        "spaceform_side": "source",
        "structure": {"builder": "trivial"},
        "reference_values": {"C_vertical": 0.0, "delta_C_vertical": 0.0},
        "notes": "flat fibers in a flat total space; equality holds trivially",
    },
    # Unit 3-sphere isometrically immersed in flat R^4 (umbilical, not equality).
    {
        "id": "sphere-immersion-S3",
        "kind": KIND_MAP,
        "source_chart": {"builder": "sphere", "dim": 3, "radius": 1.0, "half_width": 2.0},
        "target_chart": {"builder": "flat", "dim": 4, "half_width": 2.0},
        "map": {"builder": "stereographic-embedding", "radius": 1.0},
        "declared_rank": 3,
        "base_point": [0.2, 0.3, -0.1],
        "tags": ["map-general", "map-gcsf", "map-gcsf-antiinvariant"],
        "family": {"name": "real", "c": 0.0},
        "spaceform_side": "target",
        "structure": {"builder": "trivial"},
        "reference_values": {
            "C": 1.0,
            "delta_C": 7.0 / 6.0,
            "delta_hat_C": 7.0 / 6.0,
            "rho_horizontal": 1.0,
            "map_general_residual": 1.0 / 6.0,
        },
        "notes": "second fundamental form is the identity matrix on one normal",
    },
    # Totally geodesic projective line inside the projective plane (rank 2:
    # below the theorem threshold, kept for the computation pipeline only).
    {
        "id": "fubini-study-CP1-CP2",
        "kind": KIND_MAP,
        "source_chart": {"builder": "fubini-study", "n": 1, "half_width": 0.8},
        "target_chart": {"builder": "fubini-study", "n": 2, "half_width": 0.9},
        "map": {"builder": "zero-padding", "pad": 2},
        "declared_rank": 2,
        "base_point": [0.1, -0.2],
        "family": {"name": "complex", "c": 4.0},
        "spaceform_side": "target",
        "structure": {"builder": "interleaved-complex"},
        "reference_values": {"B_norm_sq": 0.0, "P_norm_sq": 2.0},
        "notes": "invariant totally geodesic embedding; rank 2 < 3",
    },
    # The projective plane mapped to itself: rank-4 map into a complex space form.
    {
        "id": "fubini-study-CP2",
        "kind": KIND_MAP,
        "source_chart": {"builder": "fubini-study", "n": 2, "half_width": 0.8},
        "target_chart": {"builder": "fubini-study", "n": 2, "half_width": 0.9},
        "map": {"builder": "identity"},
        "declared_rank": 4,
        "base_point": [0.1, -0.2, 0.15, 0.05],
        "tags": ["map-general", "map-gcsf", "map-gcsf-invariant"],
        "family": {"name": "complex", "c": 4.0},
        "spaceform_side": "target",
        "structure": {"builder": "interleaved-complex"},
        "reference_values": {"rho_horizontal": 2.0, "P_norm_sq": 4.0},
        "notes": "equality case: totally geodesic with invariant range",
    },
    # Hyperbolic 4-space fibered over the warped line: totally umbilical fibers.
    {
        "id": "warped-product-R-x-R3",
        "kind": KIND_SUBMERSION,
        "source_chart": {"builder": "warped-line", "fiber_dim": 3},
        "target_chart": {"builder": "flat", "dim": 1, "half_width": 2.0},
        "map": {"builder": "coordinate-projection", "indices": [0]},
        "declared_rank": 1,
        "base_point": [0.0, 0.3, -0.2, 0.1],
        "tags": ["sub-vert-general", "sub-vert-gcsf", "sub-vert-gcsf-anti"],
        "family": {"name": "real", "c": -1.0},
        "spaceform_side": "source",
        "structure": {"builder": "trivial"},
        "reference_values": {
            "T_diagonal": -1.0,
            "ambient_vertical_2scal": -6.0,
            "fiber_2scal": 0.0,
            "delta_C_vertical": 7.0 / 6.0,
        },
        "notes": "umbilical fibers: inequality strict, shape diagnosis negative",
    },
    # Quaternionic Hopf fibration: fibers are totally geodesic 3-spheres and
    # the horizontal distribution is maximally non-integrable.
    {
        "id": "quaternionic-hopf-S7-S4",
        "kind": KIND_SUBMERSION,
        "source_chart": {"builder": "sphere", "dim": 7, "radius": 1.0, "half_width": 0.45},
        "target_chart": {"builder": "sphere", "dim": 4, "radius": 0.5, "half_width": 30.0},
        "map": {"builder": "hopf-quaternionic"},
        "declared_rank": 4,
        "base_point": [0.12, -0.08, 0.1, 0.15, -0.11, 0.09, 0.05],
        "tags": [
            "sub-vert-general",
            "sub-vert-gcsf",
            "sub-vert-gcsf-anti",
            "sub-hor-general",
            "sub-hor-gcsf",
        ],
        "family": {"name": "real", "c": 1.0},
        "spaceform_side": "source",
        "structure": {"builder": "trivial"},
        "reference_values": {
            "A_norm_sq": 12.0,
            "C_horizontal": 3.0,
            "C_L_horizontal": 2.0,
            "delta_C_horizontal": 2.75,
            "delta_hat_C_horizontal": 4.25,
            "rho_base_horizontal": 4.0,
            "fiber_2scal": 6.0,
            "T_norm_sq": 0.0,
        },
        "notes": "base sphere of radius 1/2; vertical equality, horizontal strict",
    },
    # Complex Hopf fibration: both distribution dimensions sit below the
    # theorem threshold, so it only exercises the computation pipeline.
    {
        "id": "complex-hopf-S3-S2",
        "kind": KIND_SUBMERSION,
        "source_chart": {"builder": "sphere", "dim": 3, "radius": 1.0, "half_width": 0.45},
        "target_chart": {"builder": "sphere", "dim": 2, "radius": 0.5, "half_width": 10.0},
        "map": {"builder": "hopf-complex"},
        "declared_rank": 2,
        "base_point": [0.1, -0.2, 0.15],
        "family": {"name": "real", "c": 1.0},
        "spaceform_side": "source",
        "structure": {"builder": "trivial"},
        "reference_values": {"A_norm_sq": 2.0},
        "notes": "horizontal rank 2 < 3: theorem requests must be rejected",
    },
    # Standard Sasakian R^5 fibered over flat C^2; the Reeb field spans the
    # vertical space, so it is normal to the horizontal distribution.
    {
        "id": "sasakian-R5-model",
        "kind": KIND_SUBMERSION,
        "source_chart": {"builder": "heisenberg"},
        "target_chart": {"builder": "flat", "dim": 4, "scale": 0.25, "half_width": 2.0},
        "map": {"builder": "coordinate-projection", "indices": [0, 1, 2, 3]},
        "declared_rank": 4,
        "base_point": [0.2, 0.3, -0.1, 0.15, 0.1],
        "tags": ["sub-hor-general", "sub-hor-gssf"],
        "family": {"name": "sasakian", "c": -3.0},
        "spaceform_side": "source",
        "structure": {"builder": "heisenberg"},
        "reference_values": {
            "A_norm_sq": 4.0,
            "C_horizontal": 1.0,
            "C_L_horizontal": 2.0 / 3.0,
            "delta_C_horizontal": 11.0 / 12.0,
            "P_norm_sq": 4.0,
            "ambient_horizontal_2scal": -12.0,
        },
        "notes": "Reeb field vertical: the structure branch without the c3 term",
    },
    # Kenmotsu model H^5 -> H^3 (warped lines shared): the Reeb field d/dt is
    # horizontal and the horizontal distribution is integrable (equality).
    {
        "id": "kenmotsu-H5-H3",
        "kind": KIND_SUBMERSION,
        "source_chart": {"builder": "warped-line", "fiber_dim": 4, "half_t": 0.8, "half_x": 1.5},
        "target_chart": {"builder": "warped-line", "fiber_dim": 2, "half_t": 0.9, "half_x": 1.8},
        "map": {"builder": "coordinate-projection", "indices": [0, 1, 2]},
        "declared_rank": 3,
        "base_point": [0.1, 0.2, -0.3, 0.25, -0.15],
        "tags": ["sub-hor-general", "sub-hor-gssf"],
        "family": {"name": "kenmotsu", "c": -1.0},
        "spaceform_side": "source",
        "structure": {"builder": "warped-contact"},
        "reference_values": {
            "A_norm_sq": 0.0,
            "rho_horizontal": -1.0,
            "P_norm_sq": 2.0,
        },
        "notes": "Reeb field horizontal: the structure branch with the c3 term; equality",
    },
)

_ENTRIES = {desc["id"]: entry_from_description(desc) for desc in DESCRIPTIONS}
if len(_ENTRIES) != len(DESCRIPTIONS):
    raise DegenerateInput("duplicate catalog ids")


def list_entries() -> list[CatalogEntry]:
    """All built-in entries in a stable order."""
    return list(_ENTRIES.values())


def get(entry_id: str) -> CatalogEntry:
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        known = ", ".join(sorted(_ENTRIES))
        raise DegenerateInput(f"unknown geometry {entry_id!r}; know {known}") from None


def load_geometry_file(path: str) -> CatalogEntry:
    """The entry that a JSON geometry file describes.

    A file that is missing or not JSON, lacks a key, holds a non-object
    where a section belongs, names an unknown builder, gives one a key or
    value it cannot take or a base point of the wrong length, or whose map
    fails at the base point raises DegenerateInput, with the file's name and
    the key's where there is one.
    """
    name = repr(os.fspath(path))
    try:
        with open(path, encoding="utf-8") as fh:
            desc = json.load(fh)
    except OSError as err:
        raise DegenerateInput(f"cannot read geometry file {name}: {err.strerror}") from None
    except ValueError as err:
        raise DegenerateInput(f"geometry file {name} is not valid JSON: {err}") from None
    try:
        return entry_from_description(desc)
    except KeyError as err:
        raise DegenerateInput(f"geometry file {name} lacks the key {err.args[0]!r}") from None
    except (DegenerateInput, DimensionMismatch, TypeError, ValueError) as err:
        raise DegenerateInput(f"geometry file {name}: {err}") from None
