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
from .measures import _is_int
from .rmaps import MapAtPoint, SmoothMap, map_at_point
from .spaceforms import NamedFamily, SpaceFormSpec, spec_for


# --------------------------------------------------------------------------
# chart builders
# --------------------------------------------------------------------------


class _BadParameter(DegenerateInput):
    """A builder parameter out of range; ``_built`` names it after its section."""


def _chart_size(name: str, value, low: int, high: int) -> int:
    """``value`` if it is an integer in [low, high]: a chart size, in the range
    that gives the chart 1 to MAX_CHART_DIM coordinates, or the declared rank."""
    if not _is_int(value):
        raise _BadParameter(f"{name} must be an integer, not {value!r}")
    if not low <= value <= high:
        raise _BadParameter(f"{name} must lie in {low}..{high}, not {value}")
    return int(value)


def _squared_norm(v: np.ndarray, v_left: np.ndarray | None = None) -> np.ndarray:
    """Row-wise v_left . v over the last axis (v . v by default).

    A stacked matmul gives, row by row, the bits that ``v_left @ v`` gives on
    one row, which an ``einsum`` or ``sum`` does not in general.
    """
    v_left = v if v_left is None else v_left
    return (v_left[..., None, :] @ v[..., :, None])[..., 0, 0]


def flat_chart(dim: int, scale: float = 1.0, half_width: float = 5.0) -> ChartMetric:
    """Constant metric scale * I on a centered box."""
    dim = _chart_size("dim", dim, 1, MAX_CHART_DIM)
    if scale <= 0.0:
        raise DegenerateInput("flat chart needs a positive scale")
    g = scale * np.eye(dim)
    box = np.repeat([[-half_width, half_width]], dim, axis=0)

    def metric(p: np.ndarray) -> np.ndarray:
        return np.broadcast_to(g, p.shape[:-1] + g.shape)

    return ChartMetric(dim, metric, box, f"flat-{dim}")


def round_sphere_chart(dim: int, radius: float = 1.0, half_width: float = 2.0) -> ChartMetric:
    """Round sphere of the given radius in stereographic coordinates.

    g(y) = 4 R^4 / (R^2 + |y|^2)^2 * I, constant sectional curvature 1/R^2.
    """
    dim = _chart_size("dim", dim, 1, MAX_CHART_DIM)
    if radius <= 0.0:
        raise DegenerateInput("sphere chart needs a positive radius")
    r2 = radius * radius

    def metric(p: np.ndarray) -> np.ndarray:
        # float_power, like Python's float ** 2, calls pow(); ** 2 on an array
        # squares, which differs from it in the last bit on about 1 point in 1,000.
        factor = 4.0 * r2 * r2 / np.float_power(r2 + _squared_norm(p), 2)
        return factor[..., None, None] * np.eye(dim)

    box = np.repeat([[-half_width, half_width]], dim, axis=0)
    return ChartMetric(dim, metric, box, f"sphere-{dim}-R{radius:g}")


def warped_line_chart(fiber_dim: int, half_t: float = 0.8, half_x: float = 1.5) -> ChartMetric:
    """Warped product line x fibers: coordinates (t, x_1..x_k), g = diag(1, e^{2t} I_k).

    With the exponential warping this is hyperbolic space of curvature -1 in
    horospherical coordinates.
    """
    fiber_dim = _chart_size("fiber_dim", fiber_dim, 0, MAX_CHART_DIM - 1)

    def metric(p: np.ndarray) -> np.ndarray:
        g = np.tile(np.eye(fiber_dim + 1), p.shape[:-1] + (1, 1))
        g[..., 1:, 1:] *= np.exp(2.0 * p[..., 0, None, None])
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
        z = p[..., 0::2] + 1j * p[..., 1::2]
        zbar = np.conj(z)
        s = (1.0 + _squared_norm(z, zbar).real)[..., None, None]
        h = (s * np.eye(n) - zbar[..., :, None] * z[..., None, :]) / (s * s)
        g = np.empty(p.shape[:-1] + (2 * n, 2 * n))
        g[..., 0::2, 0::2] = h.real
        g[..., 1::2, 1::2] = h.real
        g[..., 0::2, 1::2] = h.imag
        g[..., 1::2, 0::2] = -h.imag
        return g

    box = np.repeat([[-half_width, half_width]], 2 * n, axis=0)
    return ChartMetric(2 * n, metric, box, f"fubini-study-{n}")


def heisenberg_chart(half_width: float = 1.6) -> ChartMetric:
    """Standard Sasakian metric on R^5 with phi-sectional curvature -3.

    Coordinates (x_1, y_1, x_2, y_2, z), contact form
    eta = (dz - y_1 dx_1 - y_2 dx_2)/2 and g = (dx^2 + dy^2)/4 + eta (x) eta.
    """
    g = 0.25 * np.diag([1.0, 1.0, 1.0, 1.0, 0.0])

    def metric(p: np.ndarray) -> np.ndarray:
        eta = _heisenberg_eta(p)
        return g + eta[..., :, None] * eta[..., None, :]

    box = np.repeat([[-half_width, half_width]], 5, axis=0)
    return ChartMetric(5, metric, box, "heisenberg-5")


def _heisenberg_eta(p: np.ndarray) -> np.ndarray:
    zero = np.zeros_like(p[..., 0])
    return 0.5 * np.stack([-p[..., 1], zero, -p[..., 3], zero, zero + 1.0], axis=-1)


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
    """Quaternion product over the last axis."""
    a0, a1, a2, a3 = np.moveaxis(a, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def _quaternion_conjugate(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a[..., :1], -a[..., 1:]], axis=-1)


def _stereo_to_sphere(y: np.ndarray, radius: float) -> np.ndarray:
    """Inverse stereographic projection onto the sphere |x| = radius."""
    r2 = radius * radius
    s = np.sum(y * y, axis=-1, keepdims=True)
    top = np.concatenate([2.0 * r2 * y, radius * (s - r2)], axis=-1)
    return top / (r2 + s)


def _sphere_to_stereo(x: np.ndarray, radius: float) -> np.ndarray:
    """Stereographic coordinates of a point on the sphere |x| = radius."""
    return radius * x[..., :-1] / (radius - x[..., -1:])


def coordinate_projection(indices, source_dim: int) -> callable:
    """The source coordinates ``indices``, in that order."""
    if not isinstance(indices, (list, tuple)):
        raise _BadParameter(f"indices: expected a list of coordinates, not {indices!r}")
    for i in indices:
        if not (_is_int(i) and 0 <= i < source_dim):
            raise _BadParameter(
                f"indices: {i!r} is not a coordinate of the {source_dim}-dimensional source chart"
            )
    idx = np.array(indices, dtype=int)

    def func(p: np.ndarray) -> np.ndarray:
        return p[..., idx]

    return func


def zero_padding(pad: int, source_dim: int, target_dim: int) -> callable:
    """The source coordinates followed by ``pad`` zeros."""
    if not (_is_int(pad) and 0 <= pad == target_dim - source_dim):
        raise _BadParameter(
            f"pad: {pad!r} does not take the {source_dim}-dimensional source chart to "
            f"the {target_dim}-dimensional target chart"
        )

    def func(p: np.ndarray) -> np.ndarray:
        return np.concatenate([p, np.zeros(p.shape[:-1] + (pad,), dtype=p.dtype)], axis=-1)

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

    def func(y: np.ndarray) -> np.ndarray:
        x = _stereo_to_sphere(y, 1.0)
        pad = np.zeros(x.shape[:-1] + (4 - n,))
        q1 = np.concatenate([x[..., :n], pad], axis=-1)
        q2 = np.concatenate([x[..., n:], pad], axis=-1)
        prod = _quaternion_product(q1, _quaternion_conjugate(q2))[..., :n]
        s1 = np.sum(q1 * q1, axis=-1, keepdims=True)
        s2 = np.sum(q2 * q2, axis=-1, keepdims=True)
        return _sphere_to_stereo(np.concatenate([prod, 0.5 * (s1 - s2)], axis=-1), 0.5)

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

    def space_form_spec(self, side_point: np.ndarray) -> SpaceFormSpec:
        """Model-curvature constants + structure at a point of the declared side."""
        if self.family is None or self.spaceform_side is None:
            raise HypothesisViolated(f"geometry {self.id!r} declares no space-form side")
        if self.structure_fn is None:
            raise HypothesisViolated(f"geometry {self.id!r} declares no structure operator")
        return spec_for(self.family, self.structure_fn(np.asarray(side_point, dtype=float)))

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

def _without_dims(builder):
    """``builder`` as the map table calls it, with the chart dimensions it does not read."""
    return lambda source_dim, target_dim, **params: builder(**params)


# Each map builder gets the dimensions of both charts; the fixed-size maps
# read them to name a parameter that does not fit.
_MAP_BUILDERS = {
    "coordinate-projection": lambda source_dim, target_dim, **params: coordinate_projection(
        **params, source_dim=source_dim
    ),
    "zero-padding": zero_padding,
    "identity": _without_dims(identity_map),
    "stereographic-embedding": _without_dims(stereographic_embedding),
    "hopf-quaternionic": _without_dims(partial(hopf, 4)),
    "hopf-complex": _without_dims(partial(hopf, 2)),
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


# The real-valued parameters of each section, which must be JSON numbers.
_CHART_REALS = ("scale", "radius", "half_width", "half_t", "half_x")
_REALS = {"source_chart": _CHART_REALS, "target_chart": _CHART_REALS, "map": ("radius",),
          "family": ("c", "alpha")}


def _check_value_types(desc) -> None:
    """DegenerateInput naming the first key of ``desc`` of the wrong JSON type:
    an ``id`` that is not a string, or a real-valued parameter or
    ``base_point`` entry that is not a number (a bool or a string, say)."""
    if not isinstance(desc, dict):
        raise DegenerateInput(f"a geometry description must be an object, not {desc!r}")
    if not isinstance(desc.get("id", ""), str):
        raise DegenerateInput(f"id must be a string, not {desc['id']!r}")
    point = desc.get("base_point")
    named = [(f"base_point[{i}]", v) for i, v in enumerate(point)] if isinstance(point, list) else []
    for key, names in _REALS.items():
        if isinstance(section := desc.get(key), dict):
            named += [(f"{key}.{name}", section[name]) for name in names if name in section]
    for name, value in named:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DegenerateInput(f"{name} must be a number, not {value!r}")


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
    except (DegenerateInput, TypeError, ValueError, OverflowError) as err:
        raise DegenerateInput(f"{key}: {err}") from None


def entry_from_description(desc: dict) -> CatalogEntry:
    """Build a CatalogEntry from a JSON-style description dictionary.

    Charts, maps and structures are named builtins with parameters; arbitrary
    user metric functions are out of scope for the file format. A structure
    takes its dimension from the chart of the space-form side. The map is
    evaluated once at the base point, so that bad map parameters fail here.
    Values of the wrong JSON type fail first (``_check_value_types``).
    """
    _check_value_types(desc)
    source = _built(_CHART_BUILDERS, desc, "source_chart")
    target = _built(_CHART_BUILDERS, desc, "target_chart")
    func = _built(_MAP_BUILDERS, desc, "map", source_dim=source.dim, target_dim=target.dim)
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
        declared_rank=_chart_size("declared_rank", desc["declared_rank"], 0, MAX_CHART_DIM),
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
    except (DimensionMismatch, IndexError, TypeError, ValueError, OverflowError) as err:
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

    A file that is missing or not JSON, holds a non-finite number (NaN, an
    infinity, 1e400) or a non-object where a section belongs, lacks a key,
    names an unknown builder, gives one a key or value it cannot take, or a
    non-integer rank or a base point of the wrong length, or whose map fails
    at the base point raises DegenerateInput naming the file and any key.
    """
    name = repr(os.fspath(path))

    def finite(text: str) -> float:
        if not np.isfinite(value := float(text)):
            raise DegenerateInput(f"geometry file {name} holds {text}, not a finite number")
        return value

    try:
        with open(path, encoding="utf-8") as fh:
            desc = json.load(fh, parse_constant=finite, parse_float=finite)
    except OSError as err:
        raise DegenerateInput(f"cannot read geometry file {name}: {err.strerror}") from None
    except ValueError as err:
        raise DegenerateInput(f"geometry file {name} is not valid JSON: {err}") from None
    try:
        return entry_from_description(desc)
    except KeyError as err:
        raise DegenerateInput(f"geometry file {name} lacks the key {err.args[0]!r}") from None
    except (DegenerateInput, DimensionMismatch, TypeError, ValueError, OverflowError) as err:
        raise DegenerateInput(f"geometry file {name}: {err}") from None
