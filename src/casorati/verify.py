"""Inequality verification: catalog geometries and synthetic coefficient fuzzing.

Each registered inequality bounds a normalized scalar curvature by a Casorati
optimum plus a curvature reference (measured, or a space-form model value).
On a geometry the engine evaluates both sides per point, tracks the Reeb-field
branch and the invariance class, and diagnoses equality. The synthetic fuzz
tests the Casorati part alone per random trial, since the reference cancels.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from . import catalog as _catalog
from .errors import (
    BranchUndetermined,
    DegenerateInput,
    HypothesisViolated,
)
from .framecore import Frame, StructureOperator, structure_norm_squared
from .measures import (
    ROLE_A,
    ROLE_B,
    ROLE_T,
    CasoratiReport,
    EqualityDiagnosis,
    FormCoefficients,
    _checked_seed,
    _is_int,
    closed_form,
    delta_casorati,
    delta_pair,
    diagnose_equality,
    form_stack,
    restricted_sum,
)
from .rmaps import (
    MapAtPoint,
    ScalarCurvaturePair,
    gauss_map_scalars,
    gauss_submersion_horizontal,
    gauss_submersion_vertical,
    oneill_A,
    oneill_T,
    second_fundamental_form,
)
from .spaceforms import CONTACT_FAMILIES, SpaceFormSpec

RESIDUAL_TOL = 1e-8
EQUALITY_RESIDUAL_TOL = 1e-7
XI_POSITION_TOL = 1e-8
INVARIANCE_TOL = 1e-8

VARIANTS = ("delta", "delta-hat")


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremInfo:
    """Bookkeeping for one registered inequality.

    side selects the subspace whose curvature is bounded (and the coefficient
    role): "map" -> range/horizontal with B, "sub-vert" -> fibers with T,
    "sub-hor" -> horizontal distribution with A.  model "none" keeps a
    measured curvature reference; "complex"/"sasakian" substitute space-form
    constants.  invariance restricts the structure class of the subspace.
    """

    theorem_id: str
    side: str
    model: str
    invariance: str

    @property
    def role(self) -> str:
        return {"map": ROLE_B, "sub-vert": ROLE_T, "sub-hor": ROLE_A}[self.side]

    @property
    def needs_xi(self) -> bool:
        return self.model == "sasakian"


def _registry() -> dict[str, TheoremInfo]:
    rows = [
        ("map-general", "map", "none", "generic"),
        ("map-gcsf", "map", "complex", "generic"),
        ("map-gcsf-invariant", "map", "complex", "invariant"),
        ("map-gcsf-antiinvariant", "map", "complex", "anti-invariant"),
        ("map-gssf", "map", "sasakian", "generic"),
        ("map-gssf-invariant", "map", "sasakian", "invariant"),
        ("map-gssf-antiinvariant", "map", "sasakian", "anti-invariant"),
        ("sub-vert-general", "sub-vert", "none", "generic"),
        ("sub-vert-gcsf", "sub-vert", "complex", "generic"),
        ("sub-vert-gcsf-inv", "sub-vert", "complex", "invariant"),
        ("sub-vert-gcsf-anti", "sub-vert", "complex", "anti-invariant"),
        ("sub-vert-gssf", "sub-vert", "sasakian", "generic"),
        ("sub-vert-gssf-inv", "sub-vert", "sasakian", "invariant"),
        ("sub-vert-gssf-anti", "sub-vert", "sasakian", "anti-invariant"),
        ("sub-hor-general", "sub-hor", "none", "generic"),
        ("sub-hor-gcsf", "sub-hor", "complex", "generic"),
        ("sub-hor-gssf", "sub-hor", "sasakian", "generic"),
    ]
    return {tid: TheoremInfo(tid, side, model, inv) for tid, side, model, inv in rows}


REGISTRY = _registry()
THEOREM_IDS = tuple(REGISTRY)


def theorem_info(theorem_id: str) -> TheoremInfo:
    try:
        return REGISTRY[theorem_id]
    except (KeyError, TypeError):  # TypeError: an unhashable tag of a geometry file
        known = ", ".join(THEOREM_IDS)
        raise DegenerateInput(f"unknown theorem {theorem_id!r}; know {known}") from None


# --------------------------------------------------------------------------
# branch detection
# --------------------------------------------------------------------------

def _frame_split(frame: Frame, vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    """g-norms of the rows of ``vectors``, of their projections onto the
    frame's span and of the rest, in one pass."""
    g = frame.inner.gram
    inside = vectors @ (frame.vectors @ g).T @ frame.vectors
    parts = (vectors, inside, vectors - inside)
    return tuple(np.sqrt(np.maximum(np.sum((v @ g) * v, axis=1), 0.0)) for v in parts)


@dataclass(frozen=True)
class XiPosition:
    """tangent/normal classification of the Reeb field against a subspace."""

    position: str  # "tangent" | "normal"
    projection_defect: float

    @property
    def tangent(self) -> bool:
        return self.position == "tangent"


def xi_position(xi: np.ndarray, frame: Frame) -> XiPosition:
    """Classify the Reeb field as tangent or normal to the frame's span,
    within XI_POSITION_TOL relative.

    Raises BranchUndetermined for oblique positions: the inequalities only
    cover the two clean branches.
    """
    (size,), (normal_defect,), (tangent_defect,) = _frame_split(
        frame, np.asarray(xi, dtype=float)[None, :]
    )
    scale = 1.0 + size
    if tangent_defect <= XI_POSITION_TOL * scale:
        return XiPosition("tangent", float(tangent_defect))
    if normal_defect <= XI_POSITION_TOL * scale:
        return XiPosition("normal", float(normal_defect))
    raise BranchUndetermined(
        f"Reeb field is oblique: tangent defect {tangent_defect:.3e}, "
        f"normal defect {normal_defect:.3e}"
    )


@dataclass(frozen=True)
class InvarianceClass:
    """Structure class of a subspace: invariant, anti-invariant, or generic.

    leakage_defect: largest structure image component outside the subspace
    (zero for invariant subspaces); retention_defect: largest component inside
    (zero for anti-invariant ones).  pnorm2 is the squared Frobenius norm of
    the tangential structure restriction.
    """

    label: str
    leakage_defect: float
    retention_defect: float
    pnorm2: float


def classify_invariance(frame: Frame, op: StructureOperator) -> InvarianceClass:
    """The structure class of the frame's span under ``op``, within INVARIANCE_TOL relative."""
    pnorm2 = structure_norm_squared(frame, op)
    sizes, inside, outside = _frame_split(frame, frame.vectors @ op.matrix.T)
    scale = 1.0 + sizes.max(initial=0.0)
    leakage = float(outside.max(initial=0.0))
    retention = float(inside.max(initial=0.0))
    if retention <= INVARIANCE_TOL * scale:
        # Includes the trivial operator, whose images vanish identically.
        return InvarianceClass("anti-invariant", leakage, retention, pnorm2)
    if leakage <= INVARIANCE_TOL * scale:
        return InvarianceClass("invariant", leakage, retention, pnorm2)
    return InvarianceClass("generic", leakage, retention, pnorm2)


# --------------------------------------------------------------------------
# right-hand sides
# --------------------------------------------------------------------------

def model_reference_part(
    c1: float, c2: float, c3: float, r: int, pnorm2: float, xi_tangent: bool
) -> float:
    """Space-form contribution to the bound: c1 + 3 c2 |P|^2/(r(r-1)) [- 2 c3/r].

    r(r-1) times this is 2 scal of the model tensor over an orthonormal
    r-frame, where |P|^2 is the squared norm of the structure operator
    restricted to the frame; the c3 term applies exactly when xi lies in the
    frame's span. It cancels from the synthetic fuzz, so only catalog
    geometries, whose curvature is measured on a chart, test it.
    """
    return c1 + 3.0 * c2 * pnorm2 / (r * (r - 1)) - 2.0 * c3 * xi_tangent / r


def rhs_for(
    theorem: str,
    variant: str,
    r: int,
    casorati: CasoratiReport,
    constants: tuple[float, float, float] | None = None,
    pnorm2: float | None = None,
    xi: XiPosition | None = None,
    rho_reference: float | None = None,
) -> float:
    """Right-hand side of the selected inequality variant.

    General theorems need rho_reference (the measured curvature of the
    comparison space); model theorems need the space-form ``constants``
    (c1, c2, c3), as given by ``SpaceFormSpec.constants`` or
    ``family_constants``.  Invariant specializations substitute |P|^2 = r,
    or r - 1 when xi is tangent (phi xi = 0); anti-invariant ones substitute 0.
    """
    info = theorem_info(theorem)
    if variant not in VARIANTS:
        raise DegenerateInput(f"variant must be one of {VARIANTS}, got {variant!r}")
    if r < 3:
        raise HypothesisViolated(f"inequalities need subspace dimension r >= 3, got {r}")
    delta = casorati.delta_C if variant == "delta" else casorati.delta_hat_C

    if info.model == "none":
        if rho_reference is None:
            raise DegenerateInput(f"{theorem} needs the comparison curvature rho_reference")
        return float(delta + rho_reference)

    if constants is None:
        raise DegenerateInput(f"{theorem} needs space-form constants (c1, c2, c3)")
    c1, c2, c3 = constants

    if info.model == "sasakian":
        if xi is None:
            raise BranchUndetermined(f"{theorem} needs the Reeb-field position")
        tangent = xi.tangent
    else:
        tangent = False
        c3 = 0.0

    if info.invariance == "invariant":
        pn2 = float(r - 1 if tangent else r)
    elif info.invariance == "anti-invariant":
        pn2 = 0.0
    else:
        if pnorm2 is None:
            raise DegenerateInput(f"{theorem} needs |P|^2 of the subspace")
        pn2 = float(pnorm2)

    return float(delta + model_reference_part(c1, c2, c3, r, pn2, tangent))


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    theorem: str
    variant: str
    lhs: float
    rhs: float
    residual: float
    holds: bool
    xi_branch: str  # "tangent" | "normal" | "absent"
    invariance: str
    equality: EqualityDiagnosis
    point: tuple
    casorati: CasoratiReport

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "variant": self.variant,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "holds": self.holds,
            "branch": {"xi": self.xi_branch, "invariance": self.invariance},
            "equality": self.equality.to_json(),
            "point": list(self.point),
            "casorati": self.casorati.to_json(),
        }


# --------------------------------------------------------------------------
# verification on catalog geometries
# --------------------------------------------------------------------------

class PointEvaluation:
    """Derived data of one geometry at one point, each piece computed once, on first use.

    Per side ("map", "sub-vert", "sub-hor"): coefficients, Gauss pair, frame,
    Casorati report, equality diagnosis, invariance class, Reeb position. The
    map data and the space-form spec are shared by the sides. Errors surface
    in the order the consumer asks.
    """

    def __init__(self, entry, point, seed: int = 0) -> None:
        self.entry = entry
        self.point = np.asarray(point, dtype=float)
        self.seed = seed
        self._memo: dict[tuple[str, str], object] = {}

    def _once(self, what: str, side: str, fn, *args, **kwargs):
        key = (what, side)
        if key not in self._memo:
            self._memo[key] = fn(*args, **kwargs)
        return self._memo[key]

    @cached_property
    def map(self) -> MapAtPoint:
        return self.entry.instantiate(self.point)

    def _side(self, side: str):
        """(coefficient function, Gauss identity, frame) of a side."""
        mp = self.map
        if side == "map":
            return second_fundamental_form, gauss_map_scalars, mp.range_frame
        if side == "sub-vert":
            return oneill_T, gauss_submersion_vertical, mp.vertical_frame
        return oneill_A, gauss_submersion_horizontal, mp.horizontal_frame

    def frame(self, side: str) -> Frame:
        return self._side(side)[2]

    def coefficients(self, side: str) -> FormCoefficients:
        return self._once("coefficients", side, self._side(side)[0], self.map)

    def pair(self, side: str) -> ScalarCurvaturePair:
        gauss = self._side(side)[1]
        return self._once("pair", side, gauss, self.map, self.coefficients(side))

    def casorati(self, side: str) -> CasoratiReport:
        return self._once(
            "casorati", side, delta_casorati, self.coefficients(side), seed=self.seed, certify=True
        )

    def equality(self, side: str) -> EqualityDiagnosis:
        return self._once("equality", side, diagnose_equality, self.coefficients(side))

    @cached_property
    def spec(self) -> SpaceFormSpec:
        entry = self.entry
        side_point = self.point if entry.spaceform_side == "source" else self.map.image
        return entry.space_form_spec(side_point)

    def invariance(self, side: str) -> InvarianceClass:
        return self._once(
            "invariance", side, classify_invariance, self.frame(side), self.spec.structure
        )

    def xi(self, side: str) -> XiPosition:
        return self._once("xi", side, xi_position, self.spec.structure.xi, self.frame(side))


def _require_space_form(info: TheoremInfo, entry) -> None:
    theorem = info.theorem_id
    if info.model == "sasakian" and (entry.family is None or entry.family.name not in CONTACT_FAMILIES):
        raise HypothesisViolated(
            f"{theorem} needs a contact-type space form; geometry {entry.id!r} "
            f"declares family {None if entry.family is None else entry.family.name!r}"
        )
    if info.model == "complex":
        if entry.family is None:
            raise HypothesisViolated(f"{theorem} needs a declared space-form family")
        if entry.family.name in CONTACT_FAMILIES:
            raise HypothesisViolated(
                f"{theorem} reads complex-type constants; geometry {entry.id!r} "
                f"declares the contact family {entry.family.name!r}"
            )
    if info.side == "map" and info.model != "none" and entry.spaceform_side == "source":
        raise HypothesisViolated(
            f"{theorem} bounds the range by the target's space form; geometry "
            f"{entry.id!r} declares its space form on the source"
        )


def _resolve_points(entry, points, seed):
    if points is None:
        return [np.asarray(entry.base_point, dtype=float)]
    if _is_int(points) and points >= 1:
        rng = np.random.default_rng(seed)
        sampler = entry.source_chart.interior_sampler(rng, margin=0.1)
        return [sampler() for _ in range(int(points))]
    try:
        resolved = [np.asarray(p, dtype=float) for p in points]
    except (TypeError, ValueError):  # a count below 1, a bool, a float, a point that is not numbers
        resolved = []
    if not resolved:
        raise DegenerateInput(f"points must be a positive count or some points, not {points!r}")
    return resolved


def verify_geometry(
    theorem: str | Sequence[str],
    geometry,
    points=None,
    seed: int = 0,
    tolerance: float = RESIDUAL_TOL,
) -> list[InequalityReport]:
    """Evaluate both inequality variants on a catalog geometry.

    ``theorem`` is one registry id or a sequence of ids; ``geometry`` is a
    catalog id or a CatalogEntry; ``points`` is None (base point), a positive
    integer (that many interior samples), or explicit points. Reports come
    theorem by theorem, each over all points, and every point is evaluated once
    for all theorems. Raises HypothesisViolated naming the first failing
    precondition, and DegenerateInput for no theorem, a ``theorem`` that is
    neither an id nor a sequence, a ``geometry`` that is neither an id nor
    a CatalogEntry, no point, a ``tolerance`` that is not a finite real >=
    0, or a ``seed`` that is not an integer >= 0.
    """
    seed = _checked_seed(seed)
    if not (isinstance(tolerance, Real) and 0.0 <= tolerance < np.inf):
        raise DegenerateInput(f"tolerance must be finite and >= 0, got {tolerance!r}")
    ids = [theorem] if isinstance(theorem, str) else theorem
    if not isinstance(ids, Iterable):
        raise DegenerateInput(f"theorem must be an id or a sequence of ids, not {theorem!r}")
    infos = [theorem_info(t) for t in ids]
    if not infos:
        raise DegenerateInput("no theorem to verify")
    entry = _catalog.get(geometry) if isinstance(geometry, str) else geometry
    if not isinstance(entry, _catalog.CatalogEntry):
        raise DegenerateInput(f"geometry must be a catalog id or a CatalogEntry, not {geometry!r}")
    evaluations = None
    reports: list[InequalityReport] = []
    for info in infos:
        _require_space_form(info, entry)
        if evaluations is None:
            evaluations = [
                PointEvaluation(entry, p, seed) for p in _resolve_points(entry, points, seed)
            ]
        for ev in evaluations:
            reports.extend(_reports_at(info, ev, tolerance))
    return reports


def _reports_at(info: TheoremInfo, ev: PointEvaluation, tolerance: float) -> list[InequalityReport]:
    theorem, side = info.theorem_id, info.side
    if side != "map":
        ev.map.require_submersion(theorem)
    coeffs = ev.coefficients(side)
    pair = ev.pair(side)
    r = coeffs.r
    if r < 3:
        raise HypothesisViolated(
            f"{theorem} needs subspace dimension r >= 3; geometry "
            f"{ev.entry.id!r} has r = {r}"
        )
    rep = ev.casorati(side)

    if side == "sub-hor":
        # The bound controls the integrability-corrected curvature; the
        # measured pair still reports the plain horizontal/base scalars.
        lhs = pair.rho_right - 3.0 * rep.C / (r - 1)
    else:
        lhs = pair.rho_left

    klass = xi = None
    if info.model != "none":
        klass = ev.invariance(side)
        if info.invariance != "generic" and klass.label != info.invariance:
            raise HypothesisViolated(
                f"{theorem} needs an {info.invariance} subspace; geometry "
                f"{ev.entry.id!r} classifies as {klass.label} "
                f"(leakage {klass.leakage_defect:.2e}, retention {klass.retention_defect:.2e})"
            )
        if info.needs_xi:
            xi = ev.xi(side)

    equality = ev.equality(side)
    reports = []
    for variant in VARIANTS:
        rhs = rhs_for(
            theorem,
            variant,
            r,
            rep,
            constants=None if klass is None else ev.spec.constants(),
            pnorm2=None if klass is None else klass.pnorm2,
            xi=xi,
            rho_reference=pair.rho_right if info.model == "none" else None,
        )
        residual = rhs - lhs
        reports.append(
            InequalityReport(
                theorem=theorem,
                variant=variant,
                lhs=float(lhs),
                rhs=float(rhs),
                residual=float(residual),
                holds=bool(residual >= -tolerance * (1.0 + abs(rhs))),
                xi_branch="absent" if xi is None else xi.position,
                invariance="generic" if klass is None else klass.label,
                equality=equality,
                point=tuple(float(x) for x in ev.point),
                casorati=rep,
            )
        )
    return reports


# --------------------------------------------------------------------------
# synthetic fuzzing
# --------------------------------------------------------------------------

N_RANDOM_NORMALS = 8
EQUALITY_STRIDE = 16


def _synthetic_casorati(coeffs: np.ndarray, rng: np.random.Generator, symmetric: bool):
    """Vectorized C and the two delta values of every trial, coeffs (n, s, r, r).

    Exact extrema where ``closed_form`` has them, unproved; otherwise the best
    of the candidates: eigenvectors of G, the axes, and a few random
    directions, all from one FormStack of the group.  The candidate infimum
    upper-bounds the true infimum, so any failure reported downstream is
    genuine; equality-shape data has an axis as its optimal normal, so the
    bound is exact there.
    """
    n, s, r, _ = coeffs.shape
    stack = form_stack(coeffs)
    c_val = stack.norm / r
    # Drawn for every group, so that the data of later groups does not depend
    # on which path this one took.
    rand = rng.standard_normal((n, N_RANDOM_NORMALS, r))

    closed = closed_form(stack, antisymmetric=not symmetric)
    if closed is not None:
        normals = np.stack(closed[:2], axis=1)
    else:
        _, eigvecs = np.linalg.eigh(stack.gram)
        rand /= np.linalg.norm(rand, axis=2, keepdims=True)
        axes = np.broadcast_to(np.eye(r), (n, r, r))
        normals = np.concatenate([eigvecs.transpose(0, 2, 1), axes, rand], axis=1)
    values = restricted_sum(stack, normals)

    cl_inf = values.min(axis=1) / (r - 1)
    cl_sup = values.max(axis=1) / (r - 1)
    return (c_val, *delta_pair(c_val, cl_inf, cl_sup, r))


def _draw_coefficients(rng, n, s, r, symmetric, equality_mask):
    raw = rng.standard_normal((n, s, r, r))
    flip = raw.transpose(0, 1, 3, 2)
    coeffs = 0.5 * (raw + flip) if symmetric else 0.5 * (raw - flip)
    if equality_mask.any():
        if symmetric:
            shape = np.ones(r)
            shape[-1] = 2.0
            amps = rng.standard_normal((int(equality_mask.sum()), s))
            coeffs[equality_mask] = amps[:, :, None, None] * np.diag(shape)
        else:
            coeffs[equality_mask] = 0.0
    return coeffs


def _fuzzes_symmetric(theorem: str) -> bool:
    """All that ``verify_synthetic`` reads of its theorem id: symmetric (B, T) or A data."""
    return theorem_info(theorem).role != ROLE_A


def verify_synthetic_each(theorems: list[str], trials: int, seed: int = 0) -> list[dict]:
    """``verify_synthetic`` of each id, with one fuzz run per kind of data drawn.

    Ids that draw the same data (``_fuzzes_symmetric``) share one run, and
    each summary is relabelled with its own id: two runs at most.
    """
    runs: dict[bool, dict] = {}
    summaries = []
    for theorem in theorems:
        key = _fuzzes_symmetric(theorem)
        if key not in runs:
            runs[key] = verify_synthetic(theorem, trials, seed=seed)
        summaries.append(dict(runs[key], theorem=theorem))
    return summaries


def verify_synthetic(theorem: str, trials: int, seed: int = 0) -> dict:
    """Fuzz the Casorati bound behind one inequality on random coefficient data.

    Every inequality is a traced Gauss identity plus the algebraic bound on
    delta_C and delta-hat_C. The identity gives the bounded curvature as a
    reference term (the measured comparison curvature, or the space-form term
    of ``model_reference_part``) plus (||tr B||^2 - rC)/(r(r-1)) for the B and
    T roles, or minus 3C/(r-1) for the A role. The reference term enters both
    sides alike and cancels, so the theorem id selects only the role, and the
    residual of each trial and variant is

        delta - (||tr B||^2 - rC)/(r(r-1))    (B and T roles)
        delta + 3C/(r-1)                       (A role).

    Both delta values are nonnegative, so the A residual, and with it the
    sub-hor fuzz, holds by algebra. The model term is tested only where
    curvature is measured on a chart (``verify_geometry``). Every 16th trial
    injects the equality shape. Returns {"theorem", "trials", "failures",
    "min_residual", "equality_hits"}; a nonzero failure count means a genuine
    counterexample of the encoded formulas (the candidate optimum never
    under-reports the right side). Raises DegenerateInput unless ``trials``
    is an integer >= 1 and ``seed`` an integer >= 0.
    """
    if not (_is_int(trials) and trials >= 1):
        raise DegenerateInput(f"trials must be a positive integer, got {trials!r}")
    seed = _checked_seed(seed)
    symmetric = _fuzzes_symmetric(theorem)
    rng = np.random.default_rng(seed)
    r_arr = rng.integers(3, 7, size=trials)
    s_arr = rng.integers(1, 5, size=trials)
    equality_mask_all = np.arange(trials) % EQUALITY_STRIDE == 0

    failures = 0
    min_residual = np.inf
    equality_hits = 0

    for r in np.unique(r_arr):
        for s in np.unique(s_arr):
            mask = (r_arr == r) & (s_arr == s)
            n = int(mask.sum())
            if n == 0:
                continue
            r_i, s_i = int(r), int(s)
            eq_mask = equality_mask_all[mask]
            coeffs = _draw_coefficients(rng, n, s_i, r_i, symmetric, eq_mask)
            c_val, delta, dhat = _synthetic_casorati(coeffs, rng, symmetric)

            if symmetric:
                traces = np.einsum("tsaa->ts", coeffs)
                trace_sq = np.einsum("ts,ts->t", traces, traces)
                lhs = (trace_sq - r_i * c_val) / (r_i * (r_i - 1))
            else:
                lhs = -3.0 * c_val / (r_i - 1)

            for bound in (delta, dhat):
                residual = bound - lhs
                scale = 1.0 + np.abs(bound)
                failures += int(np.sum(residual < -RESIDUAL_TOL * scale))
                min_residual = min(min_residual, float(residual.min()))
                if bound is delta:
                    equality_hits += int(
                        np.sum(np.abs(residual) <= EQUALITY_RESIDUAL_TOL * scale)
                    )

    return {
        "theorem": theorem,
        "trials": int(trials),
        "failures": int(failures),
        "min_residual": float(min_residual),
        "equality_hits": int(equality_hits),
    }
