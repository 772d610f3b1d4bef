"""Frame-level linear algebra.

Everything downstream works pointwise with orthonormal frames of subspaces:
orthonormalization against an arbitrary inner product and the squared norm
of a structure operator restricted to a frame,

    ||P||^2 = sum_{i,j} <e_i, op(e_j)>^2.

All objects are immutable value types holding read-only copies of their
arrays; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch

# Orthonormality tolerance of every Frame, whether its rows come from an SVD
# in orthonormal coordinates (the frames of a map) or from gram_schmidt.
ORTHONORMAL_TOL = 1e-9
GRAM_SYMMETRY_TOL = 1e-12
# gram_schmidt rejects inputs whose g-whitened sigma_min <= RANK_TOL * sigma_max.
RANK_TOL = 1e-8
# Most coordinates a chart, and so an inner product, may have. Up to here
# ORTHONORMAL_TOL is safe in double precision, and riemann_at's (n, n, n, n)
# curvature arrays stay small: 8 MiB each at n = 32, where a point peaks at
# 89 MiB (32 MiB of stencil metrics beside about seven such arrays) and takes
# 0.08 s, against 14 MiB and 0.015 s at n = 20 (2-core x86-64, numpy 2.4).
# christoffel reads riemann_at's symbols, so it costs the same.
MAX_CHART_DIM = 32


@dataclass(frozen=True)
class InnerProduct:
    """A positive-definite symmetric bilinear form on R^dim (a metric at a point)."""

    gram: np.ndarray

    def __post_init__(self) -> None:
        gram = np.array(self.gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise DimensionMismatch(f"gram matrix must be square, got {gram.shape}")
        if gram.shape[0] > MAX_CHART_DIM:
            raise DimensionMismatch(f"dimension {gram.shape[0]} exceeds cap {MAX_CHART_DIM}")
        if not np.all(np.isfinite(gram)):
            raise DegenerateInput("gram matrix is not finite")
        scale = max(1.0, float(np.abs(gram).max()))
        if np.abs(gram - gram.T).max() > GRAM_SYMMETRY_TOL * scale:
            raise DegenerateInput("gram matrix is not symmetric")
        if np.linalg.eigvalsh(gram).min() <= 0.0:
            raise DegenerateInput("gram matrix is not positive definite")
        object.__setattr__(self, "gram", gram)
        gram.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @classmethod
    def euclidean(cls, dim: int) -> "InnerProduct":
        return cls(np.eye(dim))


@dataclass(frozen=True)
class Frame:
    """An orthonormal list of coordinate vectors with respect to ``inner``.

    ``vectors`` has shape (count, dim); row i is the i-th frame vector e_i.
    """

    vectors: np.ndarray
    inner: InnerProduct

    def __post_init__(self) -> None:
        vec = np.atleast_2d(np.array(self.vectors, dtype=float))
        if vec.shape[1] != self.inner.dim:
            raise DimensionMismatch(
                f"frame vectors have dim {vec.shape[1]}, inner product {self.inner.dim}"
            )
        if vec.shape[0]:
            gram = vec @ self.inner.gram @ vec.T
            defect = np.abs(gram - np.eye(vec.shape[0])).max()
            if defect > ORTHONORMAL_TOL:
                raise DegenerateInput(f"frame is not orthonormal (defect {defect:.2e})")
        object.__setattr__(self, "vectors", vec)
        vec.setflags(write=False)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class StructureOperator:
    """An almost-complex J or almost-contact (phi, xi, eta) operator on R^dim.

    For kind "almost-complex": matrix^2 = -I.
    For kind "almost-contact": matrix^2 = -I + xi eta^T with eta(xi) = 1,
    matrix @ xi = 0 and eta @ matrix = 0; eta is stored as a covector so the
    identities make sense for non-Euclidean metrics (eta = g xi).
    Kind "trivial" is the zero operator in any dimension; it stands in where a
    model formula carries a structure term with a vanishing coefficient (real
    space forms).
    """

    matrix: np.ndarray
    kind: str
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None

    STRUCTURE_TOL = 1e-9

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("structure matrix must be square")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)
        dim = m.shape[0]
        eye = np.eye(dim)
        if self.kind == "trivial":
            if m.any():
                raise DegenerateInput("trivial structure must be the zero matrix")
        elif self.kind == "almost-complex":
            if np.abs(m @ m + eye).max() > self.STRUCTURE_TOL:
                raise DegenerateInput("J^2 != -I for almost-complex structure")
        elif self.kind == "almost-contact":
            if self.xi is None or self.eta is None:
                raise DegenerateInput("almost-contact structure needs xi and eta")
            xi = np.array(self.xi, dtype=float)
            eta = np.array(self.eta, dtype=float)
            if xi.shape != (dim,) or eta.shape != (dim,):
                raise DimensionMismatch("xi/eta have wrong shape")
            defects = (
                np.abs(m @ m + eye - np.outer(xi, eta)).max(),
                abs(eta @ xi - 1.0),
                np.abs(m @ xi).max(),
                np.abs(eta @ m).max(),
            )
            if max(defects) > self.STRUCTURE_TOL:
                raise DegenerateInput(
                    f"almost-contact identities violated (defects {defects})"
                )
            object.__setattr__(self, "xi", xi)
            object.__setattr__(self, "eta", eta)
            xi.setflags(write=False)
            eta.setflags(write=False)
        else:
            raise DegenerateInput(f"unknown structure kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def gram_schmidt(raw_vectors: np.ndarray, inner: InnerProduct) -> Frame:
    """Orthonormalize ``raw_vectors`` (rows) against ``inner``.

    Modified Gram-Schmidt with one re-orthogonalization pass. Raises
    DegenerateInput when the input is rank-deficient within tolerance.
    """
    vec = np.atleast_2d(np.asarray(raw_vectors, dtype=float)).copy()
    if vec.shape[1] != inner.dim:
        raise DimensionMismatch("vector dim does not match inner product dim")
    if vec.shape[0] > vec.shape[1]:
        raise DegenerateInput("more vectors than ambient dimension")

    # Scale-free rank check before any elimination: the singular values of
    # the g-whitened vectors (rows of vec L with g = L L^T).
    if vec.shape[0] > 0:
        sigma = np.linalg.svd(vec @ np.linalg.cholesky(inner.gram), compute_uv=False)
        if sigma[-1] <= RANK_TOL * sigma[0]:
            raise DegenerateInput("input vectors are (numerically) dependent")

    g = inner.gram
    out = np.empty_like(vec)
    for i in range(vec.shape[0]):
        v = vec[i]
        for _pass in range(2):  # MGS + one re-orthogonalization pass
            for j in range(i):
                v = v - (out[j] @ g @ v) * out[j]
        nrm = np.sqrt(v @ g @ v)
        if nrm < 1e-12:
            raise DegenerateInput("vector collapsed during orthonormalization")
        out[i] = v / nrm
    return Frame(out, inner)


def forms_on_frames(forms: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """[c, i, j] = sum_{k,l} first[i, k] forms[c, k, l] second[j, l]: each bilinear
    form of the (c, n, n) stack on every pair of rows of ``first`` and ``second``.

    Two matrix products, ``first`` first: c k1 n (n + k2) multiplications
    where one pass over the whole index product takes c k1 k2 n^2.
    """
    return first @ forms @ second.T


def structure_norm_squared(frame: Frame, op: StructureOperator) -> float:
    """||P||^2 = sum_{i,j} <e_i, op e_j>^2 over the frame; lies in [0, r]."""
    if op.dim != frame.dim:
        raise DimensionMismatch("structure operator dim does not match frame dim")
    p = frame.vectors @ frame.inner.gram @ (op.matrix @ frame.vectors.T)
    return float(np.sum(p * p))
