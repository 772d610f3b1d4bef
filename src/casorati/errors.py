"""Error types shared across the toolkit.

Each error that the CLI can surface maps to a fixed process exit code; the
remaining ones indicate misuse of the library API or inconsistent inputs.
"""

from __future__ import annotations


class CasoratiError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInput(CasoratiError):
    """Vectors that should be independent are rank-deficient within tolerance."""


class DimensionMismatch(CasoratiError):
    """Operands live in different dimensions or frames of different sizes."""


class OutOfDomain(CasoratiError):
    """A sample point leaves a chart's validity box (or its margin)."""


class NearSingularMetric(CasoratiError):
    """The metric at a point is too ill-conditioned to differentiate."""


class RankDrop(CasoratiError):
    """Numerical rank of a map derivative differs from the declared rank."""


class GaussResidualExceeded(CasoratiError):
    """A traced Gauss identity failed, signalling inconsistent inputs."""


class HypothesisViolated(CasoratiError):
    """A theorem's hypotheses are not met by the supplied geometry."""


class BranchUndetermined(CasoratiError):
    """The structure vector field is neither tangent nor normal within tolerance."""


class ProvisoViolated(CasoratiError):
    """The extremum lemma's coefficient relation fails (lambda1 <= r - 2)."""


class IndefiniteRestriction(CasoratiError):
    """The constrained Hessian has a negative direction: no finite minimum."""


class ValidationFailed(CasoratiError):
    """A model curvature tensor disagrees with the chart beyond tolerance."""


# CLI exit codes. 0 = success, 1 = a verified inequality failed (counterexample),
# 2 = bad input (a point off the chart, a malformed geometry, mismatched dimensions).
EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1

EXIT_CODES: dict[type[CasoratiError], int] = {
    OutOfDomain: 2,
    DegenerateInput: 2,
    DimensionMismatch: 2,
    RankDrop: 3,
    HypothesisViolated: 4,
    BranchUndetermined: 5,
    ProvisoViolated: 6,
}


def exit_code_for(err: BaseException) -> int:
    """Exit code for an error raised during a CLI run (default 1)."""
    for cls, code in EXIT_CODES.items():
        if isinstance(err, cls):
            return code
    return EXIT_COUNTEREXAMPLE
