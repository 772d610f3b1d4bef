"""Error types shared across the toolkit.

Every error maps to a fixed CLI exit code other than 1, which only a failed
inequality (a counterexample) gives.
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
    """A frame, second fundamental form or model curvature tensor fails its check."""


# CLI exit codes. 0 = success and 1 = a verified inequality failed (a
# counterexample); no error exits 1. Each error exits with the code of the
# most specific class that EXIT_CODES maps: 2 = bad input (a point off the
# chart or where the metric is near-singular, a malformed geometry,
# mismatched dimensions, numbers that overflow, an --output path that cannot
# be written), 3 = rank drop, 4 = hypotheses not met, 5 = xi
# oblique, 6 = the extremum lemma does not apply, 7 = a consistency gate
# failed (a traced Gauss identity, a frame or second-fundamental-form check,
# a model curvature check), and 8 = any other toolkit error. An exception
# outside the toolkit's errors (a MemoryError, a numpy error) exits
# EXIT_INTERNAL = 9 from the CLI, so that it cannot read as a counterexample.
EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INTERNAL = 9

EXIT_CODES: dict[type[CasoratiError], int] = {
    OutOfDomain: 2,
    DegenerateInput: 2,
    DimensionMismatch: 2,
    NearSingularMetric: 2,
    RankDrop: 3,
    HypothesisViolated: 4,
    BranchUndetermined: 5,
    ProvisoViolated: 6,
    IndefiniteRestriction: 6,
    GaussResidualExceeded: 7,
    ValidationFailed: 7,
    CasoratiError: 8,
}


def exit_code_for(err: CasoratiError) -> int:
    """Exit code of the most specific class of ``err`` that EXIT_CODES maps."""
    return next(EXIT_CODES[cls] for cls in type(err).__mro__ if cls in EXIT_CODES)
