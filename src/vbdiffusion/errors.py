"""Structured exceptions raised by the pipeline.

Every error that corresponds to a detectable precondition violation or a
well-defined numerical failure gets its own class so callers (and the CLI)
can react to the category rather than parse messages.
"""


class PipelineError(Exception):
    """Base class for all structured errors in this package."""


class InversionFailure(PipelineError):
    """Iterative inversion of a CDF did not reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidCovariance(PipelineError):
    """Covariance matrix is not symmetric positive definite."""


class WrongManifold(PipelineError):
    """Point cloud does not carry the structure the operation needs."""


class KTooLarge(PipelineError):
    """Requested more neighbors than there are points."""

    def __init__(self, k, n_points):
        super().__init__(f"k={k} exceeds the number of points N={n_points}")
        self.k = k
        self.n_points = n_points


class DuplicatePoints(PipelineError):
    """A pilot bandwidth came out zero because of exactly repeated points."""

    def __init__(self, indices):
        idx = list(indices)
        super().__init__(f"zero pilot bandwidth at point indices {idx[:10]}"
                         + ("..." if len(idx) > 10 else ""))
        self.indices = idx


class DisconnectedGraph(PipelineError):
    """Kernel support splits into several connected components."""

    def __init__(self, component_sizes):
        sizes = sorted(component_sizes, reverse=True)
        super().__init__(f"kernel support has {len(sizes)} connected components "
                         f"with sizes {sizes[:10]}" + ("..." if len(sizes) > 10 else ""))
        self.component_sizes = sizes


class SolverFailure(PipelineError):
    """The eigensolver's factor or run failed; ``iterations``: the run's budget."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class DegenerateEigenvector(PipelineError):
    """An eigenvector has (numerically) zero norm and cannot be scaled."""


class AlignmentAmbiguous(PipelineError):
    """Orthogonal alignment is not determined (rank-deficient overlap)."""

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class EmptyMask(PipelineError):
    """A mask selected no points."""


class NoLinearRegion(PipelineError):
    """Kernel-sum curve shows no region of positive log-log slope."""


class NoLatent(PipelineError):
    """Operation needs latent (intrinsic) coordinates the cloud does not have."""
