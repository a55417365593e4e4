"""Variable-bandwidth diffusion kernels for operator estimation from data.

Builds discrete approximations of Laplacian and gradient-flow generators
from point clouds using Gaussian kernels whose bandwidth adapts to the
sampling density, with automatic scale selection and analytic references
for validation.
"""

from .density import (BandwidthProfile, bandwidth_profile, c_constants,
                      kde_pilot, pilot_bandwidth)
from .errors import (AlignmentAmbiguous, DegenerateEigenvector,
                     DisconnectedGraph, DuplicatePoints, EmptyMask,
                     InvalidCovariance, KTooLarge, NoLatent, NoLinearRegion,
                     PipelineError, SolverFailure, WrongManifold)
from .harness import ExperimentConfig, ResultTable, run_experiment
from .kernel import (GeneratorMatrices, apply_generator, build_generator,
                     kernel_matrix)
from .neighbors import NeighborGraph, SupportPairs, knn, symmetrized_support
from .pointcloud import (PointCloud, gen_circle_from_density,
                         gen_circle_nonuniform, gen_circle_uniform,
                         gen_gaussian_nice_1d, gen_gaussian_random,
                         gen_sphere_nonuniform, gen_torus_grid, perturb_circle)
from .spectral import (Spectrum, align_orthogonal, eigs_near_zero,
                       least_squares_map, mse, scale_sqrtN)
from .tuning import TuningCurve, s_curve

__version__ = "0.1.0"
