"""High-order tensor pooling with shrinkage normalization and RBF attention.

Core layers:

* ``tensor``: dense cubic tensors, contraction, unfolding;
* ``descriptors``: outer-power descriptors of feature matrices;
* ``tso``: spectral and tensorial shrinkage with fast even/odd paths;
* ``shrinkage``: numerical verification of the shrinkage variational
  characterization and its identity target;
* ``attention`` / ``heads``: softmax and RBF attention, relation heads;
* ``pipeline``: synthetic few-shot episodes end to end;
* ``bench`` / ``suites`` / ``cli``: benchmark harness, invariant suites,
  and the command-line driver.
"""

from .tensor import (
    DenseTensor,
    SuperDiagonal,
    contract,
    identity_tensor,
    outer_power,
    super_diagonal,
    tensor_inner,
    unfold,
)
from .descriptors import FeatureMatrix, hotd, normalize_descriptor, poly_kernel_sum
from .tso import (
    SpectrumVector,
    TsoParams,
    maxexp_f,
    maxexp_scalar,
    sigme,
    sqrtm_diag_approx,
    tso,
    tso_fast_even,
    tso_fast_odd,
    tso_naive,
    tso_super_diagonal,
)
from .shrinkage import (
    ShrinkageProblem,
    closed_form_minimizer,
    objective,
    objective_gradient,
    verify_identity_target,
    verify_shrinkage_optimality,
)
from .attention import AttentionBundle, attention, layer_norm_residual, multi_head, rbf_similarity
from .heads import (
    HeadWeights,
    PooledFeatures,
    RelationOutput,
    TokenMatrix,
    build_spatial_hop_tokens,
    compute_relations,
    spatial_hop_head,
    z_average,
    zshot_head,
)
from .pipeline import (
    EpisodeBatch,
    EpisodeResult,
    SplitConfig,
    attend_query_to_supports,
    forward_episode,
    hop_unit,
    matched_class_similarity_rate,
    numerical_jacobian,
    synth_episode,
)
from .errors import (
    CapacityError,
    DomainError,
    FileFormatError,
    InvalidArgumentError,
    NormalizationError,
    TensorPoolError,
)

__version__ = "0.1.0"
