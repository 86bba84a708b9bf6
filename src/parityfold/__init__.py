"""Exact Fourier-spectral analysis of Boolean functions over F2^n and
parity decision tree construction via randomized parity sampling."""

from .families import (
    FunctionSpec,
    build_function,
    gen_addressing,
    gen_conjunction,
    gen_inner_product,
    gen_junta,
    gen_modified_addressing,
    gen_parity,
    gen_random,
)
from .folding import (
    FoldingParameters,
    FoldingProfile,
    check_pair_condition,
    counterexample_support,
    direction_classes,
    folding_parameters,
    heavy_participants,
    sign_feasibility,
    single_direction_structure,
    verify_three_fold,
)
from .gf2 import Echelon, coset_label, in_span, row_reduce
from .pdt import (
    BuildConfig,
    BuildResult,
    ParityDecisionTree,
    TrialStats,
    build_pdt,
    estimate_bucket_reduction,
    folding_sampling_trial,
    sample_parity,
    verify_tree,
    warmup_success_rate,
)
from .restriction import (
    AffineConstraintSystem,
    BucketReport,
    bucket_complexity,
    identification_bound_check,
    identified,
    restrict,
    restrict_batch,
)
from .runner import ExperimentReport, run_experiment
from .spectral import (
    FourierSpectrum,
    TruthTable,
    inverse_wht,
    is_plateaued,
    load_function,
    spectral_l1,
    verify_parseval,
    verify_titsworth,
    wht,
)

__version__ = "0.1.0"
