"""Exact Fourier-spectral analysis of Boolean functions over F2^n and
parity decision tree construction via randomized parity sampling.

Each public name is imported from its module on first access (PEP 562),
so ``import parityfold`` loads no module and a run loads only the
modules its ops use: fold, verify and analyze never import the tree
modules (`pdt`, `builder`, `trials`) or `restriction`, and a Monte Carlo
run never imports the builder.  ``EXPORTS`` maps each public name to its
module; ``__all__`` and ``dir()`` are read from it.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_MODULES = {
    "families": (
        "FunctionSpec", "build_function", "gen_addressing", "gen_conjunction", "gen_inner_product",
        "gen_junta", "gen_modified_addressing", "gen_parity", "gen_random",
    ),
    "folding": (
        "FoldingParameters", "FoldingProfile", "check_pair_condition", "counterexample_support",
        "direction_classes", "folding_parameters", "heavy_participants", "sign_feasibility",
        "single_direction_structure", "verify_three_fold",
    ),
    "builder": ("BuildResult", "build_pdt"),
    "gf2": ("Echelon", "coset_label", "in_span", "row_reduce"),
    "params": ("BuildConfig",),
    "pdt": ("ParityDecisionTree", "sample_parity", "verify_tree"),
    "restriction": ("AffineConstraintSystem", "BucketReport", "bucket_complexity", "restrict", "restrict_batch"),
    "runner": ("ExperimentReport", "run_experiment"),
    "spectral": (
        "FourierSpectrum", "TruthTable", "inverse_wht", "is_plateaued", "load_function", "spectral_l1",
        "verify_parseval", "verify_titsworth", "wht",
    ),
    "trials": ("TrialStats", "estimate_bucket_reduction", "folding_sampling_trial", "warmup_success_rate"),
}

# public name -> the module that defines it
EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(EXPORTS)


def __getattr__(name: str):
    module = EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | EXPORTS.keys())
