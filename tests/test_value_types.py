"""The library's value types: immutable, compared and hashed by their
fields, and checked when made."""

from fractions import Fraction

import numpy as np
import pytest

from parityfold import families, folding, pdt, restriction, runner, spectral
from parityfold.gf2 import DimensionMismatchError, Value
from parityfold.params import BuildConfig, SeedRangeError


def make_values() -> dict:
    """type name -> one value of each of the library's 17 value types,
    made by the calls that make them."""
    table = families.gen_inner_product(2)
    spectrum = spectral.wht(table)
    build = pdt.build_pdt(table, BuildConfig(seed=1))
    return {
        "TruthTable": table,
        "FourierSpectrum": spectrum,
        "FourierSupport": spectral.support_from_dict({"support": [1, 2], "n": 2}),
        "FunctionSpec": families.read_function("addressing", {"k": 16}),
        "FoldingProfile": folding.direction_classes(spectrum.masks),
        "PairCondition": folding.check_pair_condition(spectrum.masks),
        "FoldingParameters": folding.folding_parameters(spectrum.masks, Fraction(1, 2)),
        "SingleDirectionReport": folding.single_direction_structure(spectrum),
        "SignFeasibilityResult": folding.sign_feasibility(spectrum.masks),
        "ParityDecisionTree": build.tree,
        "NodeRecord": build.log[0],
        "BuildResult": build,
        "BuildConfig": build.config,
        "TrialStats": pdt.warmup_success_rate(table, 3, 0),
        "AffineConstraintSystem": restriction.AffineConstraintSystem(4, ((3, 1),)),
        "BucketReport": restriction.bucket_complexity(spectrum.masks.tolist(), [3], 4),
        "ExperimentReport": runner.run_experiment({"functions": [{"family": "inner-product", "m": 2}],
                                                   "analyses": [{"op": "analyze"}]}),
    }


@pytest.fixture(scope="module")
def values() -> dict:
    return make_values()


NAMES = ["TruthTable", "FourierSpectrum", "FourierSupport", "FunctionSpec", "FoldingProfile", "PairCondition", "FoldingParameters",
         "SingleDirectionReport", "SignFeasibilityResult", "ParityDecisionTree", "NodeRecord", "BuildResult",
         "BuildConfig", "TrialStats", "AffineConstraintSystem", "BucketReport", "ExperimentReport"]


@pytest.mark.parametrize("name", NAMES)
def test_a_value_refuses_assignment(values, name):
    value = values[name]
    assert type(value).__name__ == name
    fields = getattr(value, "_fields", None) or list(vars(value))
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_build_config_defaults_are_its_class_attributes():
    defaults = {"strategy": "sampling", "probability": None, "resample_cap": 64, "epsilon": Fraction(1, 2),
                "seed": 0, "delta": None, "ell": None}
    assert vars(BuildConfig()) == defaults
    assert {key: getattr(BuildConfig, key) for key in defaults} == defaults
    config = BuildConfig(strategy="folding-sampling", seed=3, delta=Fraction(1, 5), ell=0.5, epsilon=0.25)
    assert (config.strategy, config.seed, config.resample_cap) == ("folding-sampling", 3, 64)
    assert (config.delta, config.ell, config.epsilon) == (Fraction(1, 5), Fraction(1, 2), Fraction(1, 4))
    assert all(type(x) is Fraction for x in (config.delta, config.ell, config.epsilon))
    assert BuildConfig("max-coefficient", None, 8) == BuildConfig(strategy="max-coefficient", resample_cap=8)


def test_build_config_compares_and_hashes_by_its_values():
    assert BuildConfig(seed=5) == BuildConfig(seed=5) and BuildConfig(seed=5) != BuildConfig(seed=6)
    assert BuildConfig(epsilon=0.5) == BuildConfig()  # epsilon is read as an exact fraction
    assert hash(BuildConfig(seed=5)) == hash(BuildConfig(seed=5))
    assert len({BuildConfig(), BuildConfig(seed=0), BuildConfig(seed=1), BuildConfig(probability=0.25)}) == 3
    assert BuildConfig() != vars(BuildConfig()) and BuildConfig() != ("sampling", None, 64, Fraction(1, 2), 0, None, None)


@pytest.mark.parametrize("kwargs, error, message", [
    ({"strategy": "greedy"}, ValueError, "unknown strategy 'greedy'"),
    ({"probability": 0}, ValueError, r"probability must lie in \(0, 1\], got 0"),
    ({"probability": Fraction(3, 2)}, ValueError, r"probability must lie in \(0, 1\], got 3/2"),
    ({"resample_cap": 0}, ValueError, "resample cap must be >= 1"),
    ({"seed": -1}, SeedRangeError, "seed must be >= 0, got -1"),
    ({"strategy": "folding-sampling", "delta": 0, "ell": 0}, ValueError, r"delta must lie in \(0, 1\], got 0"),
    ({"strategy": "folding-sampling", "delta": 1, "ell": 2}, ValueError, "exponent must be <= 1, got 2"),
    ({"epsilon": 1}, ValueError, r"epsilon must lie in \(0, 1\), got 1"),
    ({"strategy": "max-coefficient", "probability": 0.5}, ValueError, "draws nothing, so it takes no probability"),
    ({"delta": 1, "ell": 0}, ValueError, "strategy sampling takes neither"),
    ({"strategy": "folding-sampling", "ell": 0}, ValueError, "delta and ell together, or neither"),
    ({"strategy": "folding-sampling", "delta": 1, "ell": 0, "probability": 0.5}, ValueError, "give one or the other"),
])
def test_build_config_refusals(kwargs, error, message):
    with pytest.raises(error, match=message):
        BuildConfig(**kwargs)


def test_the_pdt_op_defaults_are_build_configs():
    # seed defaults to the run's seed; every other default is BuildConfig's
    declared = runner.OPS["pdt"][1]
    assert declared.keys() == vars(BuildConfig()).keys()
    assert {key: default for key, (_, default) in declared.items() if key != "seed"} == {
        key: value for key, value in vars(BuildConfig()).items() if key != "seed"}
    assert runner.op_params("pdt", {}, 0) == BuildConfig()


def test_constraint_systems_and_bucket_reports_are_checked_when_made():
    with pytest.raises(ValueError, match="constraint bit must be 0 or 1, got 2"):
        restriction.AffineConstraintSystem(2, ((1, 2),))
    with pytest.raises(DimensionMismatchError, match="mask 0x4 does not fit in 2 bits"):
        restriction.AffineConstraintSystem(2, ((4, 1),))
    with pytest.raises(restriction.IdentificationBoundError, match="2 buckets exceed"):
        restriction.BucketReport(2, {0: (0, 3)}, 2)
    inconsistent = restriction.AffineConstraintSystem(2, ((1, 0), (1, 1)))  # made, refused when used
    assert not inconsistent.consistent and inconsistent.codimension == 1


def test_constraint_systems_and_bucket_reports_compare_by_value():
    system = restriction.AffineConstraintSystem(3, ((3, 1), (5, 0)))
    same = restriction.AffineConstraintSystem(3, ((3, 1), (5, 0)))
    assert system == same and hash(system) == hash(same) and system.echelon is not same.echelon
    assert system != restriction.AffineConstraintSystem(3, ((3, 1),)) != restriction.AffineConstraintSystem(4, ((3, 1),))
    report = restriction.BucketReport(1, {0: (0, 3)}, 2)
    assert report == restriction.BucketReport(1, {0: (0, 3)}, 2) != restriction.BucketReport(2, {0: (0,), 3: (3,)}, 0)
    with pytest.raises(TypeError):
        hash(report)


# the plain value types, which share gf2.Value; the rest are NamedTuples.
# The first six hold an array or a dict, so their hash raises
PLAIN = ["TruthTable", "FourierSpectrum", "FourierSupport", "FoldingProfile", "ParityDecisionTree", "BucketReport",
         "BuildConfig", "AffineConstraintSystem"]
UNHASHABLE = PLAIN[:6]


def changed(value):
    """A value of the same kind as value that differs from it."""
    if isinstance(value, np.ndarray):
        return value + 1
    if isinstance(value, dict):
        return {**value, -1: ()}
    if isinstance(value, tuple):
        return (*value, None)
    if isinstance(value, str):
        return value + "!"
    return 1 if value is None else value + 1


@pytest.mark.parametrize("name", PLAIN)
def test_plain_values_compare_by_each_field(values, name):
    value, again = values[name], make_values()[name]
    assert isinstance(value, Value) and value._fields
    assert value == again and again == value and value is not again
    for field in value._fields:
        other = object.__new__(type(value))
        other.__dict__.update(vars(value), **{field: changed(getattr(value, field))})
        assert value != other and other != value, field


@pytest.mark.parametrize("name", PLAIN)
def test_plain_values_hash_unless_a_field_is_an_array_or_a_dict(values, name):
    value = values[name]
    holds = any(isinstance(getattr(value, field), (np.ndarray, dict)) for field in value._fields)
    assert holds == (name in UNHASHABLE)
    if holds:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    else:
        assert hash(value) == hash(make_values()[name])
        assert hash(value) == hash(tuple(getattr(value, field) for field in value._fields))


def test_supports_compare_by_value():
    support = spectral.support_from_dict({"support": [6, 1, 2], "n": 3})
    assert support == spectral.support_from_dict({"support": [1, 2, 6], "n": 3})
    assert support != spectral.support_from_dict({"support": [1, 2, 6], "n": 4})
    assert support != spectral.support_from_dict({"support": [1, 2, 5], "n": 3})
    spectrum = spectral.FourierSpectrum(3, {1: 4, 2: 4, 6: 4})
    assert (spectrum.n, spectrum.masks.tolist()) == (support.n, support.masks.tolist()) and support != spectrum
