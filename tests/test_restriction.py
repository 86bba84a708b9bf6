import functools
import itertools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold import restriction, runner
from parityfold.cli import main
from parityfold.families import gen_addressing
from parityfold.runner import ConfigError, op_params
from parityfold.restriction import (
    AffineConstraintSystem,
    BucketReport,
    IdentificationBoundError,
    InconsistentConstraintsError,
    bucket_complexity,
    restrict,
    restrict_batch,
)
from parityfold.gf2 import DimensionMismatchError, Echelon, labels, row_reduce
from parityfold.spectral import FourierSpectrum, TruthTable, wht


def and2():
    return TruthTable(2, np.array([1, 1, 1, -1]))


def random_table(n, seed):
    rng = np.random.default_rng(seed)
    return TruthTable(n, 1 - 2 * rng.integers(0, 2, size=1 << n, dtype=np.int64))


def subspace_points(system):
    return [x for x in range(1 << system.n) if system.contains(x)]


def test_restrict_and2_fix_x1():
    # x1 = 1 collapses AND2 to chi_{x2}
    system = AffineConstraintSystem(2, ((0b01, 1),))
    out = restrict(wht(and2()), system)
    assert out.coeffs == {0b10: 4}


def test_restrict_empty_system_identity():
    s = wht(and2())
    assert restrict(s, AffineConstraintSystem(2, ())) == s


def test_restrict_and2_to_point_set():
    # x1 = 0, x2 = 0 forces f(0,0) = +1
    system = AffineConstraintSystem(2, ((0b01, 0), (0b10, 0)))
    out = restrict(wht(and2()), system)
    assert out.coeffs == {0: 4}


def test_restrict_inconsistent():
    system = AffineConstraintSystem(3, ((0b011, 0), (0b101, 0), (0b110, 1)))
    assert not system.consistent
    with pytest.raises(InconsistentConstraintsError):
        restrict(wht(random_table(3, 0)), system)


def test_restrict_dimension_mismatch():
    with pytest.raises(ValueError):
        restrict(wht(and2()), AffineConstraintSystem(3, ()))


@given(st.integers(2, 8), st.integers(0, 2**32), st.data())
@settings(max_examples=60, deadline=None)
def test_restrict_agrees_pointwise_on_subspace(n, seed, data):
    t = random_table(n, seed)
    rng = np.random.default_rng(seed + 17)
    t_count = data.draw(st.integers(0, min(n, 3)))
    masks = [int(rng.integers(1, 1 << n)) for _ in range(t_count)]
    x0 = int(rng.integers(0, 1 << n))  # anchor point keeps the system consistent
    system = AffineConstraintSystem(
        n, tuple((m, (m & x0).bit_count() & 1) for m in masks)
    )
    out = restrict(wht(t), system)
    for x in subspace_points(system):
        assert out.evaluate(x) == t.evaluate(x)


@given(st.integers(2, 7), st.integers(0, 2**32), st.data())
@settings(max_examples=60, deadline=None)
def test_restrict_sparsity_bounded_by_buckets(n, seed, data):
    t = random_table(n, seed)
    s = wht(t)
    rng = np.random.default_rng(seed + 3)
    masks = [int(rng.integers(1, 1 << n)) for _ in range(data.draw(st.integers(0, 3)))]
    x0 = int(rng.integers(0, 1 << n))
    system = AffineConstraintSystem(
        n, tuple((m, (m & x0).bit_count() & 1) for m in masks)
    )
    out = restrict(s, system)
    report = bucket_complexity(s.support(), masks, n)
    assert out.sparsity <= report.bucket_count


def test_bucket_complexity_and2():
    report = bucket_complexity({0, 1, 2, 3}, [0b11], 2)
    assert report.bucket_count == 2
    assert report.buckets == {0: (0, 3), 1: (1, 2)}
    assert report.identified_count == 4


def test_bucket_complexity_empty_gamma():
    supp = wht(and2()).support()
    report = bucket_complexity(supp, [], 2)
    assert report.bucket_count == len(supp)
    assert report.identified_count == 0


def test_bucket_complexity_full_basis():
    report = bucket_complexity({0, 1, 2, 3}, [0b01, 0b10], 2)
    assert report.bucket_count == 1


def test_identification_bound_and2():
    report = bucket_complexity({0, 1, 2, 3}, [0b11], 2)
    assert report.identified_count == 4
    assert report.bound == 2
    assert report.bucket_count == 2


def test_identification_bound_no_gamma():
    report = bucket_complexity({0, 1, 2, 3}, [], 2)
    assert (report.identified_count, report.bound, report.bucket_count) == (0, 4, 4)


@given(st.integers(2, 7), st.integers(0, 2**32), st.data())
@settings(max_examples=60, deadline=None)
def test_observation_bounds_hold(n, seed, data):
    s = wht(random_table(n, seed))
    rng = np.random.default_rng(seed + 5)
    masks = [int(rng.integers(1, 1 << n)) for _ in range(data.draw(st.integers(0, 4)))]
    report = bucket_complexity(s.support(), masks, n)
    assert 2 * report.bucket_count <= 2 * s.sparsity - report.identified_count


@given(st.integers(2, 7), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_adding_constraints_merges_buckets(n, seed):
    s = wht(random_table(n, seed))
    rng = np.random.default_rng(seed + 9)
    g1 = [int(rng.integers(1, 1 << n))]
    g2 = g1 + [int(rng.integers(1, 1 << n))]
    b1 = bucket_complexity(s.support(), g1, n).bucket_count
    b2 = bucket_complexity(s.support(), g2, n).bucket_count
    assert b2 <= b1


def test_restriction_of_boolean_is_boolean_on_subspace():
    t = random_table(4, 11)
    system = AffineConstraintSystem(4, ((0b0110, 1), (0b1001, 0)))
    out = restrict(wht(t), system)
    for x in subspace_points(system):
        assert out.evaluate(x) in (-1, 1)


def test_codimension():
    system = AffineConstraintSystem(3, ((0b011, 0), (0b101, 1), (0b110, 1)))
    assert system.consistent  # third constraint is the sum of the first two
    assert system.codimension == 2


def test_identification_bound_violation_is_a_typed_error(monkeypatch, tmp_path, capsys):
    # one bucket of two masks reported as two buckets: 2 > k - ceil(h/2) = 1
    assert BucketReport(1, {0: (0, 3)}, 2).bound == 1
    with pytest.raises(IdentificationBoundError, match=r"^2 buckets exceed k - ceil\(h/2\) = 1 at k=2, h=2$"):
        BucketReport(2, {0: (0, 3)}, 2)
    # a partition that breaks the bound in analyze is a failed check, exit 1
    monkeypatch.setattr(restriction, "bucket_complexity", lambda *args: BucketReport(2, {0: (0, 3)}, 2))
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"mask": 3, "bit": 1}]))
    assert main(["analyze", "addressing:k=16", "--restrict", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


NON_INTEGER_SYSTEMS = {
    "mask-bool": [{"mask": True, "bit": 1}],
    "mask-float": [{"mask": 1.0, "bit": 1}],
    "bit-bool": [{"mask": 1, "bit": True}],
    "bit-float": [{"mask": 1, "bit": 0.0}],
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_SYSTEMS))
def test_the_restrict_parser_needs_json_integers(name):
    with pytest.raises(ConfigError, match="must be an integer"):
        op_params("analyze", {"restrict": NON_INTEGER_SYSTEMS[name]}, 0)


@pytest.mark.parametrize("name", sorted(NON_INTEGER_SYSTEMS))
def test_cli_rejects_non_integer_system_files(tmp_path, capsys, name):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(NON_INTEGER_SYSTEMS[name]))
    assert main(["analyze", "addressing:k=16", "--restrict", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be an integer" in err


# Differential checks of the elimination kernel behind AffineConstraintSystem:
# small n against all of F2^n, n = 24 (the cap) against drawn points.  Masks
# are sums of a few base vectors so that dependent and inconsistent
# constraints come up often.
DIMENSIONS = st.one_of(st.integers(1, 6), st.just(24))


def draw_masks(data, n, base, max_size):
    combos = st.lists(st.booleans(), min_size=len(base), max_size=len(base))
    extra = st.integers(0, (1 << n) - 1)
    masks = []
    for _ in range(data.draw(st.integers(0, max_size))):
        if data.draw(st.booleans()):
            picks = data.draw(combos)
            masks.append(functools.reduce(operator.xor, (b for b, p in zip(base, picks) if p), 0))
        else:
            masks.append(data.draw(extra))
    return masks


def forces_zero_equals_one(constraints):
    """Oracle: some nonempty subset of constraints sums to mask 0 with odd bits."""
    for r in range(1, len(constraints) + 1):
        for subset in itertools.combinations(constraints, r):
            mask = bit = 0
            for m, b in subset:
                mask ^= m
                bit ^= b
            if mask == 0 and bit == 1:
                return True
    return False


@given(DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_consistency_matches_brute_force(n, data):
    base = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    masks = draw_masks(data, n, base, 8)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(masks), max_size=len(masks)))
    system = AffineConstraintSystem(n, tuple(zip(masks, bits)))
    assert system.consistent == (not forces_zero_equals_one(system.constraints))
    if n <= 6:
        assert system.consistent == any(system.contains(x) for x in range(1 << n))


@given(DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_restrict_matches_spectrum_on_every_point_of_h(n, data):
    base = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    coeffs = {}
    for mask in draw_masks(data, n, base, 12):
        coeffs[mask] = data.draw(st.integers(-5, 5).filter(bool))
    spectrum = FourierSpectrum(n, coeffs)
    gammas = draw_masks(data, n, base, 4)
    x0 = data.draw(st.integers(0, (1 << n) - 1))
    bits = [(g & x0).bit_count() & 1 for g in gammas]
    if gammas and data.draw(st.booleans()):
        bits[0] ^= 1  # may make the system inconsistent
    system = AffineConstraintSystem(n, tuple(zip(gammas, bits)))
    if n <= 6:
        points = [x for x in range(1 << n) if system.contains(x)]
    else:
        drawn = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=64))
        points = [x for x in [x0] + [x0 ^ y for y in drawn] if system.contains(x)]
    if not system.consistent:
        assert not points
        with pytest.raises(InconsistentConstraintsError):
            restrict(spectrum, system)
        return
    out = restrict(spectrum, system)
    for x in points:
        assert out.evaluate_scaled(x) == spectrum.evaluate_scaled(x)
    assert out.sparsity <= bucket_complexity(coeffs, gammas, n).bucket_count


@pytest.mark.parametrize("seed", range(3))
def test_restrict_on_more_constraints_than_an_int64_tag_holds(seed):
    # 100 constraints from the span of 3 masks: their tags are 100 bits
    # wide, while the echelon, and so the right-hand sides, has 3 rows or fewer
    n = 8
    rng = np.random.default_rng(seed)
    base = [int(m) for m in rng.integers(1, 1 << n, size=3)]
    gammas = [functools.reduce(operator.xor, (b for b in base if rng.random() < 0.5), 0) for _ in range(100)]
    x0 = int(rng.integers(0, 1 << n))
    constraints = tuple((g, (g & x0).bit_count() & 1) for g in gammas)
    system = AffineConstraintSystem(n, constraints)
    assert system.consistent and system.codimension <= 3
    spectrum = wht(random_table(n, seed))
    out = restrict(spectrum, system)
    points = subspace_points(system)
    assert x0 in points
    for x in points:
        assert out.evaluate_scaled(x) == spectrum.evaluate_scaled(x)
    # g0 + g1 lies in the span and takes its value at x0 on all of H
    g = gammas[0] ^ gammas[1]
    wrong = AffineConstraintSystem(n, constraints + ((g, 1 ^ (g & x0).bit_count() & 1),))
    with pytest.raises(InconsistentConstraintsError):
        restrict(spectrum, wrong)


def test_analyze_restrict_partitions_the_support_once(monkeypatch, tmp_path, capsys):
    calls = []
    real = restriction.bucket_complexity

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(restriction, "bucket_complexity", counting)
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"mask": 3, "bit": 1}, {"mask": 12, "bit": 0}]))
    assert main(["--json", "analyze", "addressing:k=16", "--restrict", str(path)]) == 0
    assert len(calls) == 1
    payload = json.loads(capsys.readouterr().out)["analyze"]["restrict"]
    # the runner's block of the same call's report
    table = gen_addressing(16)
    expected = runner.analyze_summary(table, wht(table), {"restrict": ((3, 1), (12, 0))})["restrict"]
    assert calls[1] == calls[0]
    assert payload["bucket_report"] == expected["bucket_report"]


# Batched restriction and the vectorized bucket count against the
# single-system path and a Python set: n <= 8 on random tables, n = 24 (the
# cap) on sparse supports whose masks share a few base vectors.
BATCH_DIMENSIONS = st.one_of(st.integers(1, 8), st.just(24))


def independent(masks, n):
    echelon = Echelon(n)
    return tuple(m for m in masks if not echelon.insert(m))


def draw_spectrum_and_batch(data, n):
    base = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    if n <= 8:
        spectrum = wht(random_table(n, data.draw(st.integers(0, 2**32))))
    else:
        coeffs = st.integers(-(1 << n), 1 << n).filter(bool)
        spectrum = FourierSpectrum(n, {m: data.draw(coeffs) for m in draw_masks(data, n, base, 40)})
    return spectrum, independent(draw_masks(data, n, base, 6), n)


@given(BATCH_DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_bucket_report_is_the_coset_partition_within_its_bound(n, data):
    # masks that share a few base vectors, so buckets merge at n = 24 too;
    # the gammas may be dependent and the support empty
    base = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    support = sorted(set(draw_masks(data, n, base, 40)))
    gammas = draw_masks(data, n, base, 5)
    span = {0}
    for g in gammas:
        span |= {s ^ g for s in span}
    cosets = {frozenset(a ^ s for s in span) for a in support}
    partition = {coset: tuple(a for a in support if a in coset) for coset in cosets}
    report = bucket_complexity(support, gammas, n)
    assert sorted(report.buckets.values()) == sorted(partition.values())
    for label, members in report.buckets.items():
        assert all(label ^ a in span for a in members)
    h = sum(len(members) for members in partition.values() if len(members) > 1)
    assert (report.bucket_count, report.identified_count) == (len(partition), h)
    assert report.support_size == len(support)
    assert report.bound == len(support) - math.ceil(h / 2)
    assert report.bucket_count <= report.bound


@given(BATCH_DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_restrict_batch_children_match_restrict(n, data):
    spectrum, batch = draw_spectrum_and_batch(data, n)
    children = restrict_batch(spectrum, batch)
    assert len(children) == 1 << len(batch)
    for j, child in enumerate(children):
        # bit i of the child index is the branch bit of batch[i]
        bits = tuple((j >> i) & 1 for i in range(len(batch)))
        assert child == restrict(spectrum, AffineConstraintSystem(n, tuple(zip(batch, bits))))


@given(BATCH_DIMENSIONS, st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_frontier_restriction_children_match_restrict(n, count, data):
    # spectra restricted together, each against its own batch of one width
    frontier = [draw_spectrum_and_batch(data, n) for _ in range(count)]
    width = min(len(batch) for _, batch in frontier)
    frontier = [(spectrum, batch[:width]) for spectrum, batch in frontier]
    parts = [
        (np.full(s.sparsity, i), *labels(np.fromiter(s.coeffs, np.int64), row_reduce(batch, n).rows),
         np.fromiter(s.coeffs.values(), np.int64))
        for i, (s, batch) in enumerate(frontier)
    ]
    child, node, label, coeff = restriction.restrict_frontier(*map(np.concatenate, zip(*parts)), width)
    rows = list(zip(child.tolist(), node.tolist(), label.tolist()))
    assert rows == sorted(set(rows))
    got: dict = {}
    for (j, i, a), c in zip(rows, coeff.tolist()):
        got.setdefault((j, i), {})[a] = c
    for i, (spectrum, batch) in enumerate(frontier):
        for j in range(1 << width):
            # tag bit i is batch[i], so bit i of the child index is its branch bit
            system = AffineConstraintSystem(n, tuple((g, j >> b & 1) for b, g in enumerate(batch)))
            assert FourierSpectrum(n, got.get((j, i), {})) == restrict(spectrum, system)


@given(st.one_of(st.integers(3, 8), st.just(24)), st.data())
@settings(max_examples=100, deadline=None)
def test_mixed_width_frontier_restricts_in_one_call(n, data):
    # batches of widths 1 to 3, at least two distinct, in one table as wide
    # as the widest: node i's children j < 2^b are restrict's on its 2^b
    # systems, and each child j >= 2^b repeats child j mod 2^b, so build_pdt
    # drops those
    widths = data.draw(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=6).filter(lambda w: len(set(w)) > 1))
    frontier = []
    for b in widths:
        spectrum, _ = draw_spectrum_and_batch(data, n)
        extra = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))
        frontier.append((spectrum, independent(extra + [1 << i for i in range(n)], n)[:b]))
    parts = [
        (np.full(s.sparsity, i), *labels(s.masks, row_reduce(batch, n).rows), s.coefficients)
        for i, (s, batch) in enumerate(frontier)
    ]
    wide = max(widths)
    child, node, label, coeff = restriction.restrict_frontier(*map(np.concatenate, zip(*parts)), wide)
    got: dict = {}
    for j, i, a, c in zip(child.tolist(), node.tolist(), label.tolist(), coeff.tolist()):
        got.setdefault((j, i), {})[a] = c
    for i, (spectrum, batch) in enumerate(frontier):
        for j in range(1 << wide):
            system = AffineConstraintSystem(n, tuple((g, j >> b & 1) for b, g in enumerate(batch)))
            assert FourierSpectrum(n, got.get((j, i), {})) == restrict(spectrum, system)


def test_restrict_batch_of_no_parities_is_the_spectrum():
    s = wht(random_table(4, 2))
    assert restrict_batch(s, ()) == [s]
    assert restrict_batch(FourierSpectrum(4, {}), (1, 2)) == [FourierSpectrum(4, {})] * 4


@pytest.mark.parametrize("batch", [(1, 2, 3), (5, 5), (0,)])
def test_restrict_batch_rejects_dependent_batches(batch):
    with pytest.raises(ValueError, match="linearly dependent"):
        restrict_batch(wht(random_table(3, 0)), batch)


def test_restrict_batch_rejects_masks_beyond_n():
    with pytest.raises(DimensionMismatchError):
        restrict_batch(wht(random_table(3, 0)), (8,))


def test_restrict_batch_is_exact_up_to_the_int64_bound():
    # sum |c_a| = 2^63 - 1: every cell and partial sum still fits int64
    top = (1 << 62) - 1
    spectrum = FourierSpectrum(2, {0: 1 << 62, 1: top})
    children = restrict_batch(spectrum, (1,))
    assert [c.coeffs for c in children] == [{0: (1 << 62) + top}, {0: (1 << 62) - top}]
    for bound in ({0: 1 << 62, 3: 1 << 62}, {0: np.int64(-(1 << 63))}):
        with pytest.raises(ValueError, match="2\\^63"):
            restrict_batch(FourierSpectrum(2, bound), (1,))
