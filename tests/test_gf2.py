import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold.gf2 import (
    DimensionMismatchError,
    Echelon,
    coset_label,
    extend_basis,
    in_span,
    label_step,
    labels,
    row_reduce,
)


def brute_span(vectors):
    """Oracle: enumerate all F2-combinations."""
    span = set()
    for r in range(len(vectors) + 1):
        for combo in itertools.combinations(vectors, r):
            acc = 0
            for v in combo:
                acc ^= v
            span.add(acc)
    return span


def basis_rows(basis):
    return tuple(row for row, _, _ in basis.rows)


# String masks below follow the x1 x2 x3 ... convention: leftmost char is
# bit 0.  "110" = {x1, x2} = int 3, "011" = {x2, x3} = int 6, "101" = int 5.


def test_row_reduce_empty():
    basis = row_reduce([], 3)
    assert basis.rank == 0
    assert basis.rows == []


def test_row_reduce_dependent_triple():
    # 110 + 011 = 101, so rank is 2
    basis = row_reduce([0b011, 0b110, 0b101], 3)
    assert basis.rank == 2
    assert brute_span(basis_rows(basis)) == brute_span([0b011, 0b110, 0b101])


def test_row_reduce_single_vector():
    basis = row_reduce([0b001], 3)
    assert basis.rank == 1
    assert basis_rows(basis) == (0b001,)


def test_row_reduce_rejects_oversized_mask():
    with pytest.raises(DimensionMismatchError):
        row_reduce([0b1000], 3)
    with pytest.raises(DimensionMismatchError):
        row_reduce([1], 30)


def test_in_span_examples():
    basis = row_reduce([0b011, 0b110], 3)
    assert in_span(0, basis)
    assert in_span(0b101, basis)  # 110 + 011 = 101
    # 111 is in none of the 4 combinations {0, 011, 110, 101}
    assert not in_span(0b111, basis)


def test_coset_label_examples():
    empty = row_reduce([], 3)
    assert coset_label(0b101, empty) == 0b101
    basis = row_reduce([0b110], 3)  # {x2,x3} = int 6
    assert coset_label(0b011, basis) == coset_label(0b101, basis)
    assert coset_label(0, basis) == 0


def test_coset_label_is_minimal_coset_element():
    basis = row_reduce([0b0111, 0b1100], 4)
    span = brute_span(basis_rows(basis))
    for v in range(16):
        label = coset_label(v, basis)
        assert label == min(v ^ g for g in span)


@given(st.integers(2, 8), st.data())
def test_label_equality_iff_in_span(n, data):
    vecs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    basis = row_reduce(vecs, n)
    v = data.draw(st.integers(0, (1 << n) - 1))
    w = data.draw(st.integers(0, (1 << n) - 1))
    assert (coset_label(v, basis) == coset_label(w, basis)) == in_span(v ^ w, basis)


@given(st.integers(1, 10), st.data())
def test_rank_matches_brute_force(n, data):
    vecs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    basis = row_reduce(vecs, n)
    assert (1 << basis.rank) == len(brute_span(vecs))


@given(st.integers(1, 10), st.data())
def test_row_reduce_idempotent(n, data):
    vecs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    basis = row_reduce(vecs, n)
    assert basis_rows(row_reduce(basis_rows(basis), n)) == basis_rows(basis)


@given(st.integers(1, 10), st.data())
def test_label_count_is_two_power_of_codimension(n, data):
    vecs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    basis = row_reduce(vecs, n)
    labels = {coset_label(v, basis) for v in range(1 << n)}
    assert len(labels) == 1 << (n - basis.rank)


# small n is checked over all of F2^n; n = 24 (the cap) on drawn vectors,
# with few generators so the brute-force span stays small
DIMENSIONS = st.one_of(st.integers(1, 6), st.just(24))


def vectors_and_probes(n, data):
    vecs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6 if n <= 6 else 8))
    if n <= 6:
        return vecs, range(1 << n)
    return vecs, data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))


def named_sum(vecs, tag):
    """Sum of the vectors whose indices are set in tag."""
    acc = 0
    for j, v in enumerate(vecs):
        if (tag >> j) & 1:
            acc ^= v
    return acc


@given(DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_span_and_labels_match_brute_force(n, data):
    vecs, probes = vectors_and_probes(n, data)
    span = brute_span(vecs)
    basis = row_reduce(vecs, n)
    assert 1 << basis.rank == len(span)
    assert brute_span(basis_rows(basis)) == span
    # reduced: no row has a bit at another row's pivot
    for row, pivot, _ in basis.rows:
        assert sum(1 for other in basis_rows(basis) if other & pivot) == 1
    for v in list(probes) + sorted(span)[:20]:
        assert in_span(v, basis) == (v in span)
        assert coset_label(v, basis) == min(v ^ g for g in span)


@given(DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_extend_basis_matches_brute_force(n, data):
    vecs, probes = vectors_and_probes(n, data)
    basis = row_reduce(vecs, n)
    span = brute_span(vecs)
    for v in list(probes)[:64]:
        extended = extend_basis(basis, v)
        if v in span:
            assert extended is None
        else:
            assert basis_rows(extended) == basis_rows(row_reduce(vecs + [v], n))


@given(DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_tags_name_the_inserts_summing_to_each_row(n, data):
    vecs, probes = vectors_and_probes(n, data)
    echelon = Echelon(n)
    dependencies = [echelon.insert(v) for v in vecs]
    independent = [not tag for tag in dependencies]
    assert echelon.inserted == len(vecs)
    for j, tag in enumerate(dependencies):
        # a dependent insert's tag names it and earlier inserts summing to 0
        assert not tag or (tag >> j == 1 and named_sum(vecs, tag) == 0)
    assert basis_rows(echelon) == basis_rows(row_reduce(vecs, n))
    for row, pivot, tag in echelon.rows:
        assert pivot == 1 << (row.bit_length() - 1)
        assert named_sum(vecs, tag) == row
        assert all(independent[j] for j in range(len(vecs)) if (tag >> j) & 1)
    for v in list(probes)[:64]:
        label, tag = echelon.reduce_tagged(v)
        assert label ^ named_sum(vecs, tag) == v
        assert label == coset_label(v, row_reduce(vecs, n))


@given(DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_vectorized_labels_match_reduce_tagged_and_coset_label(n, data):
    vecs, probes = vectors_and_probes(n, data)
    probes = list(probes)
    echelon = Echelon(n)
    for v in vecs:
        echelon.insert(v)
    basis = row_reduce(vecs, n)
    masks = np.array(probes, dtype=np.int64)
    label, tag = labels(masks, echelon.rows)
    assert [(int(a), int(t)) for a, t in zip(label, tag)] == [echelon.reduce_tagged(v) for v in probes]
    plain, zero = labels(masks, [(row, pivot, 0) for row, pivot, _ in basis.rows])
    assert plain.tolist() == [coset_label(v, basis) for v in probes]
    assert not zero.any()
    assert masks.tolist() == probes  # the input is not modified


@given(DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_label_steps_keep_labels_canonical_as_the_span_grows(n, data):
    # the sampling trial's walk: a vector is independent of those kept so
    # far exactly when its current label is nonzero, and folding that label
    # in leaves every label canonical for the grown span
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    vecs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    current = np.array(masks + vecs, dtype=np.int64)
    kept = []
    for j, v in enumerate(vecs):
        label = int(current[len(masks) + j])
        if label:
            kept.append(v)
            label_step(current, label)
    oracle, basis = [], row_reduce((), n)
    for v in vecs:
        extended = extend_basis(basis, v)
        if extended is not None:
            oracle.append(v)
            basis = extended
    assert kept == oracle
    expected = labels(np.array(masks + vecs, dtype=np.int64), row_reduce(kept, n).rows)[0]
    assert current.tolist() == expected.tolist()


@given(st.integers(1, 24), st.data())
@settings(max_examples=150, deadline=None)
def test_per_row_label_step_matches_the_int_form_on_each_slice(n, data):
    trials = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 12))
    cells = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=trials * k, max_size=trials * k))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=trials, max_size=trials))
    matrix = np.array(cells, dtype=np.int64).reshape(trials, k)
    expected, hits = matrix.copy(), np.zeros((trials, k), dtype=bool)
    for t, row in enumerate(rows):
        if row:
            hits[t] = label_step(expected[t], row)
    hit = label_step(matrix, np.array(rows, dtype=np.int64))
    assert matrix.tolist() == expected.tolist()
    assert hit.tolist() == hits.tolist()


def test_per_row_label_step_row_zero_is_no_step():
    matrix = np.array([[5, 3, 1, 0], [6, 2, 7, 4]], dtype=np.int64)
    hit = label_step(matrix, np.array([4, 0], dtype=np.int64))
    assert matrix.tolist() == [[1, 3, 1, 0], [6, 2, 7, 4]]
    assert hit.tolist() == [[True, False, False, False], [False] * 4]
    zero = matrix.copy()
    assert not label_step(zero, np.zeros(2, dtype=np.int64)).any()
    assert zero.tolist() == matrix.tolist()


def test_per_row_label_step_is_exact_on_24_bit_masks():
    top = 1 << 23
    full = (1 << 24) - 1
    matrix = np.array([[full, top, top - 1, top | 1], [full, top, top - 1, 1]], dtype=np.int64)
    rows = np.array([full, top - 1], dtype=np.int64)
    label_step(matrix, rows)
    # row 0's pivot is bit 23, row 1's is bit 22
    assert matrix.tolist() == [[0, top ^ full, top - 1, (top | 1) ^ full], [full ^ (top - 1), top, 0, 1]]
    one_bit = np.array([[top, top >> 1]], dtype=np.int64)
    label_step(one_bit, np.array([top >> 1], dtype=np.int64))
    assert one_bit.tolist() == [[top, 0]]


def test_vectorized_labels_of_no_masks():
    label, tag = labels(np.array([], dtype=np.int64), row_reduce([3], 2).rows)
    assert label.shape == tag.shape == (0,)
