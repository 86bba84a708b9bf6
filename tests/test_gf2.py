import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold.gf2 import (
    DimensionMismatchError,
    Echelon,
    Gf2Basis,
    coset_label,
    extend_basis,
    in_span,
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


# String masks below follow the x1 x2 x3 ... convention: leftmost char is
# bit 0.  "110" = {x1, x2} = int 3, "011" = {x2, x3} = int 6, "101" = int 5.


def test_row_reduce_empty():
    basis = row_reduce([], 3)
    assert basis.rank == 0
    assert basis.rows == ()


def test_row_reduce_dependent_triple():
    # 110 + 011 = 101, so rank is 2
    basis = row_reduce([0b011, 0b110, 0b101], 3)
    assert basis.rank == 2
    assert brute_span(basis.rows) == brute_span([0b011, 0b110, 0b101])


def test_row_reduce_single_vector():
    basis = row_reduce([0b001], 3)
    assert basis.rank == 1
    assert basis.rows == (0b001,)


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
    span = brute_span(basis.rows)
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
    assert row_reduce(basis.rows, n) == basis


@given(st.integers(1, 10), st.data())
def test_label_count_is_two_power_of_codimension(n, data):
    vecs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    basis = row_reduce(vecs, n)
    labels = {coset_label(v, basis) for v in range(1 << n)}
    assert len(labels) == 1 << (n - basis.rank)


def test_basis_invariant_enforced():
    with pytest.raises(ValueError):
        Gf2Basis(3, (0b011, 0b110))  # leading bits not decreasing
    with pytest.raises(ValueError):
        Gf2Basis(3, (0,))


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
    assert brute_span(basis.rows) == span
    # reduced: no row has a bit at another row's pivot
    for row, pivot, _ in basis.entries:
        assert sum(1 for other in basis.rows if other & pivot) == 1
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
            assert extended == row_reduce(vecs + [v], n)


@given(DIMENSIONS, st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_tags_name_the_inserts_summing_to_each_row(n, data):
    vecs, probes = vectors_and_probes(n, data)
    echelon = Echelon()
    independent = [echelon.insert(v) for v in vecs]
    assert echelon.inserted == len(vecs)
    assert tuple(row for row, _, _ in echelon.rows) == row_reduce(vecs, n).rows
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
    echelon = Echelon()
    for v in vecs:
        echelon.insert(v)
    basis = row_reduce(vecs, n)
    masks = np.array(probes, dtype=np.int64)
    label, tag = labels(masks, echelon.rows)
    assert [(int(a), int(t)) for a, t in zip(label, tag)] == [echelon.reduce_tagged(v) for v in probes]
    plain, zero = labels(masks, basis.entries)
    assert plain.tolist() == [coset_label(v, basis) for v in probes]
    assert not zero.any()
    assert masks.tolist() == probes  # the input is not modified


def test_vectorized_labels_of_no_masks():
    label, tag = labels(np.array([], dtype=np.int64), row_reduce([3], 2).entries)
    assert label.shape == tag.shape == (0,)
