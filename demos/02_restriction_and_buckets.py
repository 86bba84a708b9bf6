"""Restricting a spectrum to an affine subspace and counting buckets.

Fixing the parities g_1, ..., g_t to bits b_1, ..., b_t groups the
support into cosets of span{g_i}; each coset ("bucket") contributes one
coefficient to the restricted spectrum, so the bucket count bounds the
restricted sparsity from above.
"""

import numpy as np

from parityfold import (
    AffineConstraintSystem,
    TruthTable,
    bucket_complexity,
    gen_random,
    identification_bound_check,
    identified,
    restrict,
    wht,
)

and2 = TruthTable(2, np.array([1, 1, 1, -1]))
spectrum = wht(and2)
print(f"conjunction spectrum: {dict(spectrum.coeffs)}")

# Fix x1 = 1: the function collapses to the sign of x2.
system = AffineConstraintSystem(2, ((0b01, 1),))
restricted = restrict(spectrum, system)
print(f"after fixing x1 = 1: {dict(restricted.coeffs)}  (a single character)")
for x in range(4):
    if system.contains(x):
        assert restricted.evaluate(x) == and2.evaluate(x)
print("restriction agrees with the original on every subspace point")

# The two coefficients in the zero-labeled bucket cancelled:
report = bucket_complexity(spectrum.support(), [0b01], 2)
print(f"buckets of span{{01}}: {report.buckets} -> count {report.bucket_count}")
print(f"restricted sparsity {restricted.sparsity} <= bucket count {report.bucket_count}")

# Identification: two support elements land in one bucket exactly when
# their sum lies in the span.
assert identified(0b00, 0b01, [0b01], 2)
assert not identified(0b00, 0b10, [0b01], 2)

# The identification count h gives the bucket bound k - h/2.
bound = identification_bound_check(spectrum.support(), [0b11], 2)
print(
    f"with span{{11}}: h = {bound.identified_count}, bound k - ceil(h/2) = "
    f"{bound.bound}, actual = {bound.actual}"
)

# Inconsistent systems are detected before any restriction happens.
bad = AffineConstraintSystem(3, ((0b011, 0), (0b101, 0), (0b110, 1)))
print(f"\nsystem {bad.constraints}: consistent = {bad.consistent}")

# The same invariants hold for arbitrary functions and constraint sets.
print("\nrandom spot check (n = 6)")
rng = np.random.default_rng(42)
table = gen_random(6, 0)
s = wht(table)
for trial in range(5):
    masks = [int(rng.integers(1, 64)) for _ in range(2)]
    anchor = int(rng.integers(0, 64))
    sys_t = AffineConstraintSystem(6, tuple((m, (m & anchor).bit_count() & 1) for m in masks))
    out = restrict(s, sys_t)
    buckets = bucket_complexity(s.support(), masks, 6).bucket_count
    print(f"  gammas {masks}: sparsity {s.sparsity} -> {out.sparsity} (buckets {buckets})")
    assert out.sparsity <= buckets
