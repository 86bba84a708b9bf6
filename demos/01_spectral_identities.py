"""Exact spectral analysis of small Boolean functions.

Every +-1 function on F2^n has Fourier coefficients that are integral
multiples of 1/2^n, so the whole pipeline below runs in scaled integers:
c_a = fhat(a) * 2^n.  Identities are checked with zero tolerance.
"""

import numpy as np

from parityfold import (
    TruthTable,
    gen_random,
    inverse_wht,
    is_plateaued,
    normalize_signs,
    spectral_l1,
    verify_parseval,
    verify_titsworth,
    wht,
)

# The two-variable conjunction: -1 exactly at x = (1, 1).
and2 = TruthTable(2, np.array([1, 1, 1, -1]))
spectrum = wht(and2)
print("conjunction on 2 variables")
print(f"  scaled spectrum (c = fhat * 4): {dict(spectrum.coeffs)}")
print(f"  sparsity k = {spectrum.sparsity}")

# Parseval in scaled form: sum of c^2 equals 4^n exactly.
assert verify_parseval(spectrum)
print(f"  parseval: sum c^2 = {sum(c * c for c in spectrum.coeffs.values())} = 4^2")

# The correlation condition: for every nonzero direction, the ordered-pair
# coefficient products cancel exactly.
assert verify_titsworth(spectrum) == []
print("  titsworth: all direction sums vanish")

# The transform is exactly invertible.
assert inverse_wht(spectrum) == and2
print("  roundtrip: inverse transform reproduces the table bit for bit")

# l1 mass is maximal here: l1^2 == k.
l1 = spectral_l1(spectrum)
print(f"  spectral l1 = {l1}, l1^2 = {l1 ** 2} <= k = {spectrum.sparsity}")
assert l1**2 == spectrum.sparsity

# All coefficient magnitudes agree, so the function is plateaued.
print(f"  plateaued: {is_plateaued(spectrum)}")

# Sign normalization: translate the input (and possibly negate globally)
# until two chosen coefficients are both positive, preserving magnitudes.
shifted = and2.shift(0b10)
s = wht(shifted)
print("\nsign normalization on a translated conjunction")
print(f"  before: c_01 = {s[0b01]}, c_10 = {s[0b10]}")
fixed = normalize_signs(shifted, 0b01, 0b10)
fs = wht(fixed)
print(f"  after:  c_01 = {fs[0b01]}, c_10 = {fs[0b10]}")
assert fs[0b01] > 0 and fs[0b10] > 0

# The identities are not special to structured functions.
print("\nrandom corpus check")
for seed in range(5):
    table = gen_random(6, seed)
    s = wht(table)
    assert verify_parseval(s) and verify_titsworth(s) == []
print("  5 random n=6 tables: parseval + titsworth exact")
