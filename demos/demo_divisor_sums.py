"""Divisor convolution identities and the zero-mode coefficient totals.

The homogeneous coefficients along the anti-diagonal reduce to
sigma_a(n) sigma_b(n) / n^s sequences, so their two-sided totals follow from

    sum_{n != 0} sigma_a sigma_b / |n|^s
        = 2 zeta(s) zeta(s-a) zeta(s-b) zeta(s-a-b) / zeta(2s-a-b),

together with its s-derivative for log-weighted variants.
"""

from fractions import Fraction

from eisenmodes import Params, ramanujan_convolution, zero_mode_alpha_sum
from eisenmodes.divisors import (
    convolution_partial_sums,
    ramanujan_log_convolution,
    sigma_float_table,
)

r = ramanujan_convolution(2, 2, 8)
print("sum sigma_2(n)^2/|n|^8 =", r.closed_form, f"= {r.numeric:.15g}")
sigma_2 = sigma_float_table(2, 100000)
partial = convolution_partial_sums(sigma_2, sigma_2, 8, (1.0, 0.0), (100000,))[100000]
print("partial sum to N=1e5   =", f"{partial:.15g}")

rl = ramanujan_log_convolution(2, 2, 8)
print("\nlog-weighted variant   =", f"{rl.numeric:.15g}")
print("closed form:", rl.closed_form)

print("\n--- anti-diagonal alpha totals ---")
params = Params(Fraction(3, 2), Fraction(3, 2), 30)
res = zero_mode_alpha_sum(params, "RamanujanExact")
print("recognized shape: sigma_%d sigma_%d / n^%d with coefficient %r" % (
    res.shape["a"], res.shape["b"], res.shape["s"], res.shape["A"]))
print("exact total (the zero mode's y^-r coefficient):", res.value)
print("partial sums:", {k: f"{v:.12g}" for k, v in res.partial_sums.items()})

print("\n--- a divergent case handled formally (lambda = 2) ---")
p2 = Params(Fraction(3, 2), Fraction(3, 2), 2)
res2 = zero_mode_alpha_sum(p2, "RamanujanExact", probe=6)
print("status:", res2.status, "(the series genuinely diverges)")
formal = zero_mode_alpha_sum(p2, "FormalRamanujan", probe=6)
print("formal continuation value:", formal.value)
print("formal numeric:", f"{formal.numeric:.12g}")
