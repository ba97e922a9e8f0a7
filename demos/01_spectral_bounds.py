"""Closed forms, sandwich bounds and exact certificates for the extremal
families.

Run:  python3 demos/01_spectral_bounds.py
"""

from spectree import (
    CompleteSplit,
    CompleteSplitPlus,
    build_family,
    lemma1_certificate,
    mu_S_closed,
    mu_S_plus_bounds,
    spectral_radius,
    walk_sum_B_u,
)

print("Closed form vs eigensolver for the complete-split graph S_{n,k}")
print(f"{'n':>4} {'k':>3} {'closed form':>14} {'eigh':>16} {'diff':>10}")
for n, k in [(5, 2), (8, 2), (20, 2), (30, 3), (60, 5)]:
    closed = mu_S_closed(n, k)
    numeric = spectral_radius(build_family(CompleteSplit(n, k))).mu
    print(f"{n:>4} {k:>3} {closed:>14.9f} {numeric:>16.9f} {abs(closed - numeric):>10.2e}")

print()
print("Adding one edge inside the independent set: mu sits strictly inside")
print("the sandwich (mu(S), mu(S) + 1/(n - k - 2 sqrt((n-k)/k)))")
for n, k in [(20, 2), (30, 3), (50, 2)]:
    lo, hi = mu_S_plus_bounds(n, k)
    mu = spectral_radius(build_family(CompleteSplitPlus(n, k))).mu
    print(f"  n={n:<3} k={k}:  {lo:.6f} < {mu:.6f} < {hi:.6f}")

print()
print("Integer quotient certificate: column sums of A^2 - (k-1)A - k(n-k)I")
print("vanish exactly on S_{n,k}, certifying mu = closed form with no floats")
g = build_family(CompleteSplit(8, 2))
cert = lemma1_certificate(g, 1, 12)
print(f"  S_(8,2): column sums {cert.column_sums}")
print(f"  verdict {cert.verdict}, certified root {cert.mu_prime}")

print()
print("The same quantity vertex by vertex: the walk sum B_u is zero at every")
print("vertex of the extremal graph (hub and independent-set alike)")
for u in (0, 1, 7):
    print(f"  B_{u} = {walk_sum_B_u(g, u, 2).b_u}")
