"""
Counting the optimal bit strings
=================================

Exhaustively enumerates all 2^T bit strings for the {H, 1} coin set and
counts how many reach unit fidelity. The count is checked at three
tolerances to show it is insensitive to the threshold, and the
extension map b -> b1 is tested on each optimal set: appending an
identity step preserves optimality for most strings but not all.
"""

from walkmeg import (
    HADAMARD,
    IDENTITY,
    brute_force,
    extension_closure_report,
)

print(f"{'T':>3} {'count @1e-6':>12} {'count @1e-9':>12} {'count @1e-12':>13}")
for T in range(3, 15):
    counts = brute_force(T, HADAMARD, IDENTITY).counts
    row = [counts[tol] for tol in (1e-6, 1e-9, 1e-12)]
    print(f"{T:>3} {row[0]:>12} {row[1]:>12} {row[2]:>13}")

# How does the optimal set at T relate to the one at T+1? Append a 1
# (an identity step) to every optimal string and re-test it.
print()
print("extension b -> b1 applied to every optimal string:")
print(f"{'T':>3} {'optimal':>8} {'preserved':>10} {'violations':>11}")
for row in extension_closure_report(HADAMARD, IDENTITY, max_T=9):
    print(f"{row.T:>3} {row.n_optimal:>8} {row.n_preserved:>10} {row.n_violations:>11}")