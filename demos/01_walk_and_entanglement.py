"""
A three-step walk that maximally entangles the coin
====================================================

Runs the walk defined by the bit string 001 (Hadamard, Hadamard,
identity) and prints the position distribution, the entanglement
entropy S_E, and the Shannon entropy S_S after each step. By step 3
the coin is maximally entangled with the walker no matter which pure
coin state the walk started from.
"""

import numpy as np

from walkmeg import (
    CoinSequence,
    HADAMARD,
    IDENTITY,
    InitialCoinState,
    average_entanglement,
    entanglement_entropy,
    evolve,
    initial_state,
    position_distribution,
    reduced_coin_state,
    second_moment,
    shannon_entropy,
    step,
)

seq = CoinSequence(HADAMARD, IDENTITY, "001")
init = InitialCoinState.named("H")

print("walk 001 from |H>, step by step")
print(f"{'t':>2} {'S_E':>10} {'S_S':>10} {'m':>8}  P(x) for x = -t..t")
state = initial_state(init)
for t in range(1, seq.T + 1):
    state = step(state, seq.coin_at(t))
    dist = position_distribution(state)
    s_e = entanglement_entropy(reduced_coin_state(state))
    s_s = shannon_entropy(dist)
    m = second_moment(dist)
    cells = " ".join(f"{p:.4f}" for p in dist.probabilities)
    print(f"{t:>2} {s_e:>10.6f} {s_s:>10.6f} {m:>8.4f}  [{cells}]")

# After step 3 every probability is 1/4 and both entropies saturate.
final = position_distribution(evolve(init, seq))
assert np.allclose(final.probabilities[::2], 0.25)

# The claim is stronger than one lucky initial state: average the
# entanglement entropy over a whole ensemble of pure coin states.
stats = average_entanglement(seq)
print()
print(f"ensemble of {stats.n} initial coin states:")
print(f"  mean S_E = {stats.mean:.12f}")
print(f"  std  S_E = {stats.std_dev:.3e}")