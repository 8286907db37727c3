"""Entangling-count and wall-time scaling of the two compilers.

Reproduces the qualitative picture at desk scale: the Shannon compiler
tracks the 4^n CNOT recurrence and stays below the Givens compiler at
every width, while both show the exponential wall in compile time.
"""

import time

import numpy as np

from atomqc import cnot_lower_bound, gate_counts, qrd_compile, qsd_compile, random_unitary

SAMPLES = 5

print(f"{'n':>2} {'qrd mean':>10} {'qsd mean':>10} {'bound':>7} {'qsd sec':>9}")
for n in range(2, 6):
    qrd_counts, qsd_counts, times = [], [], []
    for seed in range(SAMPLES):
        u = random_unitary(n, seed=seed)
        qrd_counts.append(gate_counts(qrd_compile(u)).entangling_total)
        start = time.perf_counter()
        c = qsd_compile(u)
        times.append(time.perf_counter() - start)
        qsd_counts.append(gate_counts(c).entangling_total)
    print(f"{n:>2} {np.mean(qrd_counts):>10.1f} {np.mean(qsd_counts):>10.1f} "
          f"{cnot_lower_bound(n):>7} {np.median(times):>9.4f}")

print()
print("qsd counts are deterministic (6, 36, 168, 720, ...); the gap to the")
print("lower bound persists at every n, matching the known recurrence.")
