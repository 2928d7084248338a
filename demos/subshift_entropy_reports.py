"""Entropy, independence and CPE evidence for three stock shift spaces.

The full shift is the everything-allowed baseline, the golden-mean shift
forbids "11" (positive entropy, still CPE-consistent evidence), and the
forbid-"01" shift has zero entropy and is certified not CPE at desk-scale
evidence: once a 0 appears, no 1 may ever follow, so the two letter
cylinders admit no independence positions at all.
"""

import math

from ordrank import (
    SubshiftSpec,
    count_words,
    entropy_estimate,
    entropy_rank_report,
    entropy_spectral,
    independence_status,
    is_independent,
)

STOCK = {
    "full shift": SubshiftSpec(alphabet=("0", "1"), forbidden=()),
    "golden mean": SubshiftSpec(alphabet=("0", "1"), forbidden=("11",)),
    "forbid 01": SubshiftSpec(alphabet=("0", "1"), forbidden=("01",)),
}

print("=== Word counts and entropy ===")
for name, spec in STOCK.items():
    counts = [count_words(spec, n) for n in range(1, 9)]
    print(f"  {name:12} counts {counts}")
    print(f"  {name:12} estimate(12) = {entropy_estimate(spec, 12):.6f}, "
          f"spectral = {entropy_spectral(spec):.6f}")
print(f"  (golden ratio log: {math.log((1 + math.sqrt(5)) / 2):.6f})")
print()

print("=== Independence of the letter cylinders 0 and 1 ===")
golden = STOCK["golden mean"]
print(f"  golden mean at {{0,1}}: {is_independent(golden, '0', '1', [0, 1])}"
      " (adjacent positions collide with the forbidden word)")
print(f"  golden mean at {{0,2}}: {is_independent(golden, '0', '1', [0, 2])}")
_, cert = independence_status(golden, "0", "1", horizon=8, density="0.5")
print(f"  certificate at horizon 8, density 1/2: positions {list(cert.positions)}")
_, bad = independence_status(STOCK["forbid 01"], "0", "1", horizon=8, density="0.5")
print(f"  forbid-01 certificate search: {bad}")
print()

print("=== CPE verdicts at evidence (n <= 2, horizon 8) ===")
for name, spec in STOCK.items():
    density = 1 if name == "full shift" else "0.5"
    report = entropy_rank_report(spec, n_max=2, horizon=8, density=density, budget=16)
    stages = [str(level.stabilization_stage) for level in report.levels]
    print(f"  {name:12} -> {report.verdict} (stages per level: {stages})")
