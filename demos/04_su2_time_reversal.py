"""
Spin, statistics and time reversal
==================================

For SU(2), the spin-j representation is real for integer j and
quaternionic for half-integer j; no complex kind ever appears.  The
same sign shows up three ways: the Frobenius-Schur indicator, the
square of the time-reversal operator, and the phase picked up under a
2 pi rotation.
"""

from threefold.su2 import classify_spin, time_reversal_check

print(f"{'j':>4s} {'fs':>6s} {'kind':>13s} {'T^2':>4s} {'2pi phase':>9s}")
print("-" * 42)
for twice in range(0, 11):
    j = twice / 2.0
    result = classify_spin(j)
    tr = time_reversal_check(result)
    fs = 0.0 if abs(result.fs) < 1e-9 else result.fs
    print(f"{j:>4.1f} {fs:>6.2f} {str(result.kind):>13s} "
          f"{result.kind.value:>+4d} {tr.rotation_2pi_phase:>+9d}")

print("""
T^2 = -1 for half-integer spin is Kramers degeneracy: no state of such
a system is time-reversal invariant, so every energy level of a
T-symmetric Hamiltonian is (at least) doubly degenerate.

Time reversal flips angular momentum, T Jz T^-1 = -Jz:""")

for j in (0.5, 1.0, 1.5):
    tr = time_reversal_check(classify_spin(j))
    print(f"  j = {j}: anticommutation defect = {tr.anticommutation_defect:.2e}, "
          f"expectation flip defect = {tr.expectation_flip_defect:.2e}")
