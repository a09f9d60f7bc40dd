"""
Dynamics and the fate of "multiply by i"
========================================

Over any of the three scalar systems a skew-adjoint S generates a
one-parameter unitary group exp(tS).  Only over C does S split as -iA
with A a self-adjoint observable: over R there is no i at all, and
over H there are too many.  The obstruction is detectable, and it
forces the spectrum of a real or quaternionic generator to be
symmetric about zero.
"""

import numpy as np

from threefold.hilbert import KMatrix
from threefold.scalars import QUATERNIONS, REALS
from threefold.spectra import (
    exp_group,
    quaternionic_obstruction_witness,
    split_iA,
    symmetric_spectrum_check,
)
from threefold.errors import UnsupportedError

rng = np.random.default_rng(4)

# a real rotation generator: exp(tS) is the rotation by angle t
s = KMatrix.from_real(np.array([[0.0, -1.0], [1.0, 0.0]]))
print("real generator S = [[0, -1], [1, 0]]:")
print(f"  exp((pi/2) S) =\n{exp_group(s, np.pi / 2).to_real().round(12)}")

# over C the generator is i times a self-adjoint observable
sc = KMatrix.from_complex(1j * np.diag([1.0, -2.0]))
a = split_iA(sc)
print("\ncomplex generator S = i diag(1, -2) splits as S = iA with A self-adjoint:")
print(f"  A = diag{tuple(float(x) for x in np.diag(a.to_complex()).real.round(12))}")

# the same request fails over R by design
try:
    split_iA(s)
except UnsupportedError as exc:
    print(f"\nsplit_iA over R raises UnsupportedError:\n  {exc}")

# over H the candidate A = S i is not even H-linear; the witness exhibits
# a vector where A(v j) != A(v) j
sq = KMatrix(QUATERNIONS, rng.standard_normal((2, 2, 4)))
sq = sq - sq.adjoint()
sq = sq.scale(0.5)
report = quaternionic_obstruction_witness(sq)
print("\nquaternionic obstruction witness:")
print(f"  found = {report.found}, defect = {report.defect:.3f}, "
      f"threshold = {report.threshold:.3f}")

# consequence: real and quaternionic generators have +/- paired spectra; the
# check pushes S to its complex form and applies the structure map J there
sr = KMatrix.from_real(rng.standard_normal((4, 4)))
sr = sr - sr.adjoint()
check = symmetric_spectrum_check(sr.scale(0.5))
print("\nspectrum of a complexified real skew generator (divided by i):")
print(f"  eigenvalues: {np.round(check.eigenvalues, 4)}")
print(f"  pairing defect = {check.pairing_defect:.2e}")

check = symmetric_spectrum_check(sq)
print("\nspectrum of a quaternionic skew generator, seen over C:")
print(f"  eigenvalues: {np.round(check.eigenvalues, 4)}")
print(f"  pairing defect = {check.pairing_defect:.2e}")

print("""
An energy observable bounded below therefore cannot coexist with real
or quaternionic scalars alone: standard quantum dynamics singles out
the complex case, with the other two reappearing as structure maps on
top of it.""")
