"""One-parameter unitary groups and the symmetry of real/quaternionic spectra.

A continuous one-parameter unitary group U(t) has a unique skew-adjoint
generator S with U(t) = exp(tS).  Over the complex numbers S splits as
S = iA with A self-adjoint, the usual observable.  Over the reals there is
no i; over the quaternions the candidate A(v) = S(v) i fails to be linear
whenever S is nonzero, because right multiplications by i and j
anticommute.  The observable content that survives in both cases is a
spectrum symmetric about zero: if J is the antiunitary structure map
commuting with S, then J maps the c-eigenspace of A = -iS onto the
(-c)-eigenspace.

A real or quaternionic space is a complex one with the J of its conversion
to C on top; exp_group (one hermitian eigendecomposition, numpy alone) and
the spectrum check work on that complex form (``structures._complex_form``),
which a complex S is already, with nothing to project back.  The quaternionic
obstruction is witnessed against the threshold 0.1 |S|_F |v| / sqrt(n),
which the best standard basis vector clears twentyfold at every size n
(see quaternionic_obstruction_witness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, PreconditionError, UnsupportedError
from .hilbert import KMatrix, KVector, _as_complex, _complex_coeffs, _kproduct, _require_property, _require_within
from .scalars import COMPLEXES, QUATERNION_UNITS, _norms, _unit_scaled
from .structures import _complex_form, _projection, _structure_times, complexify, underlying_complex

__all__ = [
    "exp_group",
    "split_iA",
    "ObstructionReport",
    "quaternionic_obstruction_witness",
    "SpectrumReport",
    "symmetric_spectrum_check",
]

# quaternionic_obstruction_witness: a vector v is conclusive when its
# defect exceeds this, relative to |S|_F |v| / sqrt(n)
_WITNESS_REL_THRESHOLD = 0.1


def _conversion_to_c(s):
    """The conversion that carries a real or quaternionic S's space to C: its projection and its J."""
    return complexify if s.system.tag == "R" else underlying_complex


def _require_skew(s):
    """ShapeError unless S is square, PreconditionError unless |S + S*|_F <= 1e-10 |S|_F (hilbert's rule)."""
    _require_property(s.coeffs, "skew-adjoint", PreconditionError, "S")


def exp_group(s, t):
    """U(t) = exp(tS) for a skew-adjoint S over R, C or H, from one eigendecomposition.

    S must be square (else ShapeError) and skew-adjoint by hilbert's rule,
    |S + S*|_F <= 1e-10 |S|_F (else PreconditionError with that defect and
    bound), as for every other function that takes a generator.  exp(tm) is
    V diag(exp(-i w)) V* with (w, V) the eigendecomposition of the hermitian
    i t m, m S's complex form.  A complex U is returned as it is; a real or
    quaternionic one is projected back to S's system without pull's image
    test: U commutes with the structure map only up to rounding of order
    eps |tS|_F, which a test relative to max(1, |U|_F) = sqrt(n) refuses
    once |tS|_F reaches about 1e6.  For a real S the projection drops the
    imaginary part.  A t that is not finite is refused with
    PreconditionError before any array is built, and so, before any
    product, is one whose |t| |m|_F passes the largest float (``tol`` the
    largest |t| that does not; |m|_F taken exactly as r 2^e).
    """
    t = float(t)
    if not np.isfinite(t):
        raise PreconditionError(f"exp_group needs a finite t, got {t}")
    _require_skew(s)
    m = _complex_form(s.coeffs)
    scaled, exponent = _unit_scaled(m)
    with np.errstate(divide="ignore", over="ignore"):  # inf: every finite t (and S = 0)
        bound = float(np.ldexp(np.finfo(float).max / (2.0 * _norms(scaled)), 1 - exponent))
    _require_within(abs(t), bound, PreconditionError,
                    "t S is past the largest float: |t| {defect:.2e} > {tol:.2e}")
    w, v = np.linalg.eigh(1j * t * m)
    u = KMatrix.from_complex((v * np.exp(-1j * w)) @ v.conj().T)
    return u if s.system.tag == "C" else _projection(_conversion_to_c(s)(s.rows), u, image_test=False)


def split_iA(s):
    """The self-adjoint A with S = iA; only the complex scalars allow it."""
    if s.system.tag != "C":
        raise UnsupportedError(
            f"S = iA needs complex scalars, not {s.system.tag}; "
            "real and quaternionic generators have no such split"
        )
    _require_skew(s)
    return KMatrix.from_complex(-1j * s.to_complex())


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the search for a vector witnessing nonlinearity of A(v) = S(v) i."""

    found: bool
    vector: KVector | None
    defect: float
    threshold: float


def quaternionic_obstruction_witness(s):
    """Exhibit v with A(v j) != A(v) j for quaternionic skew-adjoint S != 0.

    A(v) := S(v) i is additive but anticommutes with right multiplication
    by j, so it is linear only when S = 0.  Any v with defect above
    0.1 |S|_F |v| / sqrt(n) is conclusive, and a standard basis vector
    always is.  S is H-linear, so A(v j) - A(v) j = S(v)(j i - i j) =
    -2 S(v) k and the defect is exactly 2 |S v|.  The squared column norms
    |S e_k|^2 sum to |S|_F^2, so some e_k has |S e_k| >= |S|_F / sqrt(n):
    its defect is at least twenty times the threshold, at every n.

    A(e_k j) - A(e_k) j is column k of (S j) i - (S i) j, every entry of S
    multiplied on the right by the units, so all n basis vectors cost a few
    passes over S.  The threshold is the same for every e_k; the first e_k
    of largest defect is reported.  Its norms are the package's one norm,
    exact under scaling by a power of two, so the witness of S 2^k is S's
    scaled by 2^k.  Where |S|_F passes the largest float, the search runs
    on S 2^-e, e the exponent of its largest entry, and the defect and
    threshold it decided on are reported times 2^e (inf past the largest
    float).
    """
    if s.system.tag != "H":
        raise UnsupportedError("the obstruction is quaternionic")
    _require_skew(s)
    coeffs, exponent = s.coeffs, 0
    s_norm = float(_norms(coeffs))
    if s_norm == 0.0:
        return ObstructionReport(found=False, vector=None, defect=0.0, threshold=0.0)
    if s_norm == np.inf:
        coeffs, exponent = _unit_scaled(coeffs)
        s_norm = float(_norms(coeffs))

    n, table = s.rows, s.system.table

    def times(x, unit):
        # right multiple of every entry of x by the unit
        coeffs = QUATERNION_UNITS[unit].coeffs[None, None]
        return _kproduct(x.reshape(-1, 1, 4), coeffs, table).reshape(x.shape)

    diff = times(times(coeffs, "j"), "i")
    with np.errstate(over="ignore"):  # an entry past half the largest float: its defect is inf
        diff -= times(times(coeffs, "i"), "j")
    defects = _norms(diff.swapaxes(0, 1), 2)
    best = int(np.argmax(defects))
    defect, threshold = float(defects[best]), float(_WITNESS_REL_THRESHOLD * s_norm / np.sqrt(n))
    # a lower bound: "not >" so that a NaN defect fails too
    if not defect > threshold:
        raise InternalInconsistencyError(
            "no obstruction vector found for a nonzero quaternionic generator", defect, threshold,
        )
    with np.errstate(over="ignore"):
        defect, threshold = map(float, np.ldexp([defect, threshold], exponent))
    vector = KVector.basis(s.system, n, best)
    return ObstructionReport(found=True, vector=vector, defect=defect, threshold=threshold)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues of A = -iS with the two defects of their negation pairing."""

    eigenvalues: np.ndarray
    pairing_defect: float
    eigenvector_defect: float


def symmetric_spectrum_check(s):
    """Measure how far the spectrum of A = -iS is from symmetric about 0, for a real or quaternionic S.

    A complex S raises UnsupportedError.  S must be square (else ShapeError)
    and skew-adjoint by hilbert's rule, |S + S*|_F <= 1e-10 |S|_F (else
    PreconditionError with that defect and bound); pushed to C, it
    commutes with the conversion's antiunitary J.  The report carries the
    sorted eigenvalues c_k, the pairing defect max |c_k + c_{n-1-k}|, and
    the eigenvector defect max |A J v_k + c_k J v_k| over the eigenvectors
    v_k.  Both vanish in exact arithmetic; the caller holds them to its own
    bound (the CLI's is --tol max(1, |S|_F)).  All three are taken on A
    scaled exactly by 2^-e (``scalars._unit_scaled``) and scaled back by
    2^e, so for 2^k S they are S's times 2^k, bit for bit (+-inf past the
    largest float), where LAPACK would rescale a large or small A by a
    factor that is not a power of two.
    """
    if s.system.tag == "C":
        raise UnsupportedError("a complex S splits as S = iA; nothing pairs its spectrum")
    _require_skew(s)
    a, exponent = _unit_scaled(-1j * _complex_form(s.coeffs))
    w, v = np.linalg.eigh(a)
    pairing = np.abs(w + w[::-1]).max(initial=0.0)
    # column k of u is J of eigenvector k; its residual is |A u_k + w_k u_k|
    v = _complex_coeffs(v)
    u = _as_complex(_structure_times(_conversion_to_c(s).structure[0], v, COMPLEXES).reshape(v.shape))
    worst = _norms((a @ u + u * w).T, 1).max(initial=0.0)
    with np.errstate(over="ignore"):
        w, pairing, worst = np.ldexp(w, exponent), *map(float, np.ldexp([pairing, worst], exponent))
    return SpectrumReport(eigenvalues=w, pairing_defect=pairing, eigenvector_defect=worst)
