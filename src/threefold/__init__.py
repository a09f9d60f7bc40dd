"""Linear algebra for quantum theory over the real, complex and quaternionic scalars.

The package implements, over all three associative normed division algebras:

* scalar arithmetic, including octonions (:mod:`threefold.scalars`),
* finite-dimensional Hilbert spaces as right modules (:mod:`threefold.hilbert`),
* the six faithful conversions between the three kinds of Hilbert space and
  the antilinear structure maps they induce (:mod:`threefold.structures`),
* the real/complex/quaternionic classification of group representations by
  Frobenius-Schur indicator and by invariant bilinear form
  (:mod:`threefold.representations`, :mod:`threefold.su2`),
* formally real Jordan algebras, their trace forms, states and positive
  cones (:mod:`threefold.jordan`),
* one-parameter unitary groups and the fate of "multiply by i" in the real
  and quaternionic settings (:mod:`threefold.spectra`).

``import threefold`` loads no submodule.  Each public name, and each
submodule, is imported on first use and then kept here (PEP 562).
"""

from importlib import import_module

# defining module -> the public names it exports
_EXPORTS = {
    "scalars": "COMPLEXES QUATERNIONS REALS Octonion Quaternion ScalarSystem",
    "hilbert": "KMatrix KVector",
    "structures": "AntilinearMap RepKind classify_tensor complexify quaternify quaternify_real"
    " tensor_antilinear underlying_complex underlying_real underlying_real_quat",
    "representations": "FiniteGroup FiniteGroupRep classify fs_indicator_finite"
    " invariant_bilinear_form structure_map",
    "su2": "classify_spin fs_indicator_su2 time_reversal_check",
    "jordan": "JordanElement JordanState h2_spin_isomorphism hermitian_kind jordan_product"
    " max_ignorance spin_kind",
    "spectra": "exp_group quaternionic_obstruction_witness split_iA"
    " symmetric_spectrum_check",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "errors", "groups", "cli")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
