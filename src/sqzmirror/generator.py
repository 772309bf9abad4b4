"""Compile bilinear Lindblad-type generators into Gaussian moment equations.

A generator is a quadratic Hamiltonian H = (1/2) X^T G X plus dissipator
terms rate * (2 L rho M - M L rho - rho M L) with L, M linear in the
quadratures. For Gaussian states this closes on first/second moments:

    d<X>/dt = A <X> (+ mean drive),     dV/dt = A V + V A^T + D(t),

with A = U G + sum_i i*rate_i U (l m^T - m l^T) and
D = sum_i rate_i [(U m)(U l)^T + (U l)(U m)^T].

Terms may carry a harmonic tag h in {-1, 0, +1} meaning the rate is
multiplied by e^{i h * 2 Delta t}; the compiled drift must come out static
(the harmonic drift contributions have to cancel) while the diffusion keeps
a single e^{2i Delta t} sideband. This module is the single source of truth
for every drift/diffusion matrix in the package.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from .errors import GeneratorError, SimulationError
from .gaussian import symplectic_form
from .params import DerivedCoefficients, Harmonic

DRIFT_RTOL = 1e-9


@functools.cache
def annihilation_vector(n_modes: int, mode: int) -> NDArray[np.complex128]:
    """Coefficient vector a of the annihilation operator a = a^T X (read-only,
    cached)."""
    v = np.zeros(2 * n_modes, dtype=complex)
    v[2 * mode] = 1.0 / np.sqrt(2.0)
    v[2 * mode + 1] = 1j / np.sqrt(2.0)
    v.setflags(write=False)
    return v


def _amax(X):
    """Largest modulus of each matrix of a stack (..., m, m)."""
    return np.abs(X).max(axis=(-2, -1))


def hermitian_form(
    w: complex | NDArray, o: NDArray, p: NDArray
) -> NDArray[np.float64]:
    """Symmetric G with (1/2) X^T G X = w*(o^T X)(p^T X) + h.c. (mod constant).

    w, o and p broadcast over leading member axes (o and p along their last
    axis): an array w, or stacked vectors, give a stack of forms. With
    X = w o p^T, G = K + K^T for K = X + X^dagger, which is real for every
    w, o and p: G = 2 (Re X + Re X^T).
    """
    X = (np.asarray(w)[..., None, None] * (o[..., :, None] * p[..., None, :])).real
    X = X + X.swapaxes(-1, -2)
    return X + X


@dataclass(slots=True)
class DissipatorTerm:
    """rate * e^{i*harmonic*2*Delta*t} * (2 L rho M - M L rho - rho M L)."""

    rate: complex  # or an array along the spec's member axis
    left: NDArray[np.complex128]  # L = left^T X
    right: NDArray[np.complex128]  # M = right^T X
    harmonic: int


@dataclass
class GeneratorSpec:
    """Quadratic Hamiltonian plus bilinear dissipators for n modes.

    The Hamiltonian, the rates and delta may carry leading member axes: the
    spec then describes one model at several points (compile_stack).
    """

    n_modes: int
    hamiltonian: NDArray[np.float64]
    dissipators: list[DissipatorTerm] = field(default_factory=list)
    delta: float = 0.0  # harmonic terms oscillate at 2*delta; per member

    def add_dissipator(self, rate, left, right, harmonic: int = 0) -> None:
        # an array rate carries the member axis
        rate = np.asarray(rate, complex) if isinstance(rate, np.ndarray) else complex(rate)
        self.dissipators.append(DissipatorTerm(rate, left, right, harmonic))

    def add_harmonic_dissipator(self, rate: Harmonic, left, right) -> None:
        """Expand a Harmonic rate into tagged static-amplitude terms, each
        kept when it is nonzero at any member."""
        for amp, h in ((rate.c0, 0), (rate.cp, +1), (rate.cm, -1)):
            if np.count_nonzero(amp):
                self.add_dissipator(amp, left, right, h)


@dataclass(frozen=True)
class MomentEquations:
    """dV/dt = A V + V A^T + D(t), with D(t) = D0 + (D2 e^{i omega t} + c.c.)."""

    drift: NDArray[np.float64]
    diffusion_static: NDArray[np.float64]
    diffusion_harmonic: NDArray[np.complex128]  # e^{+i omega t} amplitude
    omega: float  # 2*Delta; 0 when the diffusion is static


@dataclass(frozen=True)
class MomentStack(Sequence):
    """The MomentEquations of the S members of one compile, as arrays along a
    leading member axis; member k is self[k]."""

    drift: NDArray[np.float64]  # (S, dim, dim)
    diffusion_static: NDArray[np.float64]
    diffusion_harmonic: NDArray[np.complex128]
    omega: NDArray[np.float64]  # (S,)

    def __len__(self) -> int:
        return len(self.omega)

    def __getitem__(self, k) -> MomentEquations:
        return MomentEquations(self.drift[k], self.diffusion_static[k],
                               self.diffusion_harmonic[k], self.omega[k])


HARMONICS = (-1, 0, 1)
_REFUSALS = (
    "term list is not self-adjoint (complex static moments)",
    "harmonic terms produce a time-dependent drift",
    "term list is not self-adjoint (sidebands not conjugate)",
)


def compile_stack(spec: GeneratorSpec) -> MomentStack:
    """Compile a spec whose Hamiltonian, rates and delta may carry member axes.

    The Hamiltonian (..., dim, dim), the rates and delta broadcast to one
    member shape, whose S members are compiled in row-major order (one
    member without member axes). The terms are stacked into L, R (T, 2n)
    and their rates into W[h, t, s], nonzero only where term t carries tag
    h. One einsum over all terms and tags gives, per member and tag,
    K_h = sum_t W[h, t, s] (U l_t)(U m_t)^T, which is U k_h U^T for
    k_h = sum_t W[h, t, s] l_t m_t^T. Since U is a signed permutation
    (U^T U = 1), A_h = i U (k_h - k_h^T) = i (K_h - K_h^T) U (plus U G at
    h = 0) and D_h = U (k_h + k_h^T) U^T = K_h + K_h^T.

    The structure (shape, symmetry, tags) is checked once; the numeric
    refusals member by member, in order, each against that member's own
    scale. Returns the members' MomentEquations, stacked.
    """
    dim = 2 * spec.n_modes
    G = np.asarray(spec.hamiltonian, dtype=float)
    if G.shape[-2:] != (dim, dim) or np.count_nonzero(
            _amax(G - G.swapaxes(-1, -2)) > 1e-12 * np.maximum(_amax(G), 1.0)):
        raise GeneratorError("hamiltonian must be a symmetric 2n x 2n matrix")
    terms = spec.dissipators
    tag = next((t.harmonic for t in terms if t.harmonic not in HARMONICS), None)
    if tag is not None:
        raise GeneratorError(f"unsupported harmonic tag {tag}")

    # the member shape; distinct shapes are few, however many the terms
    shape = np.broadcast_shapes(*{G.shape[:-2], np.shape(spec.delta),
                                  *(getattr(t.rate, "shape", ()) for t in terms)})
    S = math.prod(shape)
    W = np.zeros((len(HARMONICS), len(terms)) + shape, dtype=complex)
    for k, t in enumerate(terms):
        W[t.harmonic + 1, k] = t.rate
    U = symplectic_form(spec.n_modes)
    UL, UR = (np.array([t.left for t in terms] + [t.right for t in terms])
              .reshape(2, -1, dim) @ U.T)
    K = np.einsum("hts,ti,tj->shij", W.reshape(len(HARMONICS), len(terms), S), UL, UR)
    Kt = K.swapaxes(-1, -2)
    D = K + Kt
    A0 = 1j * ((K[:, 1] - Kt[:, 1]) @ U)
    A0.reshape(shape + (dim, dim))[...] += U @ G

    D0, D2 = D[:, 1], D[:, 2]
    # per member: |A0|, |D0|, |Im A0|, |Im D0|, |A_-1|, |A_+1|, the sideband
    # mismatch and |D2|; |A_h| = |K_h - K_h^T| entry for entry, U being a
    # signed permutation
    big = _amax(np.concatenate([A0[:, None], D0[:, None], A0.imag[:, None],
                                D0.imag[:, None], K[:, ::2] - Kt[:, ::2],
                                (D[:, 0] - np.conj(D2))[:, None], D2[:, None]], axis=1))
    scale = DRIFT_RTOL * np.maximum(big[:, :2].max(axis=1), 1.0)
    # columns: complex static moments, harmonic drift, unpaired sidebands
    defect = np.maximum.reduceat(big[:, 2:7], [0, 2, 4], axis=1) > scale[:, None]
    if np.count_nonzero(defect):
        raise GeneratorError(_REFUSALS[np.argwhere(defect)[0, 1]])

    omega = np.where((big[:, 7] > 0).reshape(shape), 2.0 * spec.delta, 0.0).ravel()
    return MomentStack(A0.real, D0.real, D2, omega)


def compile_generator(spec: GeneratorSpec) -> MomentEquations:
    """Derive the first/second-moment evolution from a generator description.

    compile_stack of a spec without a member axis. Raises GeneratorError
    when the term list is not self-adjoint (complex residues in A or D) or
    would produce a time-dependent drift.
    """
    return compile_stack(spec)[0]


# the reservoir correlations (N, M) at which compile_injections compiles
RESERVOIR_INJECTIONS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
_INJECTED = np.array(RESERVOIR_INJECTIONS).T  # (N, M) rows over the injections
_INJECTED.setflags(write=False)


def compile_injections(
    model: Callable[[DerivedCoefficients], GeneratorSpec], coeffs: DerivedCoefficients
) -> list[MomentEquations]:
    """Compile model(coeffs) at each of RESERVOIR_INJECTIONS, in one build.

    The moment equations are affine in the reservoir correlations (N, M)
    and their drift does not depend on them, so these three compiles give
    every squeezing degree: the diffusion at (N, M) is D(0,0) +
    N [D(1,0) - D(0,0)] plus M times the sideband of D(0,1). model is
    called once, with N and M arrays over the three injections in front of
    the axis of points of coeffs (derive of params.stack_points), and must
    broadcast over them; compile_stack compiles the resulting member axes.
    The fields of each injection's MomentEquations carry the axis of points
    of coeffs. Raises SimulationError when, at any point, the drift differs
    between the injections.
    """
    points = np.shape(coeffs.nbar0)
    N, M = _INJECTED.reshape((2, 3) + (1,) * len(points))
    eqs = compile_stack(model(replace(coeffs, N=N, M=M)))
    drift, d0, d2 = (x.reshape((3,) + points + x.shape[-2:])
                     for x in (eqs.drift, eqs.diffusion_static, eqs.diffusion_harmonic))
    omega = eqs.omega.reshape((3,) + points)
    moved = np.abs(drift[1:] - drift[0]).max(axis=(0, -2, -1)) > 1e-9 * _amax(drift[0])
    if np.count_nonzero(moved):
        raise SimulationError("drift acquired reservoir dependence")
    return [MomentEquations(drift[j], d0[j], d2[j], omega[j]) for j in range(3)]


def _thermal_terms(spec: GeneratorSpec, mode: int, gamma, nbar) -> None:
    """Thermal damping of one mode; the heating term is kept when any
    member's occupation is nonzero."""
    a = annihilation_vector(spec.n_modes, mode)
    ac = np.conj(a)
    spec.add_dissipator(gamma * (nbar + 1.0), a, ac)
    if np.count_nonzero(nbar):
        spec.add_dissipator(gamma * nbar, ac, a)


def _require_static(h: Harmonic, what: str) -> complex:
    if not h.is_static():
        raise GeneratorError(f"{what} acquired a harmonic part; cannot compile")
    return h.c0


# the two mirrors' annihilation vectors and the relative mode (a1 - a2)/sqrt(2)
_MIRROR_VECTORS = np.array([annihilation_vector(2, 0), annihilation_vector(2, 1), (
    annihilation_vector(2, 0) - annihilation_vector(2, 1)) / np.sqrt(2.0)])
_MIRROR_VECTORS.setflags(write=False)


def reduced_generator(coeffs: DerivedCoefficients) -> GeneratorSpec:
    """Two-mirror generator after adiabatic elimination of the cavity.

    Modes are (mirror 1, mirror 2); the cavity acts only on the relative
    mode (a1 - a2)/sqrt(2) through thermal-like and squeezing-like
    dissipators with reservoir-phase sidebands, plus a static frequency
    shift and a quadratic squeezing drive in the effective Hamiltonian.
    """
    p = coeffs.params
    eta2 = p.eta0**2
    a1, a2, am = _MIRROR_VECTORS
    a1c, a2c, amc = np.conj(_MIRROR_VECTORS)

    xi_p, xi_m = coeffs.xi_harmonics(p.omega_m)

    # effective Hamiltonian pieces; their harmonic parts cancel identically
    squeeze_w = _require_static(
        (xi_m - xi_p.conj()) * (1j * eta2), "relative-mode squeezing drive"
    )
    shift = _require_static(
        (xi_p + xi_m).im() * (-2.0 * eta2), "relative-mode frequency shift"
    ).real

    G = hermitian_form(p.omega_m / 2.0, a1c, a1)
    G += hermitian_form(p.omega_m / 2.0, a2c, a2)
    # the two below carry the member axis of array (N, M)
    G = G + hermitian_form(shift / 2.0, amc, am)
    G = G + hermitian_form(squeeze_w, am, am)

    spec = GeneratorSpec(n_modes=2, hamiltonian=G, delta=p.delta)
    for mode in (0, 1):
        _thermal_terms(spec, mode, p.gamma_m, coeffs.nbar0)
    spec.add_harmonic_dissipator(xi_p.re() * (2.0 * eta2), am, amc)
    spec.add_harmonic_dissipator(xi_m.re() * (2.0 * eta2), amc, am)
    spec.add_harmonic_dissipator((xi_p.conj() + xi_m) * eta2, am, am)
    spec.add_harmonic_dissipator((xi_m.conj() + xi_p) * eta2, amc, amc)
    return spec


def full_generator(coeffs: DerivedCoefficients) -> GeneratorSpec:
    """Linearized three-mode generator: (cavity, mirror 1, mirror 2).

    The cavity couples to the mirror positions with a pi-phase difference
    (eta1 = -eta2 = eta0). The squeezed reservoir enters as thermal-like (N)
    and phase-tagged anomalous (M) cavity dissipators.
    """
    p = coeffs.params
    c = annihilation_vector(3, 0)
    cc = np.conj(c)
    mirrors = [annihilation_vector(3, 1), annihilation_vector(3, 2)]
    etas = (p.eta0, -p.eta0)

    G = hermitian_form(p.delta / 2.0, cc, c)
    # (alpha c^dag + alpha* c) as a real quadrature form, one per point
    alpha = np.asarray(coeffs.alpha)[..., None]
    w = alpha * cc + np.conj(alpha) * c
    for a_j, eta_j in zip(mirrors, etas):
        G = G + hermitian_form(p.omega_m / 2.0, np.conj(a_j), a_j)
        G = G + hermitian_form(eta_j / 2.0, a_j + np.conj(a_j), w)

    spec = GeneratorSpec(n_modes=3, hamiltonian=G, delta=p.delta)
    spec.add_dissipator(p.kappa * (coeffs.N + 1.0), c, cc)
    if np.count_nonzero(coeffs.N):
        spec.add_dissipator(p.kappa * coeffs.N, cc, c)
    if np.count_nonzero(coeffs.M):
        spec.add_dissipator(-p.kappa * coeffs.M, c, c, harmonic=+1)
        spec.add_dissipator(-p.kappa * np.conj(coeffs.M), cc, cc, harmonic=-1)
    for mode in (1, 2):
        _thermal_terms(spec, mode, p.gamma_m, coeffs.nbar0)
    return spec
