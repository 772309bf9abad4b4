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

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import GeneratorError
from .gaussian import symplectic_form
from .params import DerivedCoefficients, Harmonic

DRIFT_RTOL = 1e-9


def annihilation_vector(n_modes: int, mode: int) -> NDArray[np.complex128]:
    """Coefficient vector a of the annihilation operator a = a^T X."""
    v = np.zeros(2 * n_modes, dtype=complex)
    v[2 * mode] = 1.0 / np.sqrt(2.0)
    v[2 * mode + 1] = 1j / np.sqrt(2.0)
    return v


def hermitian_form(w: complex, o: NDArray, p: NDArray) -> NDArray[np.float64]:
    """Symmetric G with (1/2) X^T G X = w*(o^T X)(p^T X) + h.c. (mod constant)."""
    K = w * np.outer(o, p) + np.conj(w) * np.outer(np.conj(p), np.conj(o))
    G = K + K.T
    if np.abs(G.imag).max() > 1e-12 * max(np.abs(G).max(), 1.0):
        raise GeneratorError("hermitian_form produced a non-real quadratic form")
    return G.real


@dataclass(frozen=True)
class DissipatorTerm:
    """rate * e^{i*harmonic*2*Delta*t} * (2 L rho M - M L rho - rho M L)."""

    rate: complex
    left: NDArray[np.complex128]  # L = left^T X
    right: NDArray[np.complex128]  # M = right^T X
    harmonic: int = 0


@dataclass
class GeneratorSpec:
    """Quadratic Hamiltonian plus bilinear dissipators for n modes."""

    n_modes: int
    hamiltonian: NDArray[np.float64]
    dissipators: list[DissipatorTerm] = field(default_factory=list)
    delta: float = 0.0  # harmonic terms oscillate at 2*delta

    def add_dissipator(self, rate, left, right, harmonic: int = 0) -> None:
        self.dissipators.append(DissipatorTerm(complex(rate), left, right, harmonic))

    def add_harmonic_dissipator(self, rate: Harmonic, left, right) -> None:
        """Expand a Harmonic rate into tagged static-amplitude terms."""
        for amp, h in ((rate.c0, 0), (rate.cp, +1), (rate.cm, -1)):
            if amp != 0:
                self.add_dissipator(amp, left, right, h)

    def frozen(self, t: float) -> "GeneratorSpec":
        """Snapshot with every harmonic rate evaluated at time t (static spec)."""
        phase = np.exp(2j * self.delta * t)
        out = GeneratorSpec(self.n_modes, self.hamiltonian.copy(), [], 0.0)
        for term in self.dissipators:
            out.add_dissipator(term.rate * phase**term.harmonic, term.left, term.right)
        return out


@dataclass(frozen=True)
class MomentEquations:
    """dV/dt = A V + V A^T + D(t), with D(t) = D0 + (D2 e^{i omega t} + c.c.)."""

    drift: NDArray[np.float64]
    diffusion_static: NDArray[np.float64]
    diffusion_harmonic: NDArray[np.complex128]  # e^{+i omega t} amplitude
    omega: float  # 2*Delta; 0 when the diffusion is static

    @property
    def n_modes(self) -> int:
        return self.drift.shape[0] // 2

    @property
    def period(self) -> float | None:
        if self.omega == 0.0 or np.abs(self.diffusion_harmonic).max() == 0.0:
            return None
        return 2.0 * np.pi / self.omega

    def diffusion(self, t: float) -> NDArray[np.float64]:
        D = self.diffusion_static + 2.0 * np.real(
            self.diffusion_harmonic * np.exp(1j * self.omega * t)
        )
        return D


def _term_drift(term: DissipatorTerm, U: NDArray) -> NDArray[np.complex128]:
    l, m = term.left, term.right
    return 1j * term.rate * (U @ (np.outer(l, m) - np.outer(m, l)))


def _term_diffusion(term: DissipatorTerm, U: NDArray) -> NDArray[np.complex128]:
    ul, um = U @ term.left, U @ term.right
    return term.rate * (np.outer(um, ul) + np.outer(ul, um))


def compile_generator(spec: GeneratorSpec) -> MomentEquations:
    """Derive the first/second-moment evolution from a generator description.

    Raises GeneratorError when the term list is not self-adjoint (complex
    residues in A or D) or would produce a time-dependent drift.
    """
    dim = 2 * spec.n_modes
    G = np.asarray(spec.hamiltonian, dtype=float)
    if G.shape != (dim, dim) or np.abs(G - G.T).max() > 1e-12 * max(np.abs(G).max(), 1.0):
        raise GeneratorError("hamiltonian must be a symmetric 2n x 2n matrix")
    U = symplectic_form(spec.n_modes)

    A = {h: np.zeros((dim, dim), dtype=complex) for h in (-1, 0, 1)}
    D = {h: np.zeros((dim, dim), dtype=complex) for h in (-1, 0, 1)}
    A[0] += U @ G
    for term in spec.dissipators:
        if term.harmonic not in (-1, 0, 1):
            raise GeneratorError(f"unsupported harmonic tag {term.harmonic}")
        A[term.harmonic] += _term_drift(term, U)
        D[term.harmonic] += _term_diffusion(term, U)

    scale = max(np.abs(A[0]).max(), np.abs(D[0]).max(), 1.0)
    if max(np.abs(A[0].imag).max(), np.abs(D[0].imag).max()) > DRIFT_RTOL * scale:
        raise GeneratorError("term list is not self-adjoint (complex static moments)")
    if max(np.abs(A[1]).max(), np.abs(A[-1]).max()) > DRIFT_RTOL * scale:
        raise GeneratorError("harmonic terms produce a time-dependent drift")
    if np.abs(D[-1] - np.conj(D[1])).max() > DRIFT_RTOL * scale:
        raise GeneratorError("term list is not self-adjoint (sidebands not conjugate)")

    D0 = 0.5 * (D[0].real + D[0].real.T)
    D2 = 0.5 * (D[1] + D[1].T)
    return MomentEquations(
        drift=A[0].real,
        diffusion_static=D0,
        diffusion_harmonic=D2,
        omega=2.0 * spec.delta if np.abs(D2).max() > 0 else 0.0,
    )


def _thermal_terms(spec: GeneratorSpec, mode: int, gamma: float, nbar: float) -> None:
    a = annihilation_vector(spec.n_modes, mode)
    spec.add_dissipator(gamma * (nbar + 1.0), a, np.conj(a))
    if nbar > 0:
        spec.add_dissipator(gamma * nbar, np.conj(a), a)


def _require_static(h: Harmonic, what: str) -> complex:
    if not h.is_static():
        raise GeneratorError(f"{what} acquired a harmonic part; cannot compile")
    return h.c0


def reduced_generator(
    coeffs: DerivedCoefficients, t: float | None = None
) -> GeneratorSpec:
    """Two-mirror generator after adiabatic elimination of the cavity.

    Modes are (mirror 1, mirror 2); the cavity acts only on the relative
    mode (a1 - a2)/sqrt(2) through thermal-like and squeezing-like
    dissipators with reservoir-phase sidebands, plus a static frequency
    shift and a quadratic squeezing drive in the effective Hamiltonian.
    Pass t to freeze the reservoir phase at that instant.
    """
    p = coeffs.params
    eta2 = p.eta0**2
    a1 = annihilation_vector(2, 0)
    a2 = annihilation_vector(2, 1)
    am = (a1 - a2) / np.sqrt(2.0)

    xi_p = coeffs.xi_harmonic(p.omega_m, +1)
    xi_m = coeffs.xi_harmonic(p.omega_m, -1)

    # effective Hamiltonian pieces; their harmonic parts cancel identically
    squeeze_w = _require_static(
        (xi_m - xi_p.conj()) * (1j * eta2), "relative-mode squeezing drive"
    )
    shift = _require_static(
        (xi_p + xi_m).im() * (-2.0 * eta2), "relative-mode frequency shift"
    ).real

    G = hermitian_form(p.omega_m / 2.0, np.conj(a1), a1)
    G += hermitian_form(p.omega_m / 2.0, np.conj(a2), a2)
    G += hermitian_form(shift / 2.0, np.conj(am), am)
    G += hermitian_form(squeeze_w, am, am)

    spec = GeneratorSpec(n_modes=2, hamiltonian=G, delta=p.delta)
    for mode in (0, 1):
        _thermal_terms(spec, mode, p.gamma_m, coeffs.nbar0)
    spec.add_harmonic_dissipator(xi_p.re() * (2.0 * eta2), am, np.conj(am))
    spec.add_harmonic_dissipator(xi_m.re() * (2.0 * eta2), np.conj(am), am)
    spec.add_harmonic_dissipator((xi_p.conj() + xi_m) * eta2, am, am)
    spec.add_harmonic_dissipator((xi_m.conj() + xi_p) * eta2, np.conj(am), np.conj(am))
    return spec if t is None else spec.frozen(t)


def full_generator(
    coeffs: DerivedCoefficients,
    t: float | None = None,
    single_mirror: bool = False,
) -> GeneratorSpec:
    """Linearized three-mode generator: (cavity, mirror 1, mirror 2).

    The cavity couples to the mirror positions with a pi-phase difference
    (eta1 = -eta2 = eta0); `single_mirror` switches the second coupling off
    for cooling checks. The squeezed reservoir enters as thermal-like (N)
    and phase-tagged anomalous (M) cavity dissipators. Pass t to freeze the
    reservoir phase.
    """
    p = coeffs.params
    c = annihilation_vector(3, 0)
    mirrors = [annihilation_vector(3, 1), annihilation_vector(3, 2)]
    etas = (p.eta0, 0.0 if single_mirror else -p.eta0)

    G = hermitian_form(p.delta / 2.0, np.conj(c), c)
    # (alpha c^dag + alpha* c) as a real quadrature form
    w = coeffs.alpha * np.conj(c) + np.conj(coeffs.alpha) * c
    for a_j, eta_j in zip(mirrors, etas):
        G += hermitian_form(p.omega_m / 2.0, np.conj(a_j), a_j)
        if eta_j != 0.0:
            u = a_j + np.conj(a_j)
            G += hermitian_form(eta_j / 2.0, u, w)

    spec = GeneratorSpec(n_modes=3, hamiltonian=G, delta=p.delta)
    spec.add_dissipator(p.kappa * (coeffs.N + 1.0), c, np.conj(c))
    if coeffs.N > 0:
        spec.add_dissipator(p.kappa * coeffs.N, np.conj(c), c)
    if coeffs.M != 0:
        spec.add_dissipator(-p.kappa * coeffs.M, c, c, harmonic=+1)
        spec.add_dissipator(-p.kappa * np.conj(coeffs.M), np.conj(c), np.conj(c),
                            harmonic=-1)
    for mode in (1, 2):
        _thermal_terms(spec, mode, p.gamma_m, coeffs.nbar0)
    return spec if t is None else spec.frozen(t)
