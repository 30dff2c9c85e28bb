"""The 4-tensor forms of the Levi-Civita curvature, as test oracles.

rlab holds Rm in one layout, R_AB on bivectors A = (i<j).  The tests hold the
bivector readers against the n^4-component forms they replaced: R_{ijkl}
unpacked from R_AB, R^l_{ijk}, the coupled curvature S_{ijkl} and the (0,4)
Weyl tensor, each of a ``tensor.Geometry`` and built on every call.
"""

import numpy as np

from rlab.tensor import _bivectors, sm_tensor


def unpack_riemann(rab, n):
    """R_{ijkl} from R_AB; the pair antisymmetries are exact (sign flips)."""
    t = _bivectors(n)
    half = np.zeros(rab.shape[:1] + (n, n) + rab.shape[2:])   # R_{A,kl}
    half[:, t.bi, t.bj], half[:, t.bj, t.bi] = rab, -rab
    rm4 = np.zeros((n, n) + half.shape[1:])
    rm4[t.bi, t.bj], rm4[t.bj, t.bi] = half, -half
    return rm4


def rm4(f):
    """R_{ijkl} of a geometry."""
    return unpack_riemann(f.rm_ab, f.grid.n)


def rm13(f):
    """R^l_{ijk} = g^{lm} R_{ijkm}."""
    return np.einsum("lm...,ijkm...->lijk...", f.ginv, rm4(f))


def sm(f):
    """S_{ijkl} = R_{ijkl} - (a1/2)(g_{jl} d_i u d_k u + g_{kl} d_i u d_j u)."""
    return sm_tensor(rm4(f), f.du, f.g, f.alpha1)


def weyl_tensor(rm4, ric, scal, metric):
    """Weyl part of the lowered curvature (identically zero for n <= 3)."""
    n = metric.n
    g = metric.values
    if n < 4:
        return np.zeros_like(rm4)
    gR = (np.einsum("il...,jk...->ijkl...", g, ric)
          - np.einsum("ik...,jl...->ijkl...", g, ric)
          + np.einsum("jk...,il...->ijkl...", g, ric)
          - np.einsum("jl...,ik...->ijkl...", g, ric))
    gg = (np.einsum("il...,jk...->ijkl...", g, g)
          - np.einsum("ik...,jl...->ijkl...", g, g))
    return rm4 - gR / (n - 2) + scal * gg / ((n - 1) * (n - 2))


def weyl(f):
    """The (0,4) Weyl tensor of a geometry."""
    return weyl_tensor(rm4(f), f.ric, f.scalar, f.metric)
