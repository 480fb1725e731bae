"""High-precision mpmath oracle for the smallest-eigenvalue laws.

Written from the formulas alone; nothing here imports or mirrors wishartmin.

Exact finite-size law (beta = 1 real, beta = 2 complex), p x n data matrix
with population eigenvalues lam_1..lam_p:

    E(t) = exp(-r t) det(Lambda)^(-gamma) det(Q(t))^(beta/2),
    r = (beta/2) sum 1/lam,
    Q_ij(t) = q_ij sum_{k=0}^{min(p, a_ij)} e_k t^(p-k) / (a_ij - k)!,
    a_ij = p + 2(gamma+1)/beta - i - j   (entries with a_ij < 0 vanish),
    q_ij = (j-i)(-1)^(i+j) for beta = 1,  (-1)^(i+1) for beta = 2,

with gamma = (n-p-1)/2 (beta = 1) or n-p (beta = 2), i, j = 1..2 gamma/beta
and e_k the elementary symmetric polynomials of the spectrum.

Hard-edge limit in u = 4 p eta t:

    gap(u) = exp(-beta u/8) det(M(u))^(beta/2),
    M_ij(u) = qt_ij (u/4)^((i+j-kp)/2) I_{kp-i-j}(sqrt u),
    kp = 2(gamma+1)/beta, qt_ij = (j-i) (beta = 1), (-1)^(i+1) (beta = 2).

Both densities are -d/dt (resp. -d/du) of the gap, taken analytically with
Jacobi's formula d det^(b) = b det^(b) tr(M^-1 M'); the entry derivatives
are exact (term-wise for the polynomials, d/dx[x^-v I_v(x)] = x^-v I_{v+1}(x)
for the Bessel entries).  Evaluating E and P at 50 digits leaves at least
30 correct digits even where P/E is 1e-16, the deepest tail used here.
"""

from __future__ import annotations

import mpmath

DEFAULT_DPS = 50


def _gamma_of(beta: int, p: int, n: int) -> int:
    if beta == 1:
        if (n - p - 1) % 2 or n - p - 1 < 0:
            raise ValueError("beta=1 needs n - p - 1 even and non-negative")
        return (n - p - 1) // 2
    if beta == 2:
        if n < p:
            raise ValueError("beta=2 needs n >= p")
        return n - p
    raise ValueError(f"beta must be 1 or 2, got {beta}")


def _trace_of_product(a, b):
    """tr(a b) without forming the product."""
    n = a.rows
    return mpmath.fsum(a[i, j] * b[j, i] for i in range(n) for j in range(n))


class ExactOracle:
    """E(t) and P(t) of the finite-size law at ``dps`` decimal digits."""

    def __init__(self, lambdas, beta: int, n: int, dps: int = DEFAULT_DPS):
        self.beta = beta
        self.p = len(lambdas)
        self.gamma = _gamma_of(beta, self.p, n)
        self.dim = 2 * self.gamma // beta
        self.dps = dps
        with mpmath.workdps(dps):
            # mpf(float) is exact: the oracle sees the same doubles as the program
            lams = [mpmath.mpf(float(v)) for v in lambdas]
            e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * self.p
            for m, lam in enumerate(lams, start=1):
                for k in range(m, 0, -1):
                    e[k] += lam * e[k - 1]
            self.e = e
            self.rate = mpmath.mpf(beta) / 2 * mpmath.fsum(1 / lam for lam in lams)
            self.log_det_lambda = mpmath.fsum(mpmath.log(lam) for lam in lams)
            kappa = 2 * (self.gamma + 1) // beta
            # entries as lists of (coefficient, power of t)
            self.terms = [
                [self._entry_terms(i, j, kappa) for j in range(1, self.dim + 1)]
                for i in range(1, self.dim + 1)
            ]

    def _entry_terms(self, i: int, j: int, kappa: int):
        q = (j - i) * (-1) ** (i + j) if self.beta == 1 else (-1) ** (i + 1)
        a = self.p + kappa - i - j
        if q == 0 or a < 0:
            return []
        return [
            (q * self.e[k] / mpmath.factorial(a - k), self.p - k)
            for k in range(min(self.p, a) + 1)
        ]

    def _matrices(self, t):
        powers = [mpmath.mpf(1)]
        for _ in range(self.p):
            powers.append(powers[-1] * t)
        q = mpmath.matrix(self.dim, self.dim)
        dq = mpmath.matrix(self.dim, self.dim)
        for i, row in enumerate(self.terms):
            for j, terms in enumerate(row):
                q[i, j] = mpmath.fsum(c * powers[k] for c, k in terms)
                dq[i, j] = mpmath.fsum(c * k * powers[k - 1] for c, k in terms if k)
        return q, dq

    def _gap_and_trace(self, t):
        log_pref = -self.rate * t - self.gamma * self.log_det_lambda
        if self.dim == 0:
            return mpmath.exp(log_pref), mpmath.mpf(0)
        q, dq = self._matrices(t)
        det = mpmath.det(q)
        gap = mpmath.exp(log_pref) * det ** (mpmath.mpf(self.beta) / 2)
        return gap, _trace_of_product(mpmath.inverse(q), dq)

    def evaluate(self, t):
        """(E(t), P(t)) as mpf: the probability that every eigenvalue exceeds
        t >= 0, and the smallest-eigenvalue density -dE/dt."""
        with mpmath.workdps(self.dps):
            gap, trace = self._gap_and_trace(mpmath.mpf(t))
            return gap, gap * (self.rate - mpmath.mpf(self.beta) / 2 * trace)

    def quantile(self, prob: float, guess: float) -> float:
        """The t > 0 where the CDF 1 - E(t) equals prob, by Newton from guess."""
        with mpmath.workdps(self.dps):
            t = mpmath.mpf(guess)
            for _ in range(60):
                gap, density = self.evaluate(t)
                step = (1 - gap - prob) / density
                t_next = t - step if step < t else t / 2
                if abs(t_next - t) <= mpmath.mpf(1e-13) * t:
                    return float(t_next)
                t = t_next
        raise ArithmeticError(f"quantile {prob} did not converge from {guess}")


class MicroOracle:
    """Hard-edge gap and density at ``dps`` decimal digits."""

    def __init__(self, beta: int, gamma: int, dps: int = DEFAULT_DPS):
        if beta not in (1, 2) or gamma < 0:
            raise ValueError("need beta in (1, 2) and gamma >= 0")
        self.beta = beta
        self.gamma = gamma
        self.dim = 2 * gamma // beta
        self.kp = 2 * (gamma + 1) // beta
        self.dps = dps

    def _gap_and_trace(self, u):
        log_pref = -mpmath.mpf(self.beta) * u / 8
        if self.dim == 0:
            return mpmath.exp(log_pref), mpmath.mpf(0)
        x = mpmath.sqrt(u)
        bessel = {}  # integer orders only, so I_{-m} = I_m

        def besseli(order):
            if abs(order) not in bessel:
                bessel[abs(order)] = mpmath.besseli(abs(order), x)
            return bessel[abs(order)]

        m = mpmath.matrix(self.dim, self.dim)
        dm = mpmath.matrix(self.dim, self.dim)
        for i in range(1, self.dim + 1):
            for j in range(1, self.dim + 1):
                w = (j - i) if self.beta == 1 else (-1) ** (i + 1)
                if w == 0:
                    continue
                order = self.kp - i - j
                scale = w * (x / 2) ** (-order)
                m[i - 1, j - 1] = scale * besseli(order)
                dm[i - 1, j - 1] = scale * besseli(order + 1) / (2 * x)
        gap = mpmath.exp(log_pref) * mpmath.det(m) ** (mpmath.mpf(self.beta) / 2)
        return gap, _trace_of_product(mpmath.inverse(m), dm)

    def evaluate(self, u):
        """(gap(u), pmin(u)) as mpf at u > 0."""
        with mpmath.workdps(self.dps):
            gap, trace = self._gap_and_trace(mpmath.mpf(u))
            b = mpmath.mpf(self.beta)
            return gap, gap * (b / 8 - b / 2 * trace)
