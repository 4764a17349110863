"""Reference values computed apart from superbethe, with fractions.Fraction.

Nothing here imports the program. Each function rebuilds a quantity from its
defining formula, so that a comparison with the program's output checks the
program against the paper's definitions rather than against itself:

* dense_entries: T(u) = D R_{0L}(u,xi_L) ... R_{01}(u,xi_1) as a dense matrix
  on (auxiliary) x (sites), with R = I + g(u,xi) P and the graded permutation
  written out entry by entry, then cut into the nine blocks T_ij(u);
* vacuum_eigenvalues: lambda_1 = d_1 prod_k f(u, xi_k), lambda_2 = d_2,
  lambda_3 = d_3;
* izergin: K_n(v|u) = prod_{j<k} g(v_j,v_k) g(u_k,u_j) h(v,u)
  det[g(v_j,u_k)/h(v_j,u_k)], the determinant by the Leibniz sum.

Basis states are digit tuples over {0,1,2} (the program's 1,2,3), auxiliary
factor first, sites in order; parities are given as a 3-tuple per signature.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product


def frac(x) -> Fraction:
    """Any exact rational of the program (Fraction or mpq) as a Fraction."""
    return Fraction(str(x))


def g(u, v, c):
    return Fraction(c) / (u - v)


def f(u, v, c):
    return 1 + g(u, v, c)


def h(u, v, c):
    return (u - v + c) / Fraction(c)


def _matmul(a, b):
    n = len(a)
    cols = [[b[k][j] for k in range(n)] for j in range(n)]
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols] for row in a]


def _r_factor(states, index, parity, site, coupling):
    """I + coupling * P_{0,site}: P moves e_a at the auxiliary factor and e_b
    at the site past each other and past the factors in between, with sign
    (-1)^{[a][b] + ([a]+[b]) * (parities in between)}."""
    n = len(states)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for col, s in enumerate(states):
        mat[col][col] += 1
        a, b = s[0], s[site]
        between = sum(parity[d] for d in s[1:site])
        sign = -1 if (parity[a] * parity[b] + (parity[a] + parity[b]) * between) % 2 else 1
        t = list(s)
        t[0], t[site] = b, a
        mat[index[tuple(t)]][col] += sign * coupling
    return mat


def dense_monodromy(parity, c, xi, twist, u):
    """T(u) as a dense matrix indexed by states (auxiliary digit first)."""
    length = len(xi)
    states = list(product(range(3), repeat=length + 1))
    index = {s: k for k, s in enumerate(states)}
    n = len(states)
    acc = [[Fraction(twist[s[0]]) if i == j else Fraction(0) for j in range(n)] for i, s in enumerate(states)]
    for site in range(length, 0, -1):
        acc = _matmul(acc, _r_factor(states, index, parity, site, g(u, xi[site - 1], c)))
    return states, acc


def dense_entries(parity, c, xi, twist, u):
    """The nine blocks T_ij(u), i,j in 1..3, as {(i, j): {(row, col): value}}.

    Rows and columns are chain states encoded base 3, first site most
    significant. T(u) = sum E_ij (x) T_ij(u), so the block carries the Koszul
    sign (-1)^{[j] ([row] + [col])} of moving E_ij past T_ij(u).
    """
    states, mat = dense_monodromy(parity, c, xi, twist, u)

    def code(digits):
        k = 0
        for d in digits:
            k = 3 * k + d
        return k

    out = {(i, j): {} for i in range(1, 4) for j in range(1, 4)}
    for r, sr in enumerate(states):
        for q, sq in enumerate(states):
            val = mat[r][q]
            if not val:
                continue
            i, j = sr[0] + 1, sq[0] + 1
            chain_par = sum(parity[d] for d in sr[1:]) + sum(parity[d] for d in sq[1:])
            if parity[j - 1] * chain_par % 2:
                val = -val
            out[(i, j)][(code(sr[1:]), code(sq[1:]))] = val
    return out


def vacuum_eigenvalues(c, xi, twist, u):
    lam1 = Fraction(twist[0])
    for x in xi:
        lam1 *= f(u, x, c)
    return (lam1, Fraction(twist[1]), Fraction(twist[2]))


def _leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def izergin(vs, us, c):
    n = len(vs)
    pref = Fraction(1)
    for j in range(n):
        for k in range(j + 1, n):
            pref *= g(vs[j], vs[k], c) * g(us[k], us[j], c)
    for v in vs:
        for u in us:
            pref *= h(v, u, c)
    return pref * _leibniz_det([[g(v, u, c) / h(v, u, c) for u in us] for v in vs])
