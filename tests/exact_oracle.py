"""Exact constrained lumping over the rationals: a test oracle for the float
sweep at epsilon = 0, after CLUE (Ovchinnikov et al., *CLUE: exact maximal
reduction of kinetic models by constrained lumping of differential
equations*, Bioinformatics 2021).

A polynomial drift is read into sparse monomials ``{exponent tuple:
Fraction}``. Its Jacobian is J(x) = sum over beta of C_beta x^beta, and the
rational coefficient matrices C_beta span the same space as J(x) over all x.
The exact lumping is the smallest row space that holds the observables and
is invariant under every C_beta: the observable rows, grown in reduced
echelon form by every r C_beta that does not reduce to zero. The result is
exact for the model as parsed, whose constants are binary floats, not for
its decimal text.
"""

from fractions import Fraction

import numpy as np

from lumpkit import model


def _add(p, q, sign=1):
    out = dict(p)
    for a, c in q.items():
        out[a] = out.get(a, 0) + sign * c
    return {a: c for a, c in out.items() if c}


def _mul(p, q):
    out: dict = {}
    for a, c in p.items():
        for b, d in q.items():
            ab = tuple(map(sum, zip(a, b)))
            out[ab] = out.get(ab, 0) + c * d
    return {a: c for a, c in out.items() if c}


def monomials(expr, m: int) -> dict:
    """One drift tree as ``{exponent tuple: Fraction}``; ``Div`` only by a
    constant."""
    one = (0,) * m
    done: list = []
    for kind, arg in model._postfix(expr):
        if kind is model.Constant:
            done.append({one: Fraction(arg)} if arg else {})
        elif kind is model.Variable:
            done.append({tuple(int(k == arg) for k in range(m)): Fraction(1)})
        elif kind is model.Neg:
            done.append({a: -c for a, c in done.pop().items()})
        elif kind is model.IntPow:
            base, power = done.pop(), {one: Fraction(1)}
            for _ in range(arg):
                power = _mul(power, base)
            done.append(power)
        else:
            right, left = done.pop(), done.pop()
            if kind is model.Div:
                if set(right) != {one}:
                    raise ValueError("the oracle divides only by a nonzero constant")
                done.append({a: c / right[one] for a, c in left.items()})
            else:
                done.append(_mul(left, right) if kind is model.Mul else
                            _add(left, right, 1 if kind is model.Add else -1))
    return done.pop()


def jacobian_coefficients(system) -> list[dict]:
    """The C_beta, each as ``{i: {j: c}}``: J(x)[i, j] = sum of C_beta[i, j] x^beta."""
    C: dict = {}
    for i, expr in enumerate(system.drift):
        for alpha, c in monomials(expr, system.dim).items():
            for j, a in enumerate(alpha):
                if a:
                    beta = (*alpha[:j], a - 1, *alpha[j + 1:])
                    row = C.setdefault(beta, {}).setdefault(i, {})
                    row[j] = row.get(j, 0) + a * c
    return list(C.values())


def exact_lumping(system) -> np.ndarray:
    """An orthonormal float basis of the exact lumping's row space, one row
    per dimension; the rank itself is exact."""
    C = jacobian_coefficients(system)
    rows: dict = {}  # pivot column -> row with 1 there and 0 at every other pivot
    todo = [{j: Fraction(x) for j, x in enumerate(r) if x} for r in system.observables]
    while todo:
        v = todo.pop()
        for pivot, row in rows.items():
            if v.get(pivot):
                v = _add(v, {j: v[pivot] * x for j, x in row.items()}, -1)
        if not v:
            continue
        pivot = min(v)
        v = {j: x / v[pivot] for j, x in v.items()}
        for p, row in rows.items():
            if row.get(pivot):
                rows[p] = _add(row, {j: row[pivot] * x for j, x in v.items()}, -1)
        rows[pivot] = v
        for Cb in C:
            image: dict = {}
            for i, ri in v.items():
                for j, c in Cb.get(i, {}).items():
                    image[j] = image.get(j, 0) + ri * c
            todo.append({j: x for j, x in image.items() if x})
    B = np.zeros((len(rows), system.dim))
    for k, row in enumerate(rows.values()):
        for j, x in row.items():
            B[k, j] = float(x)
    return np.linalg.qr(B.T)[0].T
