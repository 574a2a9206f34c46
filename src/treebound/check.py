"""The certificate checker: weights lambda on the vectors X_k that put a
query p inside conv_<=(X), or a ray y that puts it outside, decided by
field multiplication, addition and exact sign alone: no LP, no basis,
nothing shared with the search, whose every answer `verify` checks here.
"""

from __future__ import annotations

from .numeric import parse_number, sign_of


def parse_lambda(terms, field):
    """The witness's (k, lambda_k) pairs, each weight read from its token
    as a number of the certificate's field (or a rational)."""
    return [(k, parse_number(tok, field)) for k, tok in terms]


def combination(X, lam):
    """sum lambda_k X_k when the (k, lambda_k) pairs lam are weights on X
    (each k names an X_k, none is negative, they sum to 1), else None."""
    if any(not 0 <= k < len(X) or sign_of(w) < 0 for k, w in lam):
        return None
    if sign_of(sum(w for _, w in lam) - 1) != 0:
        return None
    out = [0] * len(X[0])
    for k, w in lam:                # a weight of 1 needs no product
        for j, a in enumerate(X[k]):
            if a != 0:
                out[j] = out[j] + (a if w == 1 else w * a)
    return tuple(out)


def dominates(q, p) -> bool:
    """q >= p in every coordinate (a field element compares by exact sign)."""
    return len(q) == len(p) and all(a >= b for a, b in zip(q, p))


def witness_holds(p, X, lam) -> bool:
    """True iff the (k, lambda_k) pairs lam put p in conv_<=(X) exactly."""
    q = combination(X, lam)
    return q is not None and dominates(q, p)


def ray_holds(p, X, y) -> bool:
    """True iff y >= 0 and y . p > y . X_k for every X_k."""
    def dot(v):
        return sum(c * a for c, a in zip(y, v) if c != 0)

    top = dot(p)
    return (len(y) == len(p) and all(sign_of(c) >= 0 for c in y)
            and all(sign_of(top - dot(v)) > 0 for v in X))
