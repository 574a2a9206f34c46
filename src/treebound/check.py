"""The certificate checker's test of one membership witness.

A certificate may carry, for a query p of its closure conditions, weights
lambda_k on its vectors X_k.  They prove p in conv_<=(X) when

    lambda_k >= 0,   sum lambda_k = 1,   sum lambda_k X_k >= p,

which this module decides with field multiplication, addition and exact
sign alone: no LP, no basis, nothing shared with the search.  A witness
that fails says nothing about p, so the verifier then asks its LP.
"""

from __future__ import annotations

from .numeric import parse_number, sign_of


def parse_lambda(terms, field):
    """The witness's (k, lambda_k) pairs, each weight read from its token
    as a number of the certificate's field (or a rational)."""
    return [(k, parse_number(tok, field)) for k, tok in terms]


def witness_holds(p, X, lam) -> bool:
    """True iff the (k, lambda_k) pairs lam put p in conv_<=(X) exactly.
    An index outside X, a negative weight or weights summing to other than
    1 make the witness fail."""
    if any(k >= len(X) or sign_of(w) < 0 for k, w in lam):
        return False
    total = 0
    for _, w in lam:
        total = total + w
    if sign_of(total - 1) != 0:
        return False
    for j, pj in enumerate(p):
        acc = -pj
        for k, w in lam:            # a weight of 1 needs no product
            acc = acc + (X[k][j] if w == 1 else w * X[k][j])
        if sign_of(acc) < 0:
            return False
    return True
