"""Invariant polytope certificates: search, verification, reporting.

A certificate for scaling alpha is a finite set X of nonnegative vectors with
V0/alpha in conv_<=(X) and B(x, y) in conv_<=(X) for every ordered pair from
X.  It proves count(n) <= C*alpha^n with C = max over X of F.x.

The search iterates the closure: add every product that escapes the dominated
hull, reduce, repeat.  Some systems approach their limit polytope along exact
geometric sequences without ever reaching it; the search therefore watches,
for each escaping product B(x, y), the orbit of x (resp. y) under the fixed
other factor, and when three consecutive orbit points have exactly
proportional consecutive differences with ratio r in (0, 1) it also inserts
the extrapolated limit point.  Inserting any vector is sound: validity is
decided solely by the closure conditions, whose every answer the verifier
takes only once `check` has accepted its evidence, and a wrong guess merely
fails to close.
"""

from __future__ import annotations

from dataclasses import dataclass, field as data_field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .check import (combination, dominates, parse_lambda, ray_holds,
                    witness_holds)
from .errors import (
    DimensionMismatch,
    EvidenceRejected,
    LevelBudgetExceeded,
    NonPositiveScale,
    ParseError,
)
from .geometry import (
    Hull,
    Vec,
    hull_reduce,
    member_dominated_hull,
    vec_is_nonnegative,
    vec_scale,
    vec_sub,
)
from .numeric import (
    PARSE_FAULTS,
    Directives,
    NumberField,
    decimal_str,
    format_number,
    invert,
    parse_field_header,
    parse_number,
    read_text,
    sign_of,
)
from .system import BilinearSystem, apply, bk_levels, level_max


@dataclass(frozen=True)
class SearchConfig:
    max_iterations: int = 10_000
    max_vectors: int = 2_000

    def __post_init__(self):
        if self.max_iterations < 1 or self.max_vectors < 1:
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class Certificate:
    field: Optional[NumberField]       # None for purely rational alpha
    alpha: object                      # positive scaling value
    vectors: Tuple[Vec, ...]           # all >= 0, closed modulo conv_<=
    seeds: Tuple[Vec, ...] = ()
    C: object = None                   # max F.x over vectors (derived)
    coord_names: Optional[Tuple[str, ...]] = None
    # query key ("v0" or (i, j)) -> its witness's (k, lambda token) terms
    witnesses: Optional[Mapping] = None


@dataclass(frozen=True)
class Found:
    certificate: Certificate
    iterations: int


@dataclass(frozen=True)
class BudgetExhausted:
    vectors: Tuple[Vec, ...]           # partial state, resumable as seeds
    iterations: int
    reason: str
    growth_trace: Tuple = ()           # (k, max F.v over B^k(V0/alpha)) pairs


@dataclass(frozen=True)
class Valid:
    C: object
    # evidence, not part of the verdict: every query's key and (k, lambda_k)
    # terms, lambda_k the file's token or the kernel's number
    wits: Tuple = data_field(default=(), compare=False)


@dataclass(frozen=True)
class Invalid:
    witness: Vec
    kind: str                          # 'seed' or 'product'
    pair: Optional[Tuple[Vec, Vec]] = None
    ray: Optional[Vec] = data_field(default=None, compare=False)


def _queries(s: BilinearSystem, alpha, vectors: Sequence[Vec]):
    """The closure conditions' membership queries, in the order they are
    checked, each with its witness key: V0/alpha under "v0", then
    B(X_i, X_j) under (i, j) for every ordered pair."""
    yield "v0", vec_scale(s.v0, invert(alpha))
    for i, x in enumerate(vectors):
        for j, y in enumerate(vectors):
            yield (i, j), apply(s, x, y)


def verify_certificate(s: BilinearSystem, alpha, vectors: Sequence[Vec],
                       witnesses: Optional[Mapping] = None,
                       field: Optional[NumberField] = None):
    """Independent check of the two closure conditions; shares no search state.

    Each query is settled by evidence that `check` accepts: its witness
    (lambda read in `field`) when one is given and holds, else the weights
    or ray of `member_dominated_hull` against one Hull of the vectors,
    built at the first such query; evidence that fails raises
    EvidenceRejected.  Valid(C) certifies count(n) <= C*alpha^n for all n
    and carries every query's wit terms; Invalid carries the offending
    vector or escaping product and its ray.
    """
    if not vectors:
        raise ValueError("empty certificate")
    for v in vectors:
        if len(v) != s.dim:
            raise DimensionMismatch("certificate vector of wrong dimension")
        if not vec_is_nonnegative(v):
            raise ValueError("certificate vectors must be nonnegative")
    if sign_of(alpha) <= 0:
        raise NonPositiveScale("alpha must be positive")
    witnesses, hull, wits, checked = witnesses or {}, None, [], {}
    for key, p in _queries(s, alpha, vectors):
        terms = witnesses.get(key)
        if terms is not None:
            try:
                lam = parse_lambda(terms, field)
            except PARSE_FAULTS as exc:
                raise ParseError(f"bad weight in wit {_wit_key(key)}: {exc}"
                                 ) from None
        if terms is None or not witness_holds(p, vectors, lam):
            if hull is None:
                hull = Hull(vectors)
            terms = member_dominated_hull(p, hull)
            if not terms:
                if not ray_holds(p, vectors, terms):
                    raise EvidenceRejected(f"the ray for {_wit_key(key)} "
                                           "does not separate it")
                pair = (None if key == "v0"
                        else (vectors[key[0]], vectors[key[1]]))
                return Invalid(p, "product" if pair else "seed", pair, terms)
            # the hull hands an admitted point's weights back for each query
            # that point dominates: `checked` keeps the point they give
            q = checked.get(terms)
            if q is None:
                q = checked[terms] = combination(vectors, terms)
            if q is None or not dominates(q, p):
                raise EvidenceRejected(f"the weights for {_wit_key(key)} "
                                       "do not put it inside")
        wits.append((key, terms))
    return Valid(level_max(s, vectors), tuple(wits))


def _wit_key(key) -> str:
    """A query's key as its wit line writes it: v0, or i j."""
    return key if key == "v0" else "%d %d" % key


# -- the fixed-point search -------------------------------------------------------


def _geometric_limit(u: Vec, v: Vec, w: Vec) -> Optional[Vec]:
    """Limit of the geometric sequence u, v, w, ... if it is exactly one.

    Requires w - v = r*(v - u) componentwise for a single ratio 0 < r < 1;
    returns w + (w - v)*r/(1 - r), or None if the pattern does not hold.
    """
    d1, d2 = vec_sub(v, u), vec_sub(w, v)
    r = None
    for a, b in zip(d1, d2):
        if sign_of(a) != 0:
            r = b * invert(a)
            break
    if r is None:
        return None
    if not (sign_of(r) > 0 and sign_of(1 - r) > 0):
        return None
    for a, b in zip(d1, d2):
        if sign_of(b - r * a) != 0:
            return None
    factor = r / (1 - r)
    limit = tuple(c + factor * d for c, d in zip(w, d2))
    if not vec_is_nonnegative(limit):
        return None
    return limit


def find_certificate(s: BilinearSystem, alpha, seeds: Sequence[Vec] = (),
                     cfg: SearchConfig = SearchConfig(),
                     number_field: Optional[NumberField] = None):
    """Iterate X -> Hull_<=(X + escaping products) from {V0/alpha} + seeds.

    Returns Found(certificate) at the fixed point, else BudgetExhausted with
    the partial vector set (usable as seeds to resume) and a growth trace.
    The certificate names number_field, or else the system's own field, so
    that its poly(...) entries parse back.
    """
    if sign_of(alpha) <= 0:
        raise NonPositiveScale("alpha must be positive")
    x0 = vec_scale(s.v0, invert(alpha))
    for v in seeds:
        if len(v) != s.dim:
            raise DimensionMismatch("seed vector of wrong dimension")
    # Every product of two vectors of the last X lies inside the next hull:
    # it was inside, or it escaped and was added, and conv_<= only grows.
    # So a pair is checked only when one of its vectors is new to X.
    # `carried` holds the points the last hull admitted and the vectors each
    # reduction drops: the next hull admits them again, so a product they
    # dominate needs no LP.
    carried: List[Vec] = []
    X = _reduce([x0, *seeds], carried)
    prior: set = set()
    provenance: Dict[Vec, Tuple[Vec, Vec]] = {}
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        escapes: List[Tuple[Vec, Vec, Vec]] = []
        hull = Hull(X)
        for p in carried:
            hull.admit(p)
        fresh = [x not in prior for x in X]
        for x, new_x in zip(X, fresh):
            for y, new_y in zip(X, fresh):
                if new_x or new_y:
                    p = apply(s, x, y)
                    if not member_dominated_hull(p, hull):
                        escapes.append((p, x, y))
        if not escapes:
            field = s.number_field if number_field is None else number_field
            cert = Certificate(field, alpha, tuple(X), tuple(seeds),
                               level_max(s, X), s.coord_names)
            return Found(cert, iterations)
        added: List[Vec] = []
        prior = set(X)
        seen = set(prior)
        for p, x, y in escapes:
            if p not in seen:
                seen.add(p)
                added.append(p)
                provenance[p] = (x, y)
            for u, v in _chain_tail(provenance, p, x, y):
                limit = _geometric_limit(u, v, p)
                if limit is not None and limit not in seen:
                    seen.add(limit)
                    added.append(limit)
        carried = hull.admitted
        X = _reduce(X + added, carried)
        if len(X) > cfg.max_vectors:
            return BudgetExhausted(tuple(X), iterations, "max_vectors",
                                   growth_trace(s, alpha))
    return BudgetExhausted(tuple(X), cfg.max_iterations, "max_iterations",
                           growth_trace(s, alpha))


def _reduce(X: List[Vec], carried: List[Vec]) -> List[Vec]:
    """hull_reduce(X), adding the vectors it drops to `carried`: they lie
    in conv_<=(X), which only grows."""
    kept = hull_reduce(X)
    carried.extend(set(X).difference(kept))
    return kept


def _chain_tail(provenance, p: Vec, x: Vec, y: Vec):
    """Orbit predecessors (u, v) such that v, p continue a fixed-factor chain.

    p = B(x, y): if x itself arose as B(x', y), the left orbit under y is
    x', x, p; symmetrically for the right slot.
    """
    out = []
    gen_x = provenance.get(x)
    if gen_x is not None and gen_x[1] == y:
        out.append((gen_x[0], x))
    gen_y = provenance.get(y)
    if gen_y is not None and gen_y[0] == x:
        out.append((gen_y[1], y))
    return out


GROWTH_TRACE_K = 10                # levels the growth trace reports


def growth_trace(s: BilinearSystem, alpha) -> Tuple:
    """(k, max F.v over B^k(V0/alpha)) for diagnosing alpha below the rate.

    Levels are expanded on the unscaled (rational) system and only the maxima
    are divided by alpha^k, which is the same by the scaling identity.
    """
    try:
        levels = bk_levels(s, GROWTH_TRACE_K)
    except LevelBudgetExceeded:
        return ()
    inv = invert(alpha)
    out = []
    scale = 1
    for k in range(1, GROWTH_TRACE_K + 1):
        scale = scale * inv
        out.append((k, level_max(s, levels[k]) * scale))
    return tuple(out)


# -- reporting ------------------------------------------------------------------


def upper_bound_report(alpha, C, vectors: int,
                       n_samples: Sequence[int] = (),
                       citation: Optional[str] = None) -> str:
    """The bound C * alpha^n of a certificate of `vectors` vectors, C as
    the search or the verifier derived it.  Exact values first, decimal
    brackets (6 digits) second, citation last."""
    lines = []
    lines.append(f"upper bound: count(n) <= C * alpha^n for all n")
    lines.append(f"  alpha = {format_number(alpha)}  ~ {decimal_str(alpha)}")
    lines.append(f"  C     = {format_number(C)}  ~ {decimal_str(C)}")
    lines.append(f"  certificate vectors: {vectors}")
    for n in n_samples:
        bound = C * alpha ** n
        lines.append(f"  n = {n}: count <= {decimal_str(bound)}")
    if citation:
        lines.append(f"  [{citation}]")
    return "\n".join(lines)


# -- certificate file format ----------------------------------------------------
#   field: c0,...,cd ; interval lo hi     (omitted for rational alpha)
#   alpha <number>
#   seed c1 ... cn     (optional, repeated)
#   vec  c1 ... cn     (repeated)
#   C <number>         (informative; re-derived on load)
#   states s1 ... sn   (optional coordinate provenance)
#   wit v0 k:l ...     (optional) witness that V0/alpha is in conv_<=(X)
#   wit i j k:l ...    (optional) witness that B(X_i, X_j) is in conv_<=(X)
# Witness indices are 0-based and count vec lines in file order; a term k:l
# gives X_k the weight l, a number in the file's own syntax, and the terms
# of one witness sum to 1.  `bound SYSTEM --alpha A --verify CERT
# --emit-certificate OUT` writes CERT's other lines followed by the wit
# line of every query that its verify checked: CERT's own where it holds,
# else k:1 when X_k dominates the query, else the weights of the admitted
# point that dominates it or of its LP, at most dim + 1 terms.


def format_certificate(cert: Certificate) -> str:
    lines = []
    if cert.field is not None:
        lines.append(cert.field.header())
    if cert.coord_names:
        lines.append("states " + " ".join(cert.coord_names))
    lines.append("alpha " + format_number(cert.alpha))
    for v in cert.seeds:
        lines.append("seed " + " ".join(format_number(c) for c in v))
    for v in cert.vectors:
        lines.append("vec " + " ".join(format_number(c) for c in v))
    if cert.C is not None:
        lines.append("C " + format_number(cert.C))
    return "\n".join(lines) + "\n"


def witnessed_text(text: str, wits) -> str:
    """The certificate file `text` with its wit lines replaced by one line
    per (key, terms) pair of `wits`, as `Valid.wits` holds them."""
    lines = [line for line in text.splitlines()
             if line.split()[:1] != ["wit"]]
    lines += [f"wit {_wit_key(key)} " + " ".join(
        f"{k}:{w if isinstance(w, str) else format_number(w)}"
        for k, w in terms) for key, terms in wits]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    nf: Optional[NumberField] = None
    alpha = None
    seeds: List[Vec] = []
    vectors: List[Vec] = []
    names = None
    c_stated = None
    witnesses: Dict = {}
    with Directives(text) as lines:
        for line in lines:
            kind, *args = line.split()
            if line.startswith("field:"):
                nf = parse_field_header(line)
            elif kind == "states":
                names = tuple(args)
            elif kind == "alpha":
                alpha = parse_number(args[0], nf)
            elif kind == "seed":
                seeds.append(tuple(parse_number(t, nf) for t in args))
            elif kind == "vec":
                vectors.append(tuple(parse_number(t, nf) for t in args))
            elif kind == "C":
                c_stated = parse_number(args[0], nf)
            elif kind == "wit":
                key, terms = _witness(args)
                if key in witnesses:
                    raise ParseError(f"a second wit {_wit_key(key)}")
                witnesses[key] = terms
            else:
                raise ParseError(f"unknown directive {kind!r}")
    if alpha is None or not vectors:
        raise ParseError("certificate needs an alpha line and vec lines")
    dims = {len(v) for v in vectors} | {len(v) for v in seeds}
    if len(dims) != 1:
        raise ParseError("inconsistent vector dimensions")
    return Certificate(nf, alpha, tuple(vectors), tuple(seeds), c_stated, names,
                       witnesses)


def _witness(args: Sequence[str]):
    """The key and (k, lambda token) terms of a wit line's fields.  Only the
    structure is read here: each weight stays a token until the verifier
    checks the witness, so a command that checks none never parses one."""
    if args[0] == "v0":
        key, terms = "v0", args[1:]
    else:
        key, terms = (_index(args[0]), _index(args[1])), args[2:]
    if not terms:
        raise ParseError("a witness needs k:lambda terms")
    out = []
    for term in terms:
        k, colon, tok = term.partition(":")
        if not colon:
            raise ParseError(f"witness term {term!r} is not k:lambda")
        out.append((_index(k), tok))
    return key, tuple(out)


def _index(tok: str) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"index {tok!r} is not a nonnegative integer")
    return int(tok)


def load_certificate(path) -> Certificate:
    return parse_certificate(read_text(path))
