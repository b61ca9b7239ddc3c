"""Forward-difference invariants and the Lagrangian expression language.

A Lagrangian is a scalar expression over vector leaves ``D<order>(<index>)``,
the order-th forward difference of the control sequence starting at the named
point.  Grammar (whitespace between tokens is ignored)::

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := number | 'dot(' vec ',' vec ')' | 'trip(' vec ',' vec ',' vec ')'
            | '(' expr ')'
    vec    := 'D' order '(' index ')'

Orders are limited to 1..3; ``trip`` (the scalar triple product) only type
checks against 3D scenes.  Leaf indices follow the convention that index 1 is
the first control point of the connecting curve; smaller indices reach into
the fixed left data, larger ones into the right.
"""

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .bspline import is_integer
from .errors import DslSyntaxError, DslTypeError, InvalidArgument

MAX_ORDER = 3


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Diff:
    """Vector leaf D<order>(<index>)."""

    order: int
    index: int


@dataclass(frozen=True)
class Dot:
    left: Diff
    right: Diff

    @property
    def legs(self) -> tuple:
        return self.left, self.right


@dataclass(frozen=True)
class Trip:
    """Scalar triple product (left x middle) . right — 3D only."""

    left: Diff
    middle: Diff
    right: Diff

    @property
    def legs(self) -> tuple:
        return self.left, self.middle, self.right


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


Expr = Number | Dot | Trip | Sum | Product

# the invariants by name; the parser and the printer read arity and legs off the class
INVARIANTS = {"dot": Dot, "trip": Trip}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_INT = re.compile(r"-?\d+")
_EXPECTED_FACTOR = f"expected number, {''.join(f'{name}(...), ' for name in INVARIANTS)}or '('"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, at: int | None = None):
        # positions index characters; the error reports UTF-8 bytes
        at = self.pos if at is None else at
        raise DslSyntaxError(message, len(self.text[:at].encode()))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Expr:
        expr = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")
        return expr

    def chain(self, item, sep: str, node) -> Expr:
        """``item (sep item)*``, one item as itself and more as ``node``."""
        items = [item()]
        while self.peek() == sep:
            self.pos += 1
            items.append(item())
        return items[0] if len(items) == 1 else node(tuple(items))

    def expr(self) -> Expr:
        return self.chain(self.term, "+", Sum)

    def term(self) -> Expr:
        return self.chain(self.factor, "*", Product)

    def factor(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return inner
        for name, invariant in INVARIANTS.items():
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                legs = []
                for sep in "(" + "," * (len(invariant.__match_args__) - 1):
                    self.expect(sep)
                    legs.append(self.vec())
                self.expect(")")
                return invariant(*legs)
        m = _NUMBER.match(self.text, self.pos)
        if m and (ch.isdigit() or ch == "-" or ch == "."):
            value = float(m.group())
            if np.isinf(value):
                self.fail(f"number {m.group()} overflows to infinity")
            self.pos = m.end()
            return Number(value)
        self.fail(_EXPECTED_FACTOR)

    def vec(self) -> Diff:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "D":
            self.fail("expected difference leaf 'D<order>(<index>)'")
        start = self.pos
        self.pos += 1
        m = _INT.match(self.text, self.pos)
        if not m or m.group().startswith("-"):
            self.fail("expected difference order after 'D'")
        order = int(m.group())
        self.pos = m.end()
        if not 1 <= order <= MAX_ORDER:
            self.fail(f"difference order must be 1..{MAX_ORDER}", at=start)
        self.expect("(")
        self.skip_ws()
        m = _INT.match(self.text, self.pos)
        if not m:
            self.fail("expected integer leaf index")
        index = int(m.group())
        self.pos = m.end()
        self.expect(")")
        return Diff(order, index)


def parse_lagrangian(text: str) -> Expr:
    """Parse Lagrangian text; syntax errors carry the byte offset."""
    return _Parser(text).parse()


def format_lagrangian(expr: Expr) -> str:
    """Canonical text form; parse(format(e)) is structurally equal to e."""
    return _fmt(expr, top=True)


def _fmt(node: Expr, top: bool = False) -> str:
    if isinstance(node, Number):
        return repr(node.value)
    if isinstance(node, Diff):
        return f"D{node.order}({node.index})"
    for name, invariant in INVARIANTS.items():
        if isinstance(node, invariant):
            return f"{name}({','.join(map(_fmt, node.legs))})"
    if isinstance(node, Sum):
        body = " + ".join(_fmt(t) for t in node.terms)
        return body if top else f"({body})"
    if isinstance(node, Product):
        # a nested product keeps its parentheses, or it would parse back flat
        return "*".join(
            f"({_fmt(f)})" if isinstance(f, Product) else _fmt(f) for f in node.factors
        )
    raise InvalidArgument(f"unknown expression node {node!r}")


def _nodes(node: Expr):
    """The node and every node below it, depth first in syntactic order."""
    yield node
    for child in getattr(node, "terms", getattr(node, "factors", ())):
        yield from _nodes(child)


def lagrangian_leaves(expr: Expr) -> list[Diff]:
    """All difference leaves, in syntactic order (duplicates kept)."""
    return [leaf for node in _nodes(expr) for leaf in getattr(node, "legs", ())]


def leaf_point_span(expr: Expr) -> tuple[int, int]:
    """Inclusive range of base-point indices any leaf touches.

    D<l>(i) reads base points i .. i+l.
    """
    leaves = lagrangian_leaves(expr)
    if not leaves:
        raise DslTypeError("Lagrangian has no difference leaves")
    lo = min(leaf.index for leaf in leaves)
    hi = max(leaf.index + leaf.order for leaf in leaves)
    return lo, hi


def validate_lagrangian(expr: Expr, dim: int):
    """Dimension/type checks: trip() needs 3D, and some leaf must exist."""
    if dim not in (2, 3):
        raise InvalidArgument(f"dim must be 2 or 3, got {dim}")
    if dim == 2 and any(isinstance(node, Trip) for node in _nodes(expr)):
        raise DslTypeError("trip() is a triple product and needs a 3D scene")
    leaf_point_span(expr)  # raises on leaf-free expressions


# ---------------------------------------------------------------------------
# polynomial expansion and exact derivatives
# ---------------------------------------------------------------------------

# Every leaf is affine in the unknowns u, so the Lagrangian is a polynomial in
# u.  Up to MAX_DEGREE, and while its jet's coefficient matrix W (see
# _polynomial_jet) holds at most MAX_EXPANDED numbers, it is expanded once
# over all m unknowns; W grows as m^3 for a cubic and m^4 for a quartic.
# Past degree 4 the product rule is also the more accurate of the two.
MAX_DEGREE = 4
MAX_EXPANDED = 100_000


def degree(expr: Expr) -> int:
    """The Lagrangian's degree as a polynomial in its leaves."""
    if isinstance(expr, Sum):
        return max(degree(t) for t in expr.terms)
    if isinstance(expr, Product):
        return sum(degree(f) for f in expr.factors)
    return 3 if isinstance(expr, Trip) else 2 if isinstance(expr, Dot) else 0


def expand(expr: Expr, slot: dict, b: np.ndarray, A: np.ndarray, cap: int) -> list:
    """Coefficients ``[C0, C1, ..., Ck]`` of the Lagrangian in u, k <= cap.

    ``slot`` maps each leaf's (order, index) to its row of the leaf maps
    ``I = b + A @ u``, b (rows, dim) and A (rows, dim, m).  The Lagrangian is
    the sum of the C_j, shape (m,) * j and not symmetrized, contracted with u
    in every axis.  Terms above degree ``cap`` are dropped on the way, so
    ``cap=1`` gives the value and gradient at u = 0 and no more.
    """

    def leg(d: Diff) -> list:
        k = slot[d.order, d.index]
        return [b[k], A[k].T]

    def walk(node: Expr) -> list:
        if isinstance(node, Number):
            return [np.float64(node.value)]
        if isinstance(node, Dot):
            return _convolve(*map(leg, node.legs), np.inner, cap)
        if isinstance(node, Trip):
            if b.shape[-1] != 3:
                raise DslTypeError("trip() needs 3D leaves")
            # (b x c)_i = skew(-c)_ij b_j, then a . (b x c)
            cross = [_skew(-c) for c in leg(node.right)]
            cross = _convolve(leg(node.middle), cross, np.inner, cap)
            return _convolve(leg(node.left), cross, np.inner, cap)
        if isinstance(node, Sum):
            total, *rest = map(walk, node.terms)
            for part in rest:
                total = [x + y for x, y in zip(total, part)] + total[len(part) :] + part[len(total) :]
            return total
        if isinstance(node, Product):
            total, *rest = map(walk, node.factors)
            for part in rest:
                total = _convolve(total, part, np.multiply.outer, cap)
            return total
        raise InvalidArgument(f"cannot evaluate node {node!r}")

    return walk(expr)


def _convolve(p: list, q: list, pair, cap: int) -> list:
    """The product of two expansions up to degree cap; ``pair`` multiplies
    two coefficients, outer in their u axes (np.inner contracts leaf axes)."""
    out = [None] * min(len(p) + len(q) - 1, cap + 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q[: len(out) - i]):
            z = pair(x, y)
            out[i + j] = z if out[i + j] is None else out[i + j] + z
    return out


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices, skew(v) @ w == v x w, shape (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def compile_jet(expr: Expr, slot: dict, b: np.ndarray, A: np.ndarray):
    """The Lagrangian's value, gradient and Hessian in u as one function.

    The leaf maps are as in :func:`expand`.  The function takes u (..., m)
    and returns value (...), gradient (..., m) and Hessian (..., m, m), each
    row computed as if alone, every Hessian symmetric bit for bit and a
    writable array of its own.  Up to ``MAX_DEGREE`` and ``MAX_EXPANDED``
    the Lagrangian is expanded here, once, whatever its degree; otherwise
    part by part (:func:`_separable_jet`).
    """
    m, d = A.shape[-1], degree(expr)
    # W has 3 m^2 columns and one row per feature 1, u_i, u_i u_j up to degree d - 2
    if d <= MAX_DEGREE and 3 * m * m * sum(m**j for j in range(d - 1)) <= MAX_EXPANDED:
        return _polynomial_jet(expand(expr, slot, b, A, MAX_DEGREE), m)
    return _separable_jet(expr, slot, b, A)


def _separable_jet(expr: Expr, slot: dict, b: np.ndarray, A: np.ndarray):
    """The jet of a part past ``MAX_DEGREE`` or ``MAX_EXPANDED``: a dot, a trip
    or a part below degree 3 expanded, a sum's terms' jets added into place,
    and the product rule over a product's factors' jets.

    The terms are local difference invariants, so the Lagrangian is
    partially separable (Griewank & Toint, 1982): each term or factor is
    compiled on ``A[..., S]``, over only the unknowns S its leaves read, and
    one that reads none (a number, or a term of fixed data) expands to a
    constant in no unknowns.
    """
    m = A.shape[-1]
    if degree(expr) < 3 or isinstance(expr, Trip):
        return _polynomial_jet(expand(expr, slot, b, A, MAX_DEGREE), m)
    parts = []
    for part in getattr(expr, "terms", getattr(expr, "factors", ())):
        rows = [slot[leaf.order, leaf.index] for leaf in lagrangian_leaves(part)]
        S = np.flatnonzero(A[rows].any(axis=(0, 1)))
        parts.append((S, _separable_jet(part, slot, b, A[..., S])))
    # np.take gathers a batch in C order: a row's matmuls are those it takes alone

    def total(u):
        value, grad, hess = 0.0, np.zeros(u.shape), np.zeros(u.shape + (m,))
        for S, part in parts:
            v, g, H = part(np.take(u, S, axis=-1))
            value += v
            grad[..., S] += g
            hess[..., S[:, None], S] += H
        return value, grad, hess

    def product(u):
        jets = []
        for S, part in parts:
            w, h, K = part(np.take(u, S, axis=-1))
            g, H = np.zeros(u.shape), np.zeros(u.shape + (m,))
            g[..., S], H[..., S[:, None], S] = h, K
            jets.append((w, g, H))
        (v, g, H), *rest = jets
        for w, h, K in rest:
            O = g[..., :, None] * h[..., None, :]
            H = v[..., None, None] * K + w[..., None, None] * H + (O + np.swapaxes(O, -1, -2))
            v, g = v * w, v[..., None] * h + w[..., None] * g
        return v, g, H

    return total if isinstance(expr, Sum) else product


def _polynomial_jet(C: list, m: int):
    """The jet of ``sum_k C_k[u, ..., u]``, k <= 4, from one stacked matmul.

    The degree-k part has Hessian H_k = K_k + K_k^T, K_k the sum of C_k over
    its ordered pairs of free axes with u in the others, and by Euler's
    relation gradient H_k u / (k - 1) and value u . H_k u / (k (k - 1)).  So
    K, G = sum H_k / (k - 1) and V = sum H_k / (k (k - 1)) are linear in the
    features [1, u, u (x) u] up to degree len(C) - 3 ([1] for a quadratic),
    one row of W (features, 3 m^2) each, whose product reshapes to the
    blocks K, G, V as views.  H = K + K^T, gradient C1 + G u, value
    C0 + u . (C1 + V u).  Every product is a matmul on stacked rows, so a
    row's result does not depend on its batch, and its Hessian is its own.
    """
    C = C + [np.zeros((m,) * k) for k in range(len(C), 3)]
    c0, c1, mm = C[0], C[1], m * m
    Ks, divisors = [], []
    for k, Ck in enumerate(C[2:], start=2):
        pairs = itertools.combinations(range(k), 2)
        # each pair s < t of the k axes moved to the end, the others first in order
        Kk = sum(Ck.transpose([a for a in range(k) if a not in st] + list(st)) for st in pairs)
        Ks.append(Kk.reshape(m ** (k - 2), m, m))  # not -1: a constant has m = 0
        # the rows of degree k: G takes H_k / (k - 1), V takes H_k / (k (k - 1))
        divisors += [(k - 1, k * (k - 1))] * len(Ks[-1])
    K = np.concatenate(Ks)
    H = K + K.transpose(0, 2, 1)
    W = np.stack([K, H, H], axis=1)
    W[:, 1:] /= np.array(divisors, dtype=float)[:, :, None, None]
    W = W.reshape(len(W), 3 * mm)

    def jet(u):
        batch = u.shape[:-1]
        features = [np.ones(batch + (1,))]
        if len(C) > 3:
            features.append(u)
        if len(C) == 5:
            features.append((u[..., :, None] * u[..., None, :]).reshape(batch + (mm,)))
        Z = (np.concatenate(features, axis=-1)[..., None, :] @ W).reshape(batch + (3 * m, m))
        K = Z[..., :m, :]
        hess = K + np.swapaxes(K, -1, -2)
        gv = (Z[..., m:, :] @ u[..., :, None])[..., 0]
        Gu, Vu = gv[..., :m], gv[..., m:]
        w = c1 + Vu
        value = c0 + (u[..., None, :] @ w[..., :, None])[..., 0, 0]
        return value, c1 + Gu, hess

    return jet


def leaf_maps(expr: Expr, offset: np.ndarray, basis: np.ndarray, first_index: int) -> tuple:
    """Constant affine maps ``I = b + A @ u`` of the Lagrangian's leaves.

    The point sequence is ``offset + sum_k u[k] basis[k]``, offset (n, dim)
    and basis (m, n, dim), and base point j carries index ``first_index + j``.
    Returns ``slot``, the row of each distinct (order, index), and the stacked
    ``b`` (rows, dim) and ``A`` (rows, dim, m).
    """
    keys = dict.fromkeys((leaf.order, leaf.index) for leaf in lagrangian_leaves(expr))
    last = first_index + len(offset) - 1
    if any(i < first_index or i + l > last for l, i in keys):
        lo, hi = leaf_point_span(expr)
        raise InvalidArgument(
            f"Lagrangian reads points {lo}..{hi}, but the scene only provides "
            f"{first_index}..{last}"
        )
    shape = (len(keys), offset.shape[-1])  # kept when there are no leaves
    # the order-l differences of the offset and of the basis, once per order
    orders = {l for l, _ in keys}
    diffs = {l: (np.diff(offset, l, axis=0), np.diff(basis, l, axis=1)) for l in orders}
    b = np.array([diffs[l][0][i - first_index] for l, i in keys]).reshape(shape)
    A = np.array([diffs[l][1][:, i - first_index].T for l, i in keys])
    return {key: k for k, key in enumerate(keys)}, b, A.reshape(shape + (len(basis),))


def as_points(points) -> np.ndarray:
    """A point sequence as a float array (n, 2) or (n, 3)."""
    base = np.asarray(points, dtype=float)
    if base.ndim != 2 or base.shape[1] not in (2, 3):
        raise InvalidArgument(f"points must be (n, 2) or (n, 3), got {base.shape}")
    return base


def _points_jet(expr: Expr, points, free: list, first_index: int) -> tuple:
    """Value and gradient at the points over their free coordinates."""
    points = as_points(points)
    n, dim = points.shape
    if not is_integer(first_index):
        raise InvalidArgument(f"first_index must be an integer, got {first_index!r}")
    basis = np.zeros((len(free), dim, n, dim))
    for row, index in enumerate(free):
        if not is_integer(index):
            raise InvalidArgument(f"free index must be an integer, got {index!r}")
        if not first_index <= index < first_index + n:
            raise InvalidArgument(
                f"free index {index} outside the points {first_index}..{first_index + n - 1}"
            )
        basis[row, :, index - first_index] = np.eye(dim)
    slot, b, A = leaf_maps(expr, points, basis.reshape(-1, n, dim), first_index)
    return first_order(expr, slot, b, A)


def first_order(expr: Expr, slot: dict, b: np.ndarray, A: np.ndarray) -> tuple:
    """The Lagrangian's value and gradient at u = 0: the first two
    coefficients of its expansion (a zero gradient where it has none)."""
    C = expand(expr, slot, b, A, 1) + [np.zeros(A.shape[-1])]
    return C[0], C[1]


def eval_lagrangian(expr: Expr, points, first_index: int = 1) -> float:
    """Scalar value of the Lagrangian on a point sequence (n, dim).

    Point j of the sequence carries index ``first_index + j``.
    """
    return float(_points_jet(expr, points, [], first_index)[0])


def grad_lagrangian(
    expr: Expr, points, free: "list[int] | tuple[int, ...]", first_index: int = 1
) -> np.ndarray:
    """Exact gradient of the Lagrangian w.r.t. the named points.

    The expansion's gradient coefficient over one parameter per coordinate
    of each free point, so the same leaf maps and expansion as
    :class:`gapspline.system.ResidualSystem` bind and differentiate the
    leaves.  Returns shape (len(free), dim), rows in the order given.
    """
    free = list(free)
    if not free:
        raise InvalidArgument("free index set must not be empty")
    return _points_jet(expr, points, free, first_index)[1].reshape(len(free), -1)
