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

import re
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class Trip:
    """Scalar triple product (left x middle) . right — 3D only."""

    left: Diff
    middle: Diff
    right: Diff


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


Expr = Number | Dot | Trip | Sum | Product


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_INT = re.compile(r"-?\d+")


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

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return inner
        if self.text.startswith("dot", self.pos):
            self.pos += 3
            self.expect("(")
            a = self.vec()
            self.expect(",")
            b = self.vec()
            self.expect(")")
            return Dot(a, b)
        if self.text.startswith("trip", self.pos):
            self.pos += 4
            self.expect("(")
            a = self.vec()
            self.expect(",")
            b = self.vec()
            self.expect(",")
            c = self.vec()
            self.expect(")")
            return Trip(a, b, c)
        m = _NUMBER.match(self.text, self.pos)
        if m and (ch.isdigit() or ch == "-" or ch == "."):
            value = float(m.group())
            if np.isinf(value):
                self.fail(f"number {m.group()} overflows to infinity")
            self.pos = m.end()
            return Number(value)
        self.fail("expected number, dot(...), trip(...), or '('")

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
    if isinstance(node, Dot):
        return f"dot({_fmt(node.left)},{_fmt(node.right)})"
    if isinstance(node, Trip):
        return f"trip({_fmt(node.left)},{_fmt(node.middle)},{_fmt(node.right)})"
    if isinstance(node, Sum):
        body = " + ".join(_fmt(t) for t in node.terms)
        return body if top else f"({body})"
    if isinstance(node, Product):
        # a nested product keeps its parentheses, or it would parse back flat
        return "*".join(
            f"({_fmt(f)})" if isinstance(f, Product) else _fmt(f) for f in node.factors
        )
    raise InvalidArgument(f"unknown expression node {node!r}")


def lagrangian_leaves(expr: Expr) -> list[Diff]:
    """All difference leaves, in syntactic order (duplicates kept)."""
    out: list[Diff] = []
    _collect(expr, out)
    return out


def _collect(node: Expr, out: list[Diff]):
    if isinstance(node, Diff):
        out.append(node)
    elif isinstance(node, Dot):
        out += [node.left, node.right]
    elif isinstance(node, Trip):
        out += [node.left, node.middle, node.right]
    elif isinstance(node, Sum):
        for t in node.terms:
            _collect(t, out)
    elif isinstance(node, Product):
        for f in node.factors:
            _collect(f, out)


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
    if dim == 2 and _contains_trip(expr):
        raise DslTypeError("trip() is a triple product and needs a 3D scene")
    leaf_point_span(expr)  # raises on leaf-free expressions


def _contains_trip(node: Expr) -> bool:
    if isinstance(node, Trip):
        return True
    if isinstance(node, Sum):
        return any(_contains_trip(t) for t in node.terms)
    if isinstance(node, Product):
        return any(_contains_trip(f) for f in node.factors)
    return False


# ---------------------------------------------------------------------------
# evaluation and exact derivatives
# ---------------------------------------------------------------------------


def compile_jet(expr: Expr, slot: dict, A: np.ndarray):
    """The Lagrangian's value, gradient and Hessian as one compiled function.

    ``slot`` maps each leaf's (order, index) to its row of ``A`` (rows, dim,
    m), the constant derivatives of leaves affine in some m parameters; the
    leaves are resolved here, once.  The returned function takes the stacked
    leaf values (..., rows, dim) for any leading batch shape and returns
    value (...), gradient (..., m) and Hessian (..., m, m), each row computed
    as if alone.  Dot and trip are exact quadratic or cubic forms in the
    leaves, and products follow the pairwise product rule; every Hessian row
    is symmetric bit for bit.  A part that does not depend on the leaf values
    comes back unbroadcast: a dot's Hessian is the constant (m, m) matrix
    computed here, and a Number's derivatives are zeros of shape (1,) and
    (1, 1), which broadcast against any batch and any m.
    """
    if isinstance(expr, Number):
        jet = np.float64(expr.value), np.zeros(1), np.zeros((1, 1))
        return lambda values: jet
    if isinstance(expr, Dot):
        (i, Ai), (j, Aj) = (_leaf(d, slot, A) for d in (expr.left, expr.right))
        S = Ai.T @ Aj
        H = S + S.T

        def dot(values):
            a, b = values[..., i, :], values[..., j, :]
            return _dot(a, b), _pull(Ai, b) + _pull(Aj, a), H

        return dot
    if isinstance(expr, Trip):
        if A.shape[1] != 3:
            raise DslTypeError("trip() needs 3D leaves")
        legs = (expr.left, expr.middle, expr.right)
        (i, Ai), (j, Aj), (k, Ak) = (_leaf(d, slot, A) for d in legs)

        def trip(values):
            a, b, c = values[..., i, :], values[..., j, :], values[..., k, :]
            ab = _cross(a, b)
            # d2/da db of (a x b).c is skew(c).T = skew(-c), where skew(v) w = v x w
            S = Ai.T @ _skew(-c) @ Aj + Aj.T @ _skew(-a) @ Ak + Ak.T @ _skew(-b) @ Ai
            grad = _pull(Ai, _cross(b, c)) + _pull(Aj, _cross(c, a)) + _pull(Ak, ab)
            return _dot(ab, c), grad, S + np.swapaxes(S, -1, -2)

        return trip
    if isinstance(expr, Sum):
        terms = [compile_jet(t, slot, A) for t in expr.terms]

        def total(values):
            jets = [term(values) for term in terms]
            # value, gradient and Hessian each summed over the terms, in order
            return tuple(sum(parts[1:], parts[0]) for parts in zip(*jets))

        return total
    if isinstance(expr, Product):
        head, *rest = [compile_jet(f, slot, A) for f in expr.factors]

        def product(values):
            v, g, H = head(values)
            for factor in rest:
                w, h, K = factor(values)
                O = g[..., :, None] * h[..., None, :]
                v, g, H = (
                    v * w,
                    v[..., None] * h + w[..., None] * g,
                    v[..., None, None] * K + w[..., None, None] * H + (O + np.swapaxes(O, -1, -2)),
                )
            return v, g, H

        return product
    raise InvalidArgument(f"cannot evaluate node {expr!r}")


def _leaf(d: Diff, slot: dict, A: np.ndarray) -> tuple:
    k = slot[d.order, d.index]
    return k, A[k]


# Row-wise products.  matmul treats every row of a batch as its own vector
# or matrix and makes the BLAS call an unbatched row would, so a row's
# result does not depend on the batch it is evaluated in.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, row by row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pull(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A.T @ x row by row: a leaf covector pulled back to the parameters."""
    return (A.T @ x[..., :, None])[..., 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis: the multiplies and subtracts of np.cross."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices, skew(v) @ w == v x w, shape (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


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
    b = np.array([np.diff(offset, l, axis=0)[i - first_index] for l, i in keys])
    A = np.array([np.diff(basis, l, axis=1)[:, i - first_index].T for l, i in keys])
    return {key: k for k, key in enumerate(keys)}, b, A


def as_points(points) -> np.ndarray:
    """A point sequence as a float array (n, 2) or (n, 3)."""
    base = np.asarray(points, dtype=float)
    if base.ndim != 2 or base.shape[1] not in (2, 3):
        raise InvalidArgument(f"points must be (n, 2) or (n, 3), got {base.shape}")
    return base


def _points_jet(expr: Expr, points, free: list, first_index: int) -> tuple:
    """The jet at the points, over one parameter per coordinate of each free point."""
    points = as_points(points)
    n, dim = points.shape
    basis = np.zeros((len(free), dim, n, dim))
    for row, index in enumerate(free):
        if not first_index <= index < first_index + n:
            raise InvalidArgument(
                f"free index {index} outside the points {first_index}..{first_index + n - 1}"
            )
        basis[row, :, index - first_index] = np.eye(dim)
    slot, b, A = leaf_maps(expr, points, basis.reshape(-1, n, dim), first_index)
    return compile_jet(expr, slot, A)(b)


def eval_lagrangian(expr: Expr, points, first_index: int = 1) -> float:
    """Scalar value of the Lagrangian on a point sequence (n, dim).

    Point j of the sequence carries index ``first_index + j``.
    """
    return float(_points_jet(expr, points, [], first_index)[0])


def grad_lagrangian(
    expr: Expr, points, free: "list[int] | tuple[int, ...]", first_index: int = 1
) -> np.ndarray:
    """Exact gradient of the Lagrangian w.r.t. the named points.

    The jet's gradient over one parameter per coordinate of each free point,
    so the same leaf maps as :class:`gapspline.system.ResidualSystem` bind the
    leaves.  Returns shape (len(free), dim), rows in the order given.
    """
    free = list(free)
    if not free:
        raise InvalidArgument("free index set must not be empty")
    grad = _points_jet(expr, points, free, first_index)[1]
    # a leaf-free Lagrangian's gradient is a broadcastable zero of shape (1,)
    dim = np.shape(points)[1]
    return np.broadcast_to(grad, (len(free) * dim,)).reshape(len(free), dim).copy()
