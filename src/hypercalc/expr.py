"""Expression DSL for the analytic functions used throughout the library.

The grammar is deliberately small: rational arithmetic, integer powers,
``exp``, ``sech``, ``tanh`` and ``gaussian(u) = exp(-u^2)``, over the
variable ``z`` (one-dimensional) or coordinates ``x1`` .. ``x9``.  Trees are
immutable and interned, evaluation is pure and accepts numpy arrays, and
differentiation is symbolic.
"""

from __future__ import annotations

import ast
import math
import re
import threading
import weakref

import numpy as np

EPS_POLE = 1e-12

COORD_NAMES = tuple(["z"] + [f"x{i}" for i in range(1, 10)])
_FUNCTIONS = ("exp", "sech", "tanh", "gaussian")


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax error; carries a 1-based offset into the source text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class PoleError(ExprError):
    """A quotient denominator came within EPS_POLE of zero."""


# ---------------------------------------------------------------------------
# AST
#
# Nodes are hash-consed: a constructor returns the one live node with the
# given class, children and scalar fields, so structurally equal trees are
# the same object and equality and hashing are by identity.  A derivative
# tower, whose unfolded tree grows exponentially with the order, is then a
# graph whose distinct nodes grow polynomially, and every walk below visits
# each distinct node once per call, iteratively, so that the depth of a tree
# is not bounded by Python's recursion limit.

# intern key -> the live node; an entry goes when its node is collected
_NODES = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


def _scalar_key(v):
    # == merges 0.5 with 0.5+0j and 0.0 with -0.0, which evaluate differently
    if isinstance(v, (float, complex, np.inexact)):
        return (type(v), v, math.copysign(1.0, v.real), math.copysign(1.0, v.imag))
    return (type(v), v)


def _intern(cls, key, *values):
    with _NODES_LOCK:
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_plan", None)
            object.__setattr__(node, "_real_plan", None)
            _NODES[key] = node
    return node


class Expr:
    """An immutable, interned expression node; equality is identity."""

    # evaluate's compiled program, and its variant for float64 arrays
    __slots__ = ("_plan", "_real_plan", "__weakref__")
    _fields = ()

    def __call__(self, z, **coords):
        env = dict(coords)
        if z is not None:
            env["z"] = z
        return evaluate(self, env)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # copies and unpickled nodes are interned like any other
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def _children(self):
        return ()

    def _rebuilt(self, children):
        """This node over new children."""
        return self


class Const(Expr):
    __slots__ = ("value",)
    _fields = ("value",)

    def __new__(cls, value: complex):
        return _intern(cls, (cls, _scalar_key(value)), value)


class Var(Expr):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), name)


class _Binary(Expr):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Expr, right: Expr):
        return _intern(cls, (cls, left, right), left, right)

    def _children(self):
        return (self.left, self.right)

    def _rebuilt(self, children):
        return type(self)(*children)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Neg(Expr):
    __slots__ = ("arg",)
    _fields = ("arg",)

    def __new__(cls, arg: Expr):
        return _intern(cls, (cls, arg), arg)

    def _children(self):
        return (self.arg,)

    def _rebuilt(self, children):
        return Neg(*children)


class Pow(Expr):
    __slots__ = ("base", "exponent")
    _fields = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        return _intern(cls, (cls, base, _scalar_key(exponent)), base, exponent)

    def _children(self):
        return (self.base,)

    def _rebuilt(self, children):
        return Pow(children[0], self.exponent)


class Call(Expr):
    __slots__ = ("func", "arg")
    _fields = ("func", "arg")  # func: one of _FUNCTIONS

    def __new__(cls, func: str, arg: Expr):
        return _intern(cls, (cls, func, arg), func, arg)

    def _children(self):
        return (self.arg,)

    def _rebuilt(self, children):
        return Call(self.func, children[0])


def _map_distinct(root, rule, done=None):
    """``rule(node, results of its children)`` over the distinct nodes under
    ``root``, children first; returns the root's result.  ``done`` maps the
    nodes already mapped to their results."""
    if done is None:
        done = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        children = node._children()
        pending = [c for c in children if c not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        done[node] = rule(node, [done[c] for c in children])
    return done[root]


# ---------------------------------------------------------------------------
# Parser
#
# The language is CPython's expression grammar cut to the nodes read below,
# with ``^`` for integer powers: ``ast.parse`` reads the text with each ``^``
# written ``**``, and a walk without recursion turns its tree into an
# interned one, so only CPython's parser limits the depth of a text.
# CPython 3.11 bounds that depth by the recursion limit less the frames in
# use, so a text too deep for the caller's stack is parsed again on a new
# thread: a chain such as ``z+z+...`` parses up to 2984 terms at the default
# limit from any caller.

# characters outside the language, the ``**`` that ``^`` stands for, and an
# exponent in parentheses, which CPython's tree does not show
_FOREIGN = re.compile(r"[^0-9A-Za-z.+\-*/^()\s]|(?<=\*)\*|\^\s*(?:-\s*)?\(")
_BLANK = re.compile(r"\s")
_BINARY = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}
_NAMES = {"i": Const(1j), "pi": Const(complex(math.pi)),
          **{name: Var(name) for name in COORD_NAMES}}


def _operands(node):
    """The operand nodes that the tree of ``node`` is built over."""
    if type(node) is ast.BinOp:
        return (node.left,) if type(node.op) is ast.Pow else (node.left, node.right)
    if type(node) is ast.UnaryOp:
        return (node.operand,)
    if type(node) is ast.Call:
        return node.args
    return ()


def _exponent(node, src):
    """``n`` of an exponent ``n`` or ``-n``, n a decimal integer literal;
    None for any other exponent."""
    negative = type(node) is ast.UnaryOp and type(node.op) is ast.USub
    if negative:
        node = node.operand
    if type(node) is ast.Constant and type(node.value) is int \
            and src[node.col_offset:node.end_col_offset].isdigit():
        return -node.value if negative else node.value
    return None


def _tree(node, trees, src, place):
    """The interned tree of ``node``, built over the trees of its operands,
    which it takes off the end of ``trees``; ``src`` is the text CPython read
    and ``place(k)`` the caller's offset of its character k."""
    kind = type(node)
    if kind is ast.BinOp:
        op = type(node.op)
        if op is ast.Pow:
            n = _exponent(node.right, src)
            if n is None:
                raise ParseError("expected integer exponent", place(node.right.col_offset))
            return Pow(trees.pop(), n)
        right, left = trees.pop(), trees.pop()
        if op is ast.Mult and isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value * right.value)  # as printed, e.g. (0.5*i)
        if op in _BINARY:
            return _BINARY[op](left, right)
    elif kind is ast.UnaryOp and type(node.op) is ast.USub:
        arg = trees.pop()
        return Const(-arg.value) if isinstance(arg, Const) else Neg(arg)
    elif kind is ast.Call:
        if getattr(node.func, "id", None) in _FUNCTIONS and len(node.args) == 1:
            return Call(node.func.id, trees.pop())
    elif kind is ast.Name:
        if node.id in _NAMES:
            return _NAMES[node.id]
    elif kind is ast.Constant and type(node.value) in (int, float):
        digits = src[node.col_offset:node.end_col_offset]
        if type(node.value) is float or digits.isdigit():
            x = float(digits)
            if not math.isfinite(x):
                raise ParseError(f"number {digits!r} out of range", place(node.col_offset))
            return Const(complex(x))
    segment = src[node.col_offset:node.end_col_offset]
    raise ParseError(f"{segment!r} is not in the language", place(node.col_offset))


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    A ``ParseError`` carries the 1-based offset of the fault in ``text``; for
    a syntax error, the message and the offset are CPython's.
    """
    bad = _FOREIGN.search(text)
    if bad:
        raise ParseError(f"unexpected {bad.group()!r}", bad.end())
    src = _BLANK.sub(" ", text).replace("^", "**")
    body = src.lstrip()

    def place(k):  # the offset in text of character k of body
        at = [j for j, c in enumerate(text, 1) for _ in range(1 + (c == "^"))]
        k += len(src) - len(body)
        return at[k] if k < len(at) else len(text) + 1

    out = []

    def read():
        try:
            out.append(ast.parse(body, mode="eval").body)
        except (SyntaxError, RecursionError) as exc:
            out.append(exc)

    read()
    if isinstance(out[-1], RecursionError):  # again from a new thread's stack
        reader = threading.Thread(target=read)
        reader.start()
        reader.join()
    root = out[-1]
    if isinstance(root, SyntaxError):
        raise ParseError(root.msg, place(root.offset - 1 if root.offset else len(body)))
    if isinstance(root, RecursionError):
        raise ParseError("expression too deeply nested", 1)
    order, stack = [], [root]  # order: each node before its operands
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(_operands(node))
    trees = []
    for node in reversed(order):
        trees.append(_tree(node, trees, body, place))
    return trees[0]


# ---------------------------------------------------------------------------
# Printing

def _fmt_real(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _const_str(v):
    if v.imag == 0:
        if v.real < 0:
            return f"(-{_fmt_real(-v.real)})", 3
        return _fmt_real(v.real), 3
    if v.real == 0:
        if v.imag == 1:
            return "i", 3
        if v.imag == -1:
            return "(-i)", 3
        return f"({_fmt_real(v.imag)}*i)", 3
    sign = "+" if v.imag >= 0 else "-"
    return f"({_fmt_real(v.real)}{sign}{_fmt_real(abs(v.imag))}*i)", 3


# node -> (text, each child's least precedence, its own): 0 +-, 1 */, 2 ^, 3 atom
_LAYOUT = {Add: ("{}+{}", (0, 1), 0), Sub: ("{}-{}", (0, 1), 0),
           Mul: ("{}*{}", (1, 2), 1), Div: ("{}/{}", (1, 2), 1), Neg: ("(-{})", (2,), 3)}


def _printed(e, kids):
    """(text, precedence) of ``e`` from those of its children."""
    if isinstance(e, Const):
        return _const_str(e.value)
    if isinstance(e, Var):
        return e.name, 3
    form, levels, prec = (("{}^%d" % e.exponent, (3,), 2) if isinstance(e, Pow) else
                          (e.func + "({})", (0,), 3) if isinstance(e, Call) else
                          _LAYOUT[type(e)])
    return form.format(*(f"({s})" if p < level else s
                         for (s, p), level in zip(kids, levels))), prec


def print_expr(e: Expr) -> str:
    """Render the tree as text that ``parse_expr`` reads back to a tree that
    prints the same.  The parser folds a negated constant and a product of
    two constants, such as ``(0.5*i)``, into one ``Const``, so for parser
    output ``parse_expr(print_expr(t)) == t`` up to the sign of a zero part
    of a constant."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return _map_distinct(e, _printed)[0]


# ---------------------------------------------------------------------------
# Evaluation

_FLOAT64 = np.dtype(np.float64)


def _sech(u):
    # 1/cosh(x + iy) = 2q / ((a+b) cos y + i (a-b) sin y) with q = e^(-|x|) and
    # (a, b) = (1, q^2) for x >= 0, (q^2, 1) otherwise: one real exp, no overflow;
    # for float64 u, y = 0 leaves 2q / (1 + q^2)
    if getattr(u, "dtype", None) is _FLOAT64:
        q = np.exp(-np.abs(u))
        return 2.0 * q / (1.0 + q * q)
    x, y = np.real(u), np.imag(u)
    q = np.exp(-np.abs(x))
    q2 = q * q
    return 2.0 * q / ((1.0 + q2) * np.cos(y) + 1j * np.copysign(1.0 - q2, x) * np.sin(y))


def _gaussian(u):
    return np.exp(-(u * u))


_CALLS = {"exp": np.exp, "sech": _sech, "tanh": np.tanh, "gaussian": _gaussian}

# opcodes of an evaluation plan, a post-order stack program
(_CONST, _VAR, _ADD, _SUB, _MUL, _DEN, _DIV, _NEG, _POW, _CALL,
 _STORE, _LOAD, _TAKE) = range(13)


def _steps(e):
    """The subtrees and opcodes of one node, in evaluation order."""
    if isinstance(e, Add):
        return (e.left, e.right, (_ADD, None))
    if isinstance(e, Sub):
        return (e.left, e.right, (_SUB, None))
    if isinstance(e, Mul):
        return (e.left, e.right, (_MUL, None))
    if isinstance(e, Div):
        # the denominator is checked before the numerator is evaluated
        return (e.right, (_DEN, None), e.left, (_DIV, None))
    if isinstance(e, Neg):
        return (e.arg, (_NEG, None))
    if isinstance(e, Pow):
        return (e.base, (_POW, e.exponent))
    if isinstance(e, Call):
        if e.func not in _CALLS:
            raise ExprError(f"unknown function {e.func!r}")
        return (e.arg, (_CALL, _CALLS[e.func]))
    raise TypeError(f"not an expression: {e!r}")


def _compile(root):
    """Evaluation plan with one step per distinct node.

    A node with more than one parent is computed once, stored, read again
    by its other parents and dropped after the last one; every other value
    lives on the stack only until its parent consumes it.
    """
    uses = {root: 0}
    stack = [root]
    while stack:
        for child in stack.pop()._children():
            if child in uses:
                uses[child] += 1
            else:
                uses[child] = 1
                stack.append(child)
    plan = []
    slots = {}  # shared node -> [slot, reads left]
    work = [root]
    while work:
        item = work.pop()
        if type(item) is tuple:
            plan.append(item)
        elif isinstance(item, Const):
            plan.append((_CONST, item.value))
        elif isinstance(item, Var):
            plan.append((_VAR, item.name))
        elif item in slots:
            slot = slots[item]
            slot[1] -= 1
            plan.append((_LOAD if slot[1] else _TAKE, slot[0]))
        else:
            if uses[item] > 1:
                slots[item] = [len(slots), uses[item] - 1]
                work.append((_STORE, slots[item][0]))
            work.extend(reversed(_steps(item)))
    return tuple(plan)


def evaluate(e: Expr, env):
    """Evaluate at a point (or numpy array of points) given by ``env``.

    ``env`` maps coordinate names to values; a bare complex number is
    shorthand for ``{"z": value}``.  Each distinct subexpression is evaluated
    once; the compiled plan is kept on ``e`` and goes with it.

    The dtype rule: when every env value is a float64 ndarray, each
    constant with zero imaginary part enters as its real part, so a plan
    whose constants are all real runs and returns in float64 (exponents are
    integers, so no real value turns complex on the way).  Any other env,
    Python numbers or complex arrays, keeps the complex constants and so a
    complex result.
    """
    if not isinstance(env, dict):
        env = {"z": env}
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    plan = e._plan
    if plan is None:
        plan = _compile(e)
        object.__setattr__(e, "_plan", plan)
    real = bool(env)
    for v in env.values():  # a loop, cheaper than all(...) on every call
        if type(v) is not np.ndarray or v.dtype is not _FLOAT64:
            real = False
            break
    if real:
        if e._real_plan is None:
            object.__setattr__(e, "_real_plan", tuple(
                (op, arg.real) if op == _CONST and arg.imag == 0 else (op, arg)
                for op, arg in plan))
        plan = e._real_plan
    stack = []
    push, pop = stack.append, stack.pop
    saved = {}
    eps_pole = EPS_POLE
    # A binary step reads its left operand as stack[-2] before pop() takes
    # the right one; the target stack[-1] is resolved after both, so the
    # result replaces the left operand and no operand outlives the step.
    for op, arg in plan:
        if op == _MUL:
            stack[-1] = stack[-2] * pop()
        elif op == _ADD:
            stack[-1] = stack[-2] + pop()
        elif op == _CONST:
            push(arg)
        elif op == _VAR:
            try:
                push(env[arg])
            except KeyError:
                raise ExprError(f"unbound variable {arg!r}") from None
        elif op == _POW:
            if arg < 0 and np.min(np.abs(stack[-1])) < eps_pole:
                raise PoleError("negative power of a near-zero base")
            stack[-1] = stack[-1] ** arg
        elif op == _NEG:
            stack[-1] = -stack[-1]
        elif op == _SUB:
            stack[-1] = stack[-2] - pop()
        elif op == _DEN:
            if np.min(np.abs(stack[-1])) < eps_pole:
                raise PoleError("denominator magnitude below pole threshold")
        elif op == _DIV:  # the numerator is on top
            stack[-1] = pop() / stack[-1]
        elif op == _CALL:
            stack[-1] = arg(stack[-1])
        elif op == _STORE:
            saved[arg] = stack[-1]
        elif op == _LOAD:
            push(saved[arg])
        else:  # _TAKE, the last read
            push(saved.pop(arg))
    return stack[0]


# ---------------------------------------------------------------------------
# Simplification (constant folding only)

_ZERO = Const(0 + 0j)
_ONE = Const(1 + 0j)


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


# Folding constructors: each builds one node over already simplified
# operands, exactly as `simplify` would leave it.


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0):
        return _ZERO
    if _is_const(b, 1):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0:
        return Const(a.value / b.value)
    return Div(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(b, exponent):
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return b
    if _is_const(b):
        return Const(b.value ** exponent)
    return Pow(b, exponent)


_FOLDERS = {Add: _add, Sub: _sub, Mul: _mul, Div: _div, Neg: _neg}


def _folded(e, kids):
    """``e`` over its simplified children ``kids``, constants folded."""
    fold = _FOLDERS.get(type(e))
    if fold is not None:
        return fold(*kids)
    if isinstance(e, Pow):
        return _pow(kids[0], e.exponent)
    return e._rebuilt(kids)


def simplify(e: Expr) -> Expr:
    return _map_distinct(e, _folded)


# ---------------------------------------------------------------------------
# Differentiation


def _derivative(e, dkids):
    """Simplified d/dz of the simplified node ``e``, given those of its
    children: what simplifying the derivative's tree would give."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == "z" else _ZERO
    if isinstance(e, Add):
        return _add(*dkids)
    if isinstance(e, Sub):
        return _sub(*dkids)
    if isinstance(e, Neg):
        return _neg(dkids[0])
    if isinstance(e, Mul):
        return _add(_mul(dkids[0], e.right), _mul(e.left, dkids[1]))
    if isinstance(e, Div):
        num = _sub(_mul(dkids[0], e.right), _mul(e.left, dkids[1]))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        return _mul(_mul(Const(complex(e.exponent)), _pow(e.base, e.exponent - 1)),
                    dkids[0])
    if isinstance(e, Call):
        if e.func == "exp":
            inner = e
        elif e.func == "sech":
            inner = _neg(_mul(e, Call("tanh", e.arg)))
        elif e.func == "tanh":
            inner = _sub(_ONE, _pow(Call("tanh", e.arg), 2))
        elif e.func == "gaussian":
            inner = _neg(_mul(_mul(Const(2 + 0j), e.arg), e))
        else:
            raise ExprError(f"unknown function {e.func!r}")
        return _mul(inner, dkids[0])
    raise TypeError(f"not an expression: {e!r}")


def differentiate(e: Expr, order: int = 1) -> Expr:
    """Symbolic derivative of the given order with respect to z."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = simplify(e)
    # a node's derivative is the same at every order: one memo serves them all
    done = {}
    for _ in range(order):
        out = _map_distinct(out, _derivative, done)
    return out


def substitute(e: Expr, coordinate: str, replacement: Expr) -> Expr:
    """Replace every occurrence of a variable by another expression."""
    def rule(node, kids):
        if isinstance(node, Var) and node.name == coordinate:
            return replacement
        return node._rebuilt(kids)
    return _map_distinct(e, rule)


def scale_argument(e: Expr, factor: complex) -> Expr:
    """Return the tree for ``e`` with its argument scaled: z -> factor*z."""
    return simplify(substitute(e, "z", Mul(Const(complex(factor)), Var("z"))))

