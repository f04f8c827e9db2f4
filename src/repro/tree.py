"""Generic abstract-syntax-tree infrastructure shared by every language front end.

The SEMINAL search procedure (``repro.core``) is language agnostic: it only
needs to walk an AST, address subtrees by *path*, and rebuild a tree with one
subtree replaced.  Both substrates (``repro.miniml`` and
``repro.cpptemplates``) derive their node classes from :class:`Node`, which
gives them:

* automatic child discovery (any dataclass field holding a ``Node`` or a
  list/tuple of ``Node`` is a child),
* purely functional subtree replacement (:func:`replace_at`),
* source spans and the ``synthetic`` flag used to render the paper's
  ``[[...]]`` wildcard without the type-checker ever knowing about it.

Paths
-----
A path is a tuple of steps.  Each step is either a field name (``"body"``)
for a direct child, or a ``(field, index)`` pair for a child stored inside a
list field.  The empty tuple addresses the root.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, fields
from typing import Any, Iterator, Optional, Sequence, Tuple, Union

PathStep = Union[str, Tuple[str, int]]
Path = Tuple[PathStep, ...]


@dataclass(eq=False)
class Span:
    """A half-open region of source text, 1-based line/column for display."""

    start_line: int = 0
    start_col: int = 0
    end_line: int = 0
    end_col: int = 0
    start_offset: int = 0
    end_offset: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.start_line}:{self.start_col}-{self.end_line}:{self.end_col})"

    def covers(self, other: "Span") -> bool:
        """Whether this span textually encloses ``other``."""
        return (
            self.start_offset <= other.start_offset
            and other.end_offset <= self.end_offset
        )


class Node:
    """Base class for all AST nodes of every mini-language.

    Concrete nodes are ``@dataclass(eq=False)`` subclasses; equality is
    object identity so nodes can key dictionaries during search.  Structural
    equality, when needed, goes through :func:`structurally_equal`.

    Attributes set outside the dataclass machinery (class-level defaults so
    subclasses need not repeat them):

    ``span``
        Source location, filled in by parsers; ``None`` for synthesized nodes.
    ``synthetic``
        True for nodes the *searcher* created (the ``raise Foo`` wildcard and
        the ``adapt`` wrapper).  The type-checker ignores this flag entirely;
        only message rendering consults it, preserving the paper's
        "no change to the type-checker" property.
    """

    span: Optional[Span] = None
    synthetic: bool = False

    def child_items(self) -> Iterator[Tuple[PathStep, "Node"]]:
        """Yield ``(step, child)`` for every direct AST child, in field order."""
        for name in _field_names(self.__class__):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Node):
                        yield (name, i), item

    def children(self) -> list["Node"]:
        """All direct AST children, in field order.

        Built directly from the cached per-class field layout: this runs
        once per node inside the depth probe and the keyer, where the
        generator round-trip through :meth:`child_items` is measurable.
        """
        out: list["Node"] = []
        for name in _field_names(self.__class__):
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        out.append(item)
        return out

    def with_child(self, step: PathStep, new_child: "Node") -> "Node":
        """Return a shallow copy of this node with one child replaced."""
        if isinstance(step, str):
            return dataclasses.replace(self, **{step: new_child})  # type: ignore[type-var]
        field_name, index = step
        seq = list(getattr(self, field_name))
        seq[index] = new_child
        value: Any = tuple(seq) if isinstance(getattr(self, field_name), tuple) else seq
        return dataclasses.replace(self, **{field_name: value})  # type: ignore[type-var]


def get_at(root: Node, path: Path) -> Node:
    """Return the node addressed by ``path`` (the root for the empty path)."""
    node = root
    for step in path:
        if isinstance(step, str):
            node = getattr(node, step)
        else:
            field_name, index = step
            node = getattr(node, field_name)[index]
        if not isinstance(node, Node):
            raise KeyError(f"path step {step!r} does not address a Node")
    return node


def replace_at(root: Node, path: Path, new_node: Node) -> Node:
    """Return a new tree equal to ``root`` with the subtree at ``path`` replaced.

    The original tree is never mutated: nodes along the path are shallow
    copied, everything off the path is shared.  This is what lets the searcher
    cheaply try thousands of candidate programs.
    """
    if not path:
        return new_node
    step, rest = path[0], path[1:]
    child = get_at(root, (step,))
    return root.with_child(step, replace_at(child, rest, new_node))


def walk(root: Node, path: Path = ()) -> Iterator[Tuple[Path, Node]]:
    """Pre-order traversal yielding ``(path, node)`` for every node."""
    yield path, root
    for step, child in root.child_items():
        yield from walk(child, path + (step,))


def find_path(root: Node, target: Node) -> Optional[Path]:
    """Locate ``target`` (by identity) inside ``root``; ``None`` if absent."""
    for path, node in walk(root):
        if node is target:
            return path
    return None


def node_size(root: Node) -> int:
    """Number of nodes in the subtree — the ranker's notion of change size."""
    return sum(1 for _ in walk(root))


def node_depth(root: Node) -> int:
    """Height of the subtree (a leaf has depth 1).

    Iterative (explicit stack) so it is safe on trees far deeper than the
    interpreter's recursion limit — it is exactly the probe the oracle uses
    to *reject* such trees before recursive inference would trip over them.
    """
    depths: dict = {}
    stack: list = [(root, None)]
    while stack:
        node, children = stack.pop()
        if children is None:
            if id(node) in depths:
                continue
            children = node.children()
            stack.append((node, children))
            for child in children:
                if id(child) not in depths:
                    stack.append((child, None))
        else:
            depth = 1
            for child in children:
                child_depth = depths[id(child)]
                if child_depth >= depth:
                    depth = child_depth + 1
            depths[id(node)] = depth
    return depths[id(root)]


class TreeTooDeep(RuntimeError):
    """A tree exceeded the recursion headroom of a structural operation.

    Raised *instead of* the interpreter's :class:`RecursionError` by
    :func:`structural_key`/:class:`StructuralKeyer` so callers get a
    domain-level "reject this tree" signal rather than a half-unwound
    interpreter state."""


class DepthProbe:
    """Memoized iterative subtree-depth oracle (crash-avoidance pre-check).

    Candidate programs are built with :func:`replace_at`, which shares every
    unchanged subtree with the original program by identity — so, exactly
    like :class:`StructuralKeyer`, memoizing depths by ``id(node)`` makes
    probing a candidate cost O(changed spine) instead of O(program).  The
    oracle consults it before every typecheck to reject candidates deep
    enough to trip Python's recursion limit *inside* inference, where the
    resulting ``RecursionError`` would otherwise surface mid-unification.

    The memo pins nodes (strong references) so ids cannot be recycled;
    call :meth:`clear` between searches to release the pinned trees.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: dict = {}

    def clear(self) -> None:
        self._memo.clear()

    def depth(self, root: Node) -> int:
        memo = self._memo
        entry = memo.get(id(root))
        if entry is not None:
            return entry[1]
        stack: list = [(root, None)]
        while stack:
            node, children = stack.pop()
            if children is None:
                if id(node) in memo:
                    continue
                children = node.children()
                stack.append((node, children))
                for child in children:
                    if id(child) not in memo:
                        stack.append((child, None))
            else:
                depth = 1
                for child in children:
                    child_depth = memo[id(child)][1]
                    if child_depth >= depth:
                        depth = child_depth + 1
                memo[id(node)] = (node, depth)
        return memo[id(root)][1]

    def exceeds(self, root: Node, limit: int) -> bool:
        return self.depth(root) > limit


def structurally_equal(a: Node, b: Node) -> bool:
    """Deep structural equality ignoring spans and the ``synthetic`` flag."""
    if type(a) is not type(b):
        return False
    for f in fields(a):  # type: ignore[arg-type]
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, Node) or isinstance(vb, Node):
            if not (isinstance(va, Node) and isinstance(vb, Node)):
                return False
            if not structurally_equal(va, vb):
                return False
        elif isinstance(va, (list, tuple)) and isinstance(vb, (list, tuple)):
            if len(va) != len(vb):
                return False
            for xa, xb in zip(va, vb):
                if isinstance(xa, Node) and isinstance(xb, Node):
                    if not structurally_equal(xa, xb):
                        return False
                elif isinstance(xa, Node) or isinstance(xb, Node):
                    return False
                elif xa != xb:
                    return False
        elif va != vb:
            return False
    return True


class HCKey:
    """A hash-consed structural key: one interned node per distinct subtree.

    ``parts`` holds one level of the classic nested-tuple structural key —
    the node's class name followed by one entry per dataclass field: a
    child :class:`HCKey` for node fields, a tuple of element keys for list
    fields, and a ``("#", value)`` pair for scalars.  Two properties make
    this the cheap currency of the whole search pipeline:

    * the hash is computed once at construction, so every later dict
      operation (oracle cache, decl-table and store lookups) costs O(1)
      instead of re-hashing the whole subtree — CPython does not cache
      tuple hashes, so the old nested-tuple keys paid O(subtree) on every
      lookup;
    * keys from one interner (:class:`StructuralKeyer` or one
      :func:`structural_key` call) are unique per content, so equality is
      usually a pointer comparison; across interners (and across process
      boundaries) it falls back to structural comparison, so a hash
      collision can never alias two different candidates.

    ``digest`` is a content-based Merkle digest: a shared subtree's digest
    is computed once and reused, making persistent-store addressing
    (:func:`repro.store.fingerprint.key_digest`) O(1) amortized per node.
    """

    __slots__ = ("parts", "_hash", "_digest")

    def __init__(self, parts: Tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)
        self._digest: Optional[str] = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is HCKey:
            return self._hash == other._hash and self.parts == other.parts
        return NotImplemented

    def __reduce__(self):
        # Rebuild (rather than ship slot state) so the hash is recomputed
        # in the receiving process — per-process hash randomization makes
        # a shipped hash value meaningless there.
        return (HCKey, (self.parts,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HCKey({self.parts[0]}, digest={self.digest[:12]})"

    @property
    def digest(self) -> str:
        """Deterministic content digest (stable across processes/runs)."""
        d = self._digest
        if d is None:
            h = hashlib.sha256()
            for part in self.parts:
                if type(part) is HCKey:
                    h.update(b"K")
                    h.update(part.digest.encode())
                elif type(part) is tuple and not (
                    len(part) == 2 and part[0] == "#"
                ):
                    h.update(b"L(")
                    for element in part:
                        if type(element) is HCKey:
                            h.update(b"K")
                            h.update(element.digest.encode())
                        else:
                            h.update(repr(element).encode())
                        h.update(b",")
                    h.update(b")")
                else:
                    h.update(repr(part).encode())
                h.update(b";")
            d = h.hexdigest()[:32]
            self._digest = d
        return d


def structural_key(root: Node) -> HCKey:
    """A hashable key capturing the structure the type-checker sees.

    Two trees get equal keys iff they are :func:`structurally_equal`
    (spans and the ``synthetic`` flag are ignored — they are not dataclass
    fields).  The key is a hash-consed :class:`HCKey` tree mirroring the
    AST: class name first, then one entry per dataclass field — a sub-key
    for node fields, a tuple of element keys for list fields, and a
    ``("#", value)`` pair for scalars (the tag keeps a scalar from
    imitating a node key).  Being a real key (not a bare hash), dictionary
    lookups still compare structurally on hash collision, so a collision
    can never return a wrong cached answer.  For repeated keying of
    programs that share subtrees, use :class:`StructuralKeyer`.

    Trees too deep to key recursively raise :class:`TreeTooDeep` rather
    than leaking the interpreter's :class:`RecursionError`.
    """
    return StructuralKeyer()(root)


class StructuralKeyer:
    """:func:`structural_key` with an identity memo and hash-cons interning.

    The searcher's candidates are built with :func:`replace_at`, which
    shares every unchanged subtree with the original program by object
    identity.  Memoizing subtree keys by ``id(node)`` therefore makes
    keying a candidate cost O(changed spine) instead of O(program) — the
    point of switching the oracle cache off pretty-printed-source keys.
    On top of the identity memo, subtree keys are *interned by content*:
    two structurally equal subtrees (however they were built) map to the
    same :class:`HCKey` object, so the rebuilt spine nodes of every
    candidate share all unchanged child keys and downstream consumers
    compare keys by pointer.

    The memo pins each node (strong reference) so an ``id`` can never be
    recycled for a different object while cached.  Sound as long as nodes
    are treated immutably between :meth:`clear` calls, which is how the
    whole search pipeline operates (``span``/``synthetic`` mutations do
    not participate in keys).  Call :meth:`clear` between searches to
    release the pinned trees.
    """

    __slots__ = ("_memo", "_intern")

    def __init__(self) -> None:
        self._memo: dict = {}
        self._intern: dict = {}

    def clear(self) -> None:
        self._memo.clear()
        self._intern.clear()

    @property
    def interned(self) -> int:
        """How many distinct subtrees this keyer has interned so far."""
        return len(self._memo)

    def __call__(self, root: Node) -> HCKey:
        try:
            return self._key(root)
        except RecursionError:
            raise TreeTooDeep(
                "tree is too deeply nested to compute a structural key"
            ) from None

    def _key(self, root: Node) -> HCKey:
        memo = self._memo
        entry = memo.get(id(root))
        if entry is not None:
            return entry[1]
        parts: list = [root.__class__.__name__]
        append = parts.append
        for name in _field_names(root.__class__):
            value = getattr(root, name)
            if isinstance(value, Node):
                append(self._key(value))
            elif isinstance(value, (list, tuple)):
                append(
                    tuple(
                        self._key(element) if isinstance(element, Node) else ("#", element)
                        for element in value
                    )
                )
            else:
                append(("#", value))
        parts_t = tuple(parts)
        key = self._intern.get(parts_t)
        if key is None:
            key = HCKey(parts_t)
            self._intern[parts_t] = key
        memo[id(root)] = (root, key)
        return key


#: ``dataclasses.fields`` is surprisingly costly per call; the field layout
#: of a node class never changes, so cache the names per class.
_FIELD_NAMES: dict = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def copy_tree(root: Node) -> Node:
    """Deep copy of an AST (spans shared, node objects fresh)."""
    replacements = {}
    for step, child in root.child_items():
        replacements[step] = copy_tree(child)
    node = root
    for step, child in replacements.items():
        node = node.with_child(step, child)
    if node is root:  # leaf: force a fresh object
        node = dataclasses.replace(root)  # type: ignore[type-var]
        node.span = root.span
        node.synthetic = root.synthetic
    return node


def mark_synthetic(node: Node) -> Node:
    """Flag a node (in place) as searcher-created and return it."""
    node.synthetic = True
    return node


def spanned(node: Node, span: Optional[Span]) -> Node:
    """Attach a span (in place) and return the node, for parser convenience."""
    node.span = span
    return node


def ancestor_paths(path: Path) -> Iterator[Path]:
    """Yield every proper prefix of ``path``, longest first (excluding itself)."""
    for i in range(len(path) - 1, -1, -1):
        yield path[:i]
