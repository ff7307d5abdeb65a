"""Linked subspace chains: validation, point enumeration, exactness, censuses.

A linked chain is the data (n, d, r, {f_i}, {g_i}, s): n copies of a
d-dimensional space over GF(p), forward maps f_i and backward maps g_i with
f_i g_i = g_i f_i = s * id, kernel/image exchange wherever s vanishes, and no
collapsing of consecutive images.  Its points are tuples of r-dimensional
subspaces carried into each other by the maps.  All functions here are pure
and chains and points are immutable; enumeration order is fixed, so censuses
are byte-reproducible.

The linked points are the paths through a layered graph: its nodes are
(level, V), and an edge V -> W means f_i(V) <= W <= g_i^{-1}(V).  Each pass
reads the intervals from one table of its own (``_Intervals``), which draws
each node once, reduces f_i(V) and g_i^{-1}(V) once per distinct tuple of
their generators (the images f_i b of V's basis rows, the rows a g_i for
V's annihilator rows a), lists the spaces between each distinct pair once
and holds each distinct space as one object.  A draw runs on int rows:
axiom (I) is decided once per step kind, and a space is interned by its
echelon entries before any ``Subspace`` is built, so the passes key spaces
by identity and hash none.
The point stream walks the graph depth first and lazily (``_walk``), so it
can stop early.  The counting passes (``census`` with its signature graph,
and ``boundary_counts``) are one forward fold (``_fold``), which alone
spends their budget: it builds level k + 1 from the front at level k,
hands each edge to the pass's move, and keeps no layer once it is read.
Every analysis reads an edge through ``_step``: the ranks of f_i and g_i
on the point, exactness at the step, and the step's block of the
linearised linkage equations, which couple consecutive levels only.  Four
small blocks cut from two node halves (read off echelon bases, pivots and
annihilator rows, with no elimination or frame) decide it, so it is built
once per distinct block.  ``signature``, ``is_exact`` and
``tangent_dimension`` run it along one point's path, which
``_linkage_fault`` checks to be linked from the definition (a graph edge
is by construction); a census runs it once per edge of the fold and
carries the tangent equations forward level by level (``_advance``, once
per shared step and state), merging the prefixes that reach the same
state; a state is held by the reduced rows of its equations, so each
move is one elimination.  Each step they read is checked against the rank
law (``_check_rank_law``).  The table keeps the caches of its pass, so no
call depends on what ran before.  All of it runs on int rows through
``linalg._reduce`` and ``linalg._images``, the one product kernel.
"""

from __future__ import annotations

import functools
from itertools import chain as concat
from itertools import islice, starmap
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .fields import Fp, PrimeField, Record, _json_field, ring_from_dict
from .linalg import (BudgetError, Matrix, Subspace, _between, _images,
                     _null_basis, _reduce, _require_dict, apply_map,
                     contains, enumerate_subspaces, image, intersect, kernel)


class LinkedChain:
    """The chain datum; levels are 0-based (spaces 0..n-1, maps 0..n-2).

    Immutable once built: it holds no cache, so equality, hashing and every
    analysis depend only on the fields below.
    """

    __slots__ = ("field", "n", "d", "r", "fs", "gs", "s")

    def __init__(self, field_: PrimeField, n: int, d: int, r: int,
                 fs: Sequence[Matrix], gs: Sequence[Matrix], s: Fp):
        if n < 1:
            raise ValueError("chain length must be >= 1")
        if not 0 <= r < d:
            raise ValueError("need 0 <= r < d, got r=%d d=%d" % (r, d))
        if len(fs) != n - 1 or len(gs) != n - 1:
            raise ValueError("expected %d forward and backward maps" % (n - 1))
        for m in list(fs) + list(gs):
            if m.rows != d or m.cols != d:
                raise ValueError("all chain maps must be %dx%d" % (d, d))
            if m.ring != field_:
                raise ValueError("chain maps must live over %r" % field_)
        self.field = field_
        self.n = n
        self.d = d
        self.r = r
        self.fs = tuple(fs)
        self.gs = tuple(gs)
        self.s = field_(s)

    @property
    def p(self) -> int:
        return self.field.p

    def truncate(self, n_prime: int) -> "LinkedChain":
        if not 1 <= n_prime <= self.n:
            raise ValueError("truncation length out of range")
        return LinkedChain(self.field, n_prime, self.d, self.r,
                           self.fs[:n_prime - 1], self.gs[:n_prime - 1], self.s)

    def reverse(self) -> "LinkedChain":
        """The same chain walked backwards (f and g swap roles)."""
        return LinkedChain(self.field, self.n, self.d, self.r,
                           tuple(reversed(self.gs)), tuple(reversed(self.fs)),
                           self.s)

    def __eq__(self, other):
        if not isinstance(other, LinkedChain):
            return NotImplemented
        return (self.field, self.n, self.d, self.r, self.fs, self.gs, self.s) == \
               (other.field, other.n, other.d, other.r, other.fs, other.gs, other.s)

    def __hash__(self):
        return hash((self.field, self.n, self.d, self.r, self.fs, self.gs, self.s))

    def __repr__(self):
        return "LinkedChain(n=%d, d=%d, r=%d, s=%d, p=%d)" % (
            self.n, self.d, self.r, self.s.v, self.p)

    def as_dict(self) -> dict:
        return {"ring": self.field.as_dict(), "n": self.n, "d": self.d,
                "r": self.r, "s": self.s.v,
                "fs": [m.as_dict() for m in self.fs],
                "gs": [m.as_dict() for m in self.gs]}

    @classmethod
    def from_dict(cls, d: dict) -> "LinkedChain":
        d = _require_dict(d, "a chain",
                          ("ring", "n", "d", "r", "s", "fs", "gs"))
        field_ = ring_from_dict(_require_dict(d["ring"], "a chain ring",
                                              ("p",)))
        if field_.dual:
            raise ValueError("a chain ring must be a prime field, got %r"
                             % (field_,))
        for key in ("n", "d", "r", "s"):
            if type(d[key]) is not int:
                raise ValueError("chain %r must be an integer, got %r"
                                 % (key, d[key]))
        for key in ("fs", "gs"):
            if not isinstance(d[key], list):
                raise ValueError("chain %r must be a JSON list of matrices" % key)
        return cls(field_, d["n"], d["d"], d["r"],
                   [Matrix.from_dict(m, field_) for m in d["fs"]],
                   [Matrix.from_dict(m, field_) for m in d["gs"]],
                   field_(d["s"]))


class ChainPoint:
    """A candidate or verified point: one rank-r subspace per level."""

    __slots__ = ("spaces",)

    def __init__(self, spaces: Sequence[Subspace]):
        self.spaces = tuple(spaces)

    def __len__(self):
        return len(self.spaces)

    def __getitem__(self, i):
        return self.spaces[i]

    def __iter__(self):
        return iter(self.spaces)

    def __eq__(self, other):
        if not isinstance(other, ChainPoint):
            return NotImplemented
        return self.spaces == other.spaces

    def __hash__(self):
        return hash(self.spaces)

    def __repr__(self):
        return "ChainPoint(%r)" % (list(self.spaces),)

    def key(self) -> tuple:
        return tuple(s.key() for s in self.spaces)

    def as_dict(self) -> dict:
        return {"spaces": [s.as_dict() for s in self.spaces]}

    @classmethod
    def from_dict(cls, d: dict) -> "ChainPoint":
        spaces = _require_dict(d, "a chain point", ("spaces",))["spaces"]
        if not isinstance(spaces, list):
            raise ValueError("chain point 'spaces' must be a JSON list")
        head = [Subspace.from_dict(s) for s in spaces[:1]]  # one ring read
        return cls(head + [Subspace.from_dict(s, head[0].ring)
                           for s in spaces[1:]])


class ValidationReport(Record):
    __slots__ = ("violations",)

    def __init__(self, violations: Optional[list] = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, condition: str, index: int, detail: str, witness=None):
        self.violations.append({
            "condition": condition, "index": index, "detail": detail,
            "witness": witness})

    def as_dict(self) -> dict:
        return dict(super().as_dict(), ok=self.ok)


class SignatureReport(Record):
    __slots__ = ("f_ranks", "g_ranks", "exact")

    def __init__(self, f_ranks: tuple, g_ranks: tuple, exact: bool):
        self.f_ranks = f_ranks
        self.g_ranks = g_ranks
        self.exact = exact

    def key(self) -> tuple:
        return (self.f_ranks, self.g_ranks)


class DecompositionReport(Record):
    __slots__ = ("level", "image_block", "kernel_block", "complement_block",
                 "block_dims")

    def __init__(self, level: int, image_block: list, kernel_block: list,
                 complement_block: list, block_dims: tuple):
        self.level = level
        self.image_block = image_block  # basis of f_{i-1}(V_{i-1}) inside V_i
        self.kernel_block = kernel_block  # basis of ker f_i restricted to V_i
        # greedy complement, extending any supplied seed
        self.complement_block = complement_block
        self.block_dims = block_dims


def validate_chain(chain: LinkedChain) -> ValidationReport:
    """Check the three chain axioms; violations are reported, not raised."""
    report = ValidationReport()
    d = chain.d
    for i, (f, g) in enumerate(zip(chain.fs, chain.gs)):
        for name, a, b in (("f*g", f, g), ("g*f", g, f)):
            col = _off_scalar_column(a._rows(), b._rows(), chain.s.v, chain.p)
            if col is not None:
                basis_vec = [0] * d
                basis_vec[col] = 1
                report.add("I", i, "%s is not s*id at step %d" % (name, i),
                           witness=basis_vec)
                break
    if chain.s.is_zero():
        for i, (f, g) in enumerate(zip(chain.fs, chain.gs)):
            kf, ig = kernel(f), image(g)
            if kf != ig:
                wit = _containment_witness(kf, ig)
                report.add("II", i, "ker f != im g at step %d" % i, witness=wit)
            kg, iff = kernel(g), image(f)
            if kg != iff:
                wit = _containment_witness(kg, iff)
                report.add("II", i, "ker g != im f at step %d" % i, witness=wit)
    for i in range(chain.n - 2):
        meet = intersect(image(chain.fs[i]), kernel(chain.fs[i + 1]))
        if meet.dim > 0:
            report.add("III", i, "im f_%d meets ker f_%d" % (i, i + 1),
                       witness=list(meet.basis.row(0)))
        meet = intersect(image(chain.gs[i + 1]), kernel(chain.gs[i]))
        if meet.dim > 0:
            report.add("III", i, "im g_%d meets ker g_%d" % (i + 1, i),
                       witness=list(meet.basis.row(0)))
    return report


def _off_scalar_column(arows: list, brows: list, s: int, p: int):
    """The first column of A B, A applied to the columns of B (two maps by
    their int rows), that is not s times the unit column, or None: axiom
    (I), as ``validate_chain`` and ``_Intervals`` read it."""
    return next((j for j, col in enumerate(_images(arows, zip(*brows), p))
                 if any(x != s * (i == j) for i, x in enumerate(col))), None)


def _containment_witness(a: Subspace, b: Subspace):
    """A vector of a not in b, or of b not in a (they are known unequal)."""
    for row in a.basis_rows():
        if not b.contains_vector(row):
            return list(row)
    for row in b.basis_rows():
        if not a.contains_vector(row):
            return list(row)
    return None


def make_standard_chain(n: int, d: int, d1: int, s, p: int, r: int) -> LinkedChain:
    """The model chain: coordinate projections when s = 0, scaled identities
    otherwise.

    With s = 0 every forward map projects onto the first d1 coordinates and
    every backward map onto the last d - d1; d1 in {0, d} is rejected as
    degenerate.  With s a unit, f = id and g = s*id (d1 is irrelevant).
    """
    field_ = PrimeField(p)
    s = field_(s)
    if s.is_zero():
        if not 0 < d1 < d:
            raise ValueError("degenerate chain: need 0 < d1 < d when s = 0")
        rows_f = [[int(i == j and i < d1) for j in range(d)] for i in range(d)]
        rows_g = [[int(i == j and i >= d1) for j in range(d)] for i in range(d)]
        f = Matrix.from_rows(field_, rows_f)
        g = Matrix.from_rows(field_, rows_g)
    else:
        f = Matrix.identity(field_, d)
        g = Matrix.identity(field_, d).scale(s)
    return LinkedChain(field_, n, d, r, [f] * (n - 1), [g] * (n - 1), s)


def _check_point_shape(chain: LinkedChain, pt: ChainPoint) -> None:
    """ValueError unless ``pt`` has the chain's length and each level the
    chain's field (checked first), ambient dimension and rank."""
    if len(pt) != chain.n:
        raise ValueError("point has %d levels, chain has %d" % (len(pt), chain.n))
    for i, sp in enumerate(pt):
        if sp.ring != chain.field:
            raise ValueError("level %d is over %r, the chain over %r"
                             % (i, sp.ring, chain.field))
        if sp.ambient_dim != chain.d:
            raise ValueError("level %d ambient %d != %d" % (i, sp.ambient_dim, chain.d))
        if sp.dim != chain.r:
            raise ValueError("level %d has rank %d, expected %d"
                             % (i, sp.dim, chain.r))


def is_linked_point(chain: LinkedChain, pt: ChainPoint) -> bool:
    """f_i(V_i) <= V_{i+1} and g_i(V_{i+1}) <= V_i for every step."""
    _check_point_shape(chain, pt)
    return not _linkage_fault(chain, pt)


def _linkage_fault(chain: LinkedChain, pt: ChainPoint) -> str:
    """The first map, step by step and f before g, that carries its level
    of ``pt`` out of the other ("f_k(V_k) is not in V_k+1"), or "" when the
    point is linked; its shape is not checked.  ``apply_map`` carries
    levels over GF(p)[eps] too, the maps acting on both eps-parts."""
    for k in range(chain.n - 1):
        if not contains(pt[k + 1], apply_map(chain.fs[k], pt[k])):
            return "f_%d(V_%d) is not in V_%d" % (k, k, k + 1)
        if not contains(pt[k], apply_map(chain.gs[k], pt[k + 1])):
            return "g_%d(V_%d) is not in V_%d" % (k, k + 1, k)
    return ""


def enumerate_points(chain: LinkedChain,
                     budget: Optional[int] = None) -> Iterator[ChainPoint]:
    """All linked points, each exactly once, in a fixed deterministic order.

    Level 0 runs over the subspace stream of GF(p)^d; each later level runs
    only over the interval f_i(V_i) <= V <= g_i^{-1}(V_i), so no candidate is
    ever generated and then filtered for linkage.  The walk is ``_walk``
    from the empty prefix, so each interval is walked once per call, and
    BudgetError is raised once more than ``budget`` candidates are spent.
    """
    yield from _walk(chain, [], enumerate_subspaces(chain.d, chain.r, chain.p),
                     budget=budget)


def boundary_counts(chain: LinkedChain,
                    budget: Optional[int] = None) -> dict:
    """{(V_0, V_{n-1}): number of linked points with these end levels}.

    One ``_fold``, which also spends the budget, and lists no point: a node
    V_k holds {id(V_0): paths from V_0 to it}, and each edge adds its
    source's counts to its target's.
    """
    def move(k: int, v: Subspace, sources: dict, w: Subspace,
             into: dict) -> None:
        for key, paths in sources.items():
            into[key] = into.get(key, 0) + paths

    table = _Intervals(chain)
    front = _fold(table, budget, lambda v: {id(v): 1}, move)
    space = {id(v): v for v in table.spaces.values()}
    return {(space[key], w): paths for w, _, sources in front.values()
            for key, paths in sources.items()}


def _fold(table: _Intervals, budget: Optional[int],
          seed: Callable[[Subspace], dict],
          move: Callable[[int, Subspace, dict, Subspace, dict], None]) -> dict:
    """The last front {id(V): [V, paths, held]} of one forward pass over the
    layered graph whose nodes are (level, V) and whose edges V -> W run over
    the intervals of ``table``, built level by level from the level-0
    stream: the one loop of the counting passes.

    A level-0 node V holds seed(V).  Level k + 1 is built from the front at
    level k alone.  First the interval of each node is read, then, for each
    node V in turn and each W of its interval, move(k, V, held at V, W,
    held at W) folds what V holds into W, whose payload starts as {} and is
    shared by every V reaching W; paths counts the paths from level 0.
    Neither the layer of intervals nor the front is kept once level k + 1
    is built.  (Reading a level's intervals before its moves, rather than
    node by node between them, measured a few percent faster.)

    The budget is spent as the point stream spends it: one unit per level-0
    space, then paths times interval size at each node.  An interval not
    yet in the table is drawn only as far as the budget has room for, so an
    over-budget one is never listed whole, and the stream's BudgetError is
    raised once the total passes ``budget``.  Only the draws raise here (a
    draw's axiom ValueError), so errors come in the stream's order.  Every
    space of the pass is one object of the table, which holds it, so the
    fronts key spaces by identity.
    """
    _check_budget(budget)
    chain, spent, front = table.chain, 0, {}
    for v in enumerate_subspaces(chain.d, chain.r, chain.p):
        spent += 1
        if budget is not None and spent > budget:
            raise _budget_error(budget)
        v = table.space(v)
        front[id(v)] = [v, 1, seed(v)]
    for k in range(chain.n - 1):
        layer, nxt = [], {}
        for v, paths, _ in front.values():
            cands = table.of(k, v)
            if not isinstance(cands, tuple):
                stop = (None if budget is None
                        else (budget - spent) // paths + 1)
                cands = tuple(islice(cands, stop))
            spent += paths * len(cands)
            if budget is not None and spent > budget:
                raise _budget_error(budget)
            layer.append(cands)
        for (v, paths, held), cands in zip(front.values(), layer):
            for w in cands:
                slot = nxt.get(id(w))
                if slot is None:
                    slot = nxt[id(w)] = [w, paths, {}]
                else:
                    slot[1] += paths
                move(k, v, held, w, slot[2])
        front, kind = nxt, table.kinds[k]
        if kind not in table.kinds[k + 1:]:
            for memos in table.kindwise:
                memos[kind].clear()
    return front


def _check_budget(budget: Optional[int]) -> None:
    """ValueError unless ``budget`` is None or an int (not a bool) >= 0."""
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError("budget must be a nonnegative integer, got %r"
                         % (budget,))


def _budget_error(budget: int) -> BudgetError:
    return BudgetError("enumeration examined more than %d candidate subspaces"
                       % budget, count=budget + 1)


def _walk(chain: LinkedChain, prefix: Sequence[Subspace],
          first: Iterable[Subspace],
          keep: Optional[Callable[[int, Subspace], bool]] = None,
          budget: Optional[int] = None) -> Iterator[ChainPoint]:
    """The linked completions of ``prefix``, depth first, in stream order.

    ``first`` holds the candidates for level len(prefix); each later level
    runs over the interval f_i(V) <= W <= g_i^{-1}(V) of the level before,
    read from one ``_Intervals`` table and restricted to the W with
    keep(level, W) when ``keep`` is given.  The search runs on an explicit
    stack of candidate iterators, one per level, so chain length is not
    bounded by the recursion limit.  Every candidate taken off the stack,
    replayed or not, spends one budget unit, so the order of the points and
    the count at which the budget runs out are those of walking every
    interval afresh, and no candidate is drawn ahead of its spend.
    BudgetError is raised past ``budget`` candidates.
    """
    _check_budget(budget)
    table, spent, prefix = _Intervals(chain), 0, list(prefix)
    stack = [map(table.space, first)]
    while stack:
        cand = next(stack[-1], None)
        if cand is None:
            stack.pop()
            if stack:
                prefix.pop()
            continue
        spent += 1
        if budget is not None and spent > budget:
            raise _budget_error(budget)
        level = len(prefix)
        if level == chain.n - 1:
            yield ChainPoint(prefix + [cand])
            continue
        cands = table.of(level, cand)
        if keep is not None:
            cands = filter(functools.partial(keep, level + 1), cands)
        stack.append(iter(cands))
        prefix.append(cand)


class _Intervals:
    """The intervals f_k(V) <= W <= g_k^{-1}(V) of one pass over a chain,
    and every other cache of the pass, in dicts that die with it.

    ``maps`` holds, per kind, the rows of f_k and g_k and whether
    g_k f_k = s id (axiom (I), ``_off_scalar_column``), read once; steps
    with equal (f_k, g_k) share a kind.  ``spaces`` interns every space by its
    echelon entries before any ``Subspace`` is built, so each distinct
    space is one object, held here, and no dict hashes a ``Subspace``.
    ``kindwise`` holds the memos of each kind, which ``_fold`` clears once
    no later step has it: ``nodes`` maps id(V) to the interval of V,
    ``rows`` a basis row b to (f_k b, g_k b), ``lowers`` and ``uppers`` the
    generators of f_k(V) and g_k^{-1}(V) to the reduced space (``draw``),
    and ``halves`` holds the node halves of ``_half`` with their cuts (a
    draw adds V's forward half when ``seed`` is set, as ``census`` sets it).
    ``pairs`` maps the entries of (f_k(V), g_k^{-1}(V)) to the spaces
    between them, so ``linalg._between`` runs once per distinct pair.
    This and ``nodes`` are filled through ``_recorded``, which stores a
    stream once it is exhausted, so one cut short by a budget, or met again
    while still open deeper in a walk, is drawn afresh and never listed
    ahead of its spend.  ``cuts`` interns each cut for the pass; ``blocks``
    maps the ids of an edge's two cuts to its ``_Step`` (``_step``), and
    ``moves`` holds the census's ``_advance`` per (id(step), C), C the
    equation rows of a state.
    """

    __slots__ = ("chain", "seed", "kinds", "maps", "spaces", "nodes", "rows",
                 "lowers", "uppers", "pairs", "halves", "kindwise", "cuts",
                 "blocks", "moves")

    def __init__(self, chain: LinkedChain):
        maps, p, s = {}, chain.p, chain.s.v
        self.chain, self.seed = chain, False   # True: draws store halves
        self.kinds = tuple(maps.setdefault((f, g), len(maps))
                           for f, g in zip(chain.fs, chain.gs))
        self.maps = []
        for f, g in maps:
            frows, grows = f._rows(), g._rows()
            self.maps.append((frows, grows,
                              _off_scalar_column(grows, frows, s, p) is None))
        self.kindwise = self.nodes, self.rows, self.lowers, self.uppers, \
            self.halves = tuple([{} for _ in maps] for _ in range(5))
        self.spaces, self.pairs = {}, {}
        self.cuts, self.blocks, self.moves = {}, {}, {}

    def space(self, v: Subspace) -> Subspace:
        """The one object of the pass equal to ``v``."""
        return self.spaces.setdefault(v.basis.entries, v)

    def _space(self, ents: tuple, pivots: Sequence[int]) -> Subspace:
        """The one object of the pass with echelon entries ``ents``, built
        only if it is new."""
        sp = self.spaces.get(ents)
        if sp is None:
            sp = self.spaces[ents] = Subspace._from_echelon(
                self.chain.field, self.chain.d, ents, pivots)
        return sp

    def mapped(self, kind: int, u: Subspace, side: int) -> tuple:
        """The rows f_k b (``side`` 0) or g_k b (1) for the basis rows b of
        ``u``, each pair of images computed once per kind (``rows``)."""
        memo, rows = self.rows[kind], u.basis_rows()
        for row in rows:
            if row not in memo:
                memo[row] = tuple(tuple(_images(m, (row,), self.chain.p)[0])
                                  for m in self.maps[kind][:2])
        return tuple([memo[row][side] for row in rows])

    def of(self, k: int, v: Subspace) -> Iterable[Subspace]:
        """The interval of v at step k: a stored tuple, or the stream of a
        new pair, which stores it once exhausted."""
        memo = self.nodes[self.kinds[k]]
        seen = memo.get(id(v))
        if seen is None:
            seen = self.draw(k, v)
            if isinstance(seen, tuple):
                memo[id(v)] = seen
            else:
                seen = _recorded(seen, memo, id(v))
        return seen

    def draw(self, k: int, v: Subspace) -> Iterable[Subspace]:
        """The rank-r spaces W with f_k(v) <= W <= g_k^{-1}(v), in stream
        order, interned: a stored tuple, or the stream of a new pair.

        f_k(v) is one ``_reduce`` per distinct tuple of the images f_k b of
        v's basis rows (``mapped``).  When it has rank r it is the whole
        interval; otherwise g_k^{-1}(v) is one ``_null_basis`` per distinct
        tuple of rows a g_k, a over the annihilator rows of v, which a
        census's table (``seed``) stores with the f_k b as v's forward half
        (``_half``), and the spaces between the two are listed once per
        distinct pair from ``linalg._between``: the kernels of
        ``apply_map``, ``preimage`` and ``enumerate_between`` without their
        checks.  Only those keys are computed here.  g_k^{-1}(v) has
        dimension at least r for any map, so the interval is empty only when
        g_k f_k(v) is not inside v.  Axiom (I), g_k f_k = s id, rules that
        out, so only at a step kind that fails it are the images of f_k(v)
        under g_k tested against v, at every node before any memo of f_k(v)
        is read; a faulty v raises ValueError naming step k.
        """
        chain, kind = self.chain, self.kinds[k]
        p, d, r = chain.p, chain.d, chain.r
        _, grows, lawful = self.maps[kind]
        images = self.mapped(kind, v, 0)
        if not lawful and not v._holds(_images(grows, images, p)):
            raise _AxiomError(k)
        lower = self.lowers[kind].get(images)
        if lower is None:
            rows = list(images)
            pivots = _reduce(rows, range(d), p)
            ents = tuple(concat.from_iterable(rows))
            lower = self.lowers[kind][images] = (
                (self._space(ents, pivots),) if len(pivots) == r
                else ((rows, pivots), ents))
        if len(lower) == 1:
            return lower
        ann = tuple(map(tuple, v._annihilate(grows, p)))
        if self.seed:
            self.halves[kind][id(v), True] = (images, ann, {})
        upper = self.uppers[kind].get(ann)
        if upper is None:
            upper = _null_basis(list(ann), d, p)
            upper = self.uppers[kind][ann] = (upper, tuple(
                concat.from_iterable(upper[0])))
        (lower, ents), (upper, uents) = lower, upper
        seen = self.pairs.get((ents, uents))
        if seen is None:
            seen = _recorded(starmap(self._space, _between(
                lower, upper, r, p)), self.pairs, (ents, uents))
        return seen


def _recorded(stream: Iterator, memo: dict, key: tuple) -> Iterator:
    """Yield ``stream``; once it is exhausted, store its items at memo[key]."""
    seen = []
    for item in stream:
        seen.append(item)
        yield item
    memo[key] = tuple(seen)


class _AxiomError(ValueError):
    def __init__(self, step: int, f: str = "f", g: str = "g"):
        super().__init__(
            "step %d: %s_%d(V) is not inside %s_%d^-1(V) for some V; the chain "
            "violates the linked-chain axioms" % (step, f, step, g, step))
        self.step = step


class _Step(NamedTuple):
    """What one edge V_k -> V_{k+1} of a linked point contributes."""
    f_rank: int      # rank of f_k on V_k
    g_rank: int      # rank of g_k on V_{k+1}
    exact: bool      # both kernel containments hold at this step
    eqs: tuple       # rows of [E_V | E_W], the linearised linkage equations


def _half(table: _Intervals, k: int, u: Subspace, forward: bool,
          other: tuple) -> tuple:
    """What an edge at step k reads of its end U, given the pivots
    ``other`` of its other end: (L, Q), for M = f_k at a source
    (``forward``), g_k at a target, and M' the other map.  L holds the
    entries of the rows M b_a at ``other``, the images of U's basis read
    from the table's ``mapped`` as in the draw; Q those of the rows a_c M'
    at the other end's non-pivot columns.  The rows are kept in
    ``table.halves`` per (kind, id(U), forward), with their cuts per
    ``other``, each interned in ``table.cuts``; in a census a draw that
    builds g_k^{-1}(U) has stored U's forward half there already.  No
    elimination runs here."""
    kind = table.kinds[k]
    halves = table.halves[kind]
    half = halves.get((id(u), forward))
    if half is None:
        frows, grows, _ = table.maps[kind]
        half = halves[id(u), forward] = (
            table.mapped(kind, u, 0 if forward else 1),
            u._annihilate(grows if forward else frows, table.chain.p), {})
    cut = half[2].get(other)
    if cut is None:
        images, ann, cuts = half
        free = [c for c in range(table.chain.d) if c not in other]
        cut = (tuple([img[pc] for img in images for pc in other]),
               tuple([q[c] for q in ann for c in free]))
        cut = cuts[other] = table.cuts.setdefault(cut, cut)
    return cut


def _step(table: _Intervals, k: int, v: Subspace, w: Subspace) -> _Step:
    """The step data of the edge V = V_k -> W = V_{k+1}, kept in
    ``table.blocks`` per pair of cuts from the halves (``_half``) of its
    ends: four blocks, which alone decide it.

    Each space has its frame: its basis rows b_a, then the unit rows at its
    non-pivot columns.  Every b_a is 1 at its own pivot pc_a and 0 at the
    others, so the coordinate of y on b_a is y[pc_a]; on the unit row at a
    non-pivot column c it is a_c . y, with a_c = e_c - sum_a b_a[c] e_(pc_a)
    the annihilator row of ``Subspace._annihilate``.  So the r x r block
    L_F[a][i] = (f_k b_a)[pc_i of W] is f_k on V in basis coordinates, and
    the rows a_c f_k of W's half give f_k into the quotient (the edge is
    linked, so they vanish on V's basis); their entries at V's non-pivot
    columns form the e x e block Q_F.  g_k gives L_G and Q_G in the same
    way, with V and W swapped.
    """
    cut_v = _half(table, k, v, True, w.pivots)
    cut_w = _half(table, k, w, False, v.pivots)
    key = (id(cut_v), id(cut_w))   # interned cuts: the ids name the blocks
    st = table.blocks.get(key)
    if st is None:
        (lf, qg), (lg, qf) = cut_v, cut_w
        st = table.blocks[key] = _block_step(table.chain, lf, qf, lg, qg)
    return st


def _block_step(chain: LinkedChain, lf: tuple, qf: tuple, lg: tuple,
                qg: tuple) -> _Step:
    """The ``_Step`` of an edge with blocks L_F, Q_F, L_G, Q_G (``_step``),
    each given by its entries, row by row.  f_rank = rank L_F and
    g_rank = rank L_G.  Exactness is the containment definition by
    rank-nullity, with no axiom assumed (``_check_rank_law`` compares it
    with the rank law): ker g_k|W, of dimension r - rank L_G, lies in
    f_k(V) iff the kernel of g_k on f_k(V), of dimension
    rank L_F - rank L_F L_G, is that large; and the same with F and G
    swapped for ker f_k|V in g_k(W).

    The unknowns are the maps phi_k : V_k -> E/V_k in frame coordinates,
    phi(b_a) = sum_c X[a][c] e_c over the non-pivot columns, flattened as
    X[a][c] at a*e+c with e = d - r.  Linkage to first order reads
    X_k Q_F = L_F X_{k+1} and X_{k+1} Q_G = L_G X_k; ``eqs`` holds those 2re
    equations as rows over the unknowns of level k, then those of level k+1.
    """
    p, r = chain.p, chain.r
    e = chain.d - r
    re_ = r * e
    lf, qf, lg, qg = ([x[i * n:(i + 1) * n] for i in range(n)]
                      for x, n in ((lf, r), (qf, e), (lg, r), (qg, e)))
    eqs = []
    for lam_rows, quot, forward in ((lf, qf, True), (lg, qg, False)):
        for a, lrow in enumerate(lam_rows):
            lam = [-x % p for x in lrow]
            for out_c in range(e):
                own = [0] * re_      # X of the map's source level
                other = [0] * re_    # X of its target level
                own[a * e:(a + 1) * e] = quot[out_c]
                other[out_c::e] = lam
                eqs.append(tuple(own + other) if forward
                           else tuple(other + own))

    def rank(m) -> int:
        return len(_reduce(list(m), range(r), p))

    # an invertible L_F or L_G makes one kernel zero and the other map onto;
    # x applied to the columns of y gives the columns of x y, of its rank
    f_rank, g_rank = rank(lf), rank(lg)
    exact = (r in (f_rank, g_rank)
             or (f_rank - rank(_images(lf, zip(*lg), p)) == r - g_rank
                 and g_rank - rank(_images(lg, zip(*lf), p)) == r - f_rank))
    return _Step(f_rank, g_rank, exact, tuple(eqs))


def _advance(chain: LinkedChain, step: _Step, cons: tuple) -> tuple:
    """(C_{k+1}, dim K - dim A_{k+1}) for A_k = {X : C_k X = 0} across
    ``step``.

    ``cons`` holds C_k, the reduced row-echelon rows of the equations of
    A_k, the level-k maps that extend back to a solution on levels 0..k
    (the empty tuple when A_k is everything).  K = ker [C_k 0 ; E_V E_W].
    One ``_reduce`` of it, X_k block first, gives its rank; its reduced
    rows with a pivot in the X_{k+1} block are zero in the X_k block and
    cut out A_{k+1}, the projection of K, so cut to that block they are
    the canonical C_{k+1}.  dim K - dim A_{k+1} is then
    r(d-r) - rank + len(C_{k+1}).
    """
    re_ = chain.r * (chain.d - chain.r)
    pad = (0,) * re_
    rows = [c + pad for c in cons] + list(step.eqs)
    pivots = _reduce(rows, range(2 * re_), chain.p)
    nxt = tuple(tuple(row[re_:]) for row, pc in zip(rows, pivots)
                if pc >= re_)
    return nxt, re_ - len(pivots) + len(nxt)


def _path_steps(chain: LinkedChain, pt: ChainPoint) -> list:
    """The step data along the path of ``pt``, a point from outside the
    graph; a non-linked point raises ValueError naming its first faulty
    map (``_linkage_fault``)."""
    _check_point_shape(chain, pt)
    fault = _linkage_fault(chain, pt)
    if fault:
        raise ValueError("non-linked point: " + fault)
    table = _Intervals(chain)
    return [_step(table, k, pt[k], pt[k + 1]) for k in range(chain.n - 1)]


def _check_rank_law(chain: LinkedChain, st: _Step) -> None:
    """RuntimeError when s = 0 and the step's exactness disagrees with the
    rank law f_rank + g_rank = r.  Under the axioms g f = f g = 0 puts f(V)
    in ker g|W and g(W) in ker f|V, so each containment holds iff it does."""
    if chain.s.is_zero() and st.exact != (st.f_rank + st.g_rank == chain.r):
        raise RuntimeError(
            "exactness rank law violated; the chain is not linked-valid")


def _point_analysis(chain: LinkedChain, pt: ChainPoint) -> tuple:
    """(``signature``, ``tangent_dimension``) of ``pt``, read off one run of
    ``_path_steps``, so one table and one join of each step serve both."""
    steps = _path_steps(chain, pt)
    cons, dim_d = (), 0
    for st in steps:
        _check_rank_law(chain, st)
        cons, grow = _advance(chain, st, cons)
        dim_d += grow
    sig = SignatureReport(tuple(st.f_rank for st in steps),
                          tuple(st.g_rank for st in steps),
                          all(st.exact for st in steps))
    return sig, dim_d + chain.r * (chain.d - chain.r) - len(cons)


def signature(chain: LinkedChain, pt: ChainPoint) -> SignatureReport:
    """Per-step ranks of f and g restricted to the point, plus exactness.

    Read off the step data of the point's edges (``_step``, shared with
    ``tangent_dimension`` and the census); a non-linked point raises
    ValueError.  When s = 0 each step's containment exactness must agree
    with the rank law at that step (its two ranks sum to r); a disagreement
    raises RuntimeError, as it indicates a corrupted chain.
    """
    return _point_analysis(chain, pt)[0]


def is_exact(chain: LinkedChain, pt: ChainPoint) -> bool:
    """ker g_i on V_{i+1} sits in f_i(V_i) and ker f_i on V_i in g_i(V_{i+1}),
    decided as in ``signature``; a non-linked point raises ValueError."""
    return all(st.exact for st in _path_steps(chain, pt))


def tangent_dimension(chain: LinkedChain, pt: ChainPoint) -> int:
    """Dimension of the space of first-order deformations of a linked point.

    Unknowns are maps phi_i from V_i to E/V_i, one per level, written in
    the coordinates of each level's frame (``_step``): the unit rows at V_i's
    non-pivot columns span a complement, and the coordinates of a vector in
    it are read off V_i's echelon basis.  The answer does not depend on the
    complement.  The linearised linkage conditions couple consecutive
    levels only, so the solutions are built up along the chain as in the
    census: ``_advance`` carries the equations of the space A_k of level-k
    maps that extend back, and the dimension D_k of the solutions vanishing
    at level k, over each step, and the answer is D_{n-1} + dim A_{n-1}.
    It runs with ``signature`` (``_point_analysis``), and raises as it does.
    """
    return _point_analysis(chain, pt)[1]


def decompose(chain: LinkedChain, pt: ChainPoint, level: int,
              c_prime: Optional[Subspace] = None) -> DecompositionReport:
    """Split V_level into the incoming image, the outgoing kernel, and a
    greedy complement extending the optional seed C'.

    Boundary convention follows the chain structure: level 0 has no incoming
    image block, level n-1 has no outgoing kernel block.  The seed must sit
    inside ker g_{level-1} restricted to V_level and meet the image block
    trivially.
    """
    _check_point_shape(chain, pt)
    if not chain.s.is_zero():
        raise ValueError("decomposition requires s = 0")
    if not 0 <= level < chain.n:
        raise ValueError("level out of range")
    v = pt[level]
    if level > 0:
        img_block = apply_map(chain.fs[level - 1], pt[level - 1])
    else:
        img_block = Subspace.zero_space(chain.field, chain.d)
    if level < chain.n - 1:
        ker_block = intersect(v, kernel(chain.fs[level]))
    else:
        ker_block = Subspace.zero_space(chain.field, chain.d)
    seed_rows = []
    if c_prime is not None:
        if level == 0:
            raise ValueError("no incoming map at level 0 to constrain C'")
        ker_g_restr = intersect(v, kernel(chain.gs[level - 1]))
        if not ker_g_restr.contains(c_prime):
            raise ValueError("C' must lie in ker g restricted to V")
        if intersect(c_prime, img_block).dim > 0:
            raise ValueError("C' must meet the incoming image trivially")
        seed_rows = [list(rw) for rw in c_prime.basis_rows()]
    acc_rows = ([list(rw) for rw in img_block.basis_rows()]
                + [list(rw) for rw in ker_block.basis_rows()] + seed_rows)
    acc = Subspace.from_rows(chain.field, chain.d, acc_rows)
    if acc.dim != img_block.dim + ker_block.dim + len(seed_rows):
        raise ValueError("supplied C' is not independent from the blocks")
    comp_rows = list(seed_rows)
    for row in v.basis_rows():
        if not acc.contains_vector(row):
            comp_rows.append(list(row))
            acc = acc.sum(Subspace.from_rows(chain.field, chain.d, [row]))
        if acc.dim == v.dim:
            break
    if acc.dim != v.dim or not acc.contains(v):
        raise RuntimeError("decomposition failed to span the level")
    dims = (img_block.dim, ker_block.dim, len(comp_rows))
    return DecompositionReport(
        level,
        [list(rw) for rw in img_block.basis_rows()],
        [list(rw) for rw in ker_block.basis_rows()],
        comp_rows, dims)


def extend_truncation(chain: LinkedChain, partial: ChainPoint) -> ChainPoint:
    """Complete a linked point of a truncation to the full chain.

    The answer is the first completion in stream order: the first point of
    ``enumerate_points(chain)`` whose first levels are ``partial``.  An
    interval is never empty (``_Intervals.draw`` raises ValueError on a chain
    violating the axioms), so this takes the first subspace of each new
    interval in turn.
    """
    n_prime = len(partial)
    if not 1 <= n_prime <= chain.n:
        raise ValueError("partial point length out of range")
    if not is_linked_point(chain.truncate(n_prime), partial):
        raise ValueError("partial point is not linked for the truncated chain")
    return next(_walk(chain, partial.spaces[:-1], partial.spaces[-1:]))


def exactify(chain: LinkedChain, pt: ChainPoint) -> tuple:
    """Two exact points witnessing that a non-exact point sits on several
    components: the first keeps every forward rank of the input, the second
    keeps every backward rank.

    Levels up to the first non-exact step are kept verbatim; the remaining
    levels are rebuilt as the lexicographically least completion that is
    linked, preserves the forward ranks, and is exact at every step (the
    backward output is the mirrored run on the reversed chain, whose ranks
    are the input's with f and g swapped and both tuples reversed; its
    axiom ValueError is renamed to the chain's own step).
    """
    if not chain.s.is_zero():
        raise ValueError("exactify requires s = 0")
    sig = signature(chain, pt)
    if sig.exact:
        raise ValueError("point is already exact")
    f_point = _exactify_forward(chain, pt, sig.f_ranks, sig.g_ranks)
    try:
        g_fixed = _exactify_forward(chain.reverse(),
                                    ChainPoint(pt.spaces[::-1]),
                                    sig.g_ranks[::-1], sig.f_ranks[::-1])
    except _AxiomError as exc:  # reversed step i is n - 2 - i, f and g swapped
        raise _AxiomError(chain.n - 2 - exc.step, "g", "f") from None
    return f_point, ChainPoint(g_fixed.spaces[::-1])


def _exactify_forward(chain: LinkedChain, pt: ChainPoint, f_ranks: tuple,
                      g_ranks: tuple) -> ChainPoint:
    """The first completion, in stream order, of the levels of ``pt`` up to
    its first non-exact step whose later steps have ranks
    (f_ranks[i], r - f_ranks[i])."""
    r = chain.r
    # s = 0 and the point is not exact, so by the rank law some step has
    # rank sum other than r
    first_bad = next(i for i, (rf, rg) in enumerate(zip(f_ranks, g_ranks))
                     if rf + rg != r)

    def keep(level: int, w: Subspace) -> bool:
        # step level-1 exact with its forward rank, and f_level's rank kept
        return (apply_map(chain.gs[level - 1], w).dim == r - f_ranks[level - 1]
                and (level == chain.n - 1
                     or apply_map(chain.fs[level], w).dim == f_ranks[level]))

    point = next(_walk(chain, pt.spaces[:first_bad],
                       pt.spaces[first_bad:first_bad + 1], keep), None)
    if point is None:
        raise RuntimeError(
            "no exact completion preserving the forward ranks exists")
    return point


def admissible_signatures_n2(d: int, r: int, d1: int, d2: int) -> range:
    """Forward ranks that exact points of a two-level chain can realise."""
    if d1 + d2 != d:
        raise ValueError("need d1 + d2 = d")
    if not 0 < r < d:
        raise ValueError("need 0 < r < d")
    if not 0 < d1 < d:
        raise ValueError("need 0 < d1 < d, got d1=%d d=%d" % (d1, d))
    return range(max(0, r - d2), min(r, d1) + 1)


def expected_component_count_n2(d: int, r: int, d1: int, d2: int) -> int:
    """The size of the admissible range, in closed form
    min(r+1, d-r+1, d1+1, d2+1) = min(r, d1, d2, d-r) + 1."""
    return len(admissible_signatures_n2(d, r, d1, d2))


class CensusReport(Record):
    """Aggregated point data: counts by exactness, exact signature and
    tangent dimension, emitted in sorted key order."""

    __slots__ = ("chain", "q", "points", "exact", "signatures",
                 "tangent_histogram", "signature_graph")

    def __init__(self, chain: dict, q: int, points: int = 0, exact: int = 0,
                 signatures: Optional[dict] = None,  # exact points by signature
                 tangent_histogram: Optional[dict] = None,
                 signature_graph: Optional[dict] = None):
        self.chain = chain
        self.q = q
        self.points = points
        self.exact = exact
        self.signatures = {} if signatures is None else signatures
        self.tangent_histogram = ({} if tangent_histogram is None
                                  else tangent_histogram)
        self.signature_graph = signature_graph

    def as_dict(self) -> dict:
        d = dict(super().as_dict(), schema_version=1,
                 signatures=_json_field(sorted(self.signatures.items())),
                 tangent_histogram=_json_field(
                     sorted(self.tangent_histogram.items())))
        if self.signature_graph is None:
            del d["signature_graph"]
        return d


def census(chain: LinkedChain, budget: Optional[int] = None,
           experiments: bool = False) -> CensusReport:
    """Count points, exact points, exact signatures, and tangent dimensions.

    One ``_fold`` over the graph whose nodes are (level, V) and whose edges
    V -> W run over the intervals.  The tangent equations couple
    consecutive levels only, so a linked prefix ending at level k needs
    only the state (V_k, A_k) to finish its analysis: A_k is the space of
    level-k maps that extend back to a solution on levels 0..k, held by
    C_k, the reduced row-echelon rows of its equations (the empty tuple at
    level 0, where A_0 is everything).  Prefixes with equal states are
    merged, whatever path led to them.  A state counts its prefixes per
    key: the f- and g-rank prefixes while every step is exact (an exact
    point's signature; dropped at the first non-exact step), and D_k, the
    dimension of the truncated solutions vanishing at level k.

    Each edge reads its ranks, exactness and equations from ``_step`` once,
    cut from halves of V and W that the pass's table keeps while their
    step kind is still to come, and shared by every edge with the same
    local blocks, then moves every state at V by one ``_advance``, run once
    per (shared step, state) in the pass.  A leaf of the last front has
    tangent dimension D + dim A_{n-1}, that is D + r(d-r) - len(C_{n-1});
    at n = 1 that is r(d-r).  Once the fold is done, every distinct step
    is checked against the rank law as ``signature`` does, so a draw's
    axiom ValueError and the BudgetError of the fold come before it.

    With ``experiments`` set, a signature-adjacency graph is attached (edges
    join the two exactified signatures over each non-exact point); its
    connectivity is reported as data, with nothing asserted.  It is read off
    the edges and step data the fold's moves record, listing no point
    (``_witnessed_edges``).
    """
    report = CensusReport(chain.as_dict(), chain.p)
    table, re_ = _Intervals(chain), chain.r * (chain.d - chain.r)
    table.seed = True   # its draws store the forward halves its edges read
    moves = table.moves
    ahead = {} if experiments and chain.s.is_zero() else None

    # a node V_k holds {C: {(sig, D): prefixes}}, C the equations of A_k and
    # sig the pair of rank prefixes while every step is exact, None after
    def move(k: int, v: Subspace, by_c: dict, w: Subspace,
             into_w: dict) -> None:
        st = _step(table, k, v, w)
        if ahead is not None:
            ahead.setdefault((k, id(v)), []).append((id(w), st[:2],
                                                     st.exact))
        for cons, counts in by_c.items():
            mv = moves.get((id(st), cons))
            if mv is None:   # one elimination per step and state
                mv = moves[id(st), cons] = _advance(chain, st, cons)
            c_next, grow = mv
            into = into_w.setdefault(c_next, {})
            for (sig, dim_d), cnt in counts.items():
                if sig is not None:
                    sig = ((sig[0] + (st.f_rank,), sig[1] + (st.g_rank,))
                           if st.exact else None)
                key = sig, dim_d + grow
                into[key] = into.get(key, 0) + cnt

    start = {(): {(((), ()), 0): 1}}
    front = _fold(table, budget, lambda v: start, move)
    for st in table.blocks.values():
        _check_rank_law(chain, st)
    hist, sigs = report.tangent_histogram, report.signatures
    for _, _, by_c in front.values():
        for cons, counts in by_c.items():
            for (sig, dim_d), cnt in counts.items():
                tdim = dim_d + re_ - len(cons)   # D + dim A_{n-1}
                hist[tdim] = hist.get(tdim, 0) + cnt
                report.points += cnt
                if sig is not None:
                    report.exact += cnt
                    sigs[sig] = sigs.get(sig, 0) + cnt
    if experiments:
        edges = set() if ahead is None else _witnessed_edges(chain, ahead)
        nodes = sorted(report.signatures)
        root = {node: node for node in nodes}   # union-find, one root each

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for a, b in edges:
            if a in root and b in root:
                root[find(a)] = find(b)
        report.signature_graph = {
            "nodes": [[list(a), list(b)] for a, b in nodes],
            "edges": [[[list(x[0]), list(x[1])] for x in e]
                      for e in sorted(edges)],
            "connected_components": sum(x == y for x, y in root.items()),
        }
    return report


def _witnessed_edges(chain: LinkedChain, ahead: dict) -> set:
    """The signature-graph edges of an s = 0 chain, read off the edges the
    census's fold read: ``ahead`` maps (k, id(V_k)) to the (id(V_{k+1}),
    (f_rank, g_rank), exact) of each edge out of V_k, read off its
    ``_Step``, level by level in fold order.

    A set pass carries, per node, the f- and g-rank prefixes, and (i, V_i)
    and (j, V_{j+1}) for the first and last non-exact steps, which are the
    steps off the rank law (the census has checked it at every step).  A
    leaf with such a step joins (f, r - f) to (r - g, g).  Its forward
    ``exactify`` witness exists iff a path from V_i has ranks
    (f_ranks[k], r - f_ranks[k]) at each step k >= i, its backward one iff
    a path from V_{j+1} back to level 0 has (r - g_ranks[k], g_ranks[k]) at
    each k <= j; each key (i, V_i, f_ranks[i:]) or
    (j, V_{j+1}, g_ranks[:j+1]) is checked once.
    """
    n, r = chain.n, chain.r
    back, root = {}, {((), (), None, None)}
    # (k, id(V_k)) -> the keys of the prefixes ending there; a node is
    # dropped once read, so the leaves are what is left
    states = {}
    for (k, v), out in ahead.items():
        keys = states.pop((k, v), root)
        for w, (f, g), exact in out:
            back.setdefault((k, w), []).append((v, (f, g), exact))
            into = states.setdefault((k + 1, w), set())
            for fr, gr, first, last in keys:
                if not exact:
                    first, last = first or (k, v), (k, w)
                into.add((fr + (f,), gr + (g,), first, last))
    edges, walks = set(), set()
    for fr, gr, first, last in set().union(*states.values()):
        if first is not None:
            edges.add(tuple(sorted(((fr, tuple(r - x for x in fr)),
                                    (tuple(r - x for x in gr), gr)))))
            walks.add((True, first, tuple((f, r - f) for f in fr[first[0]:])))
            walks.add((False, last,
                       tuple((r - g, g) for g in gr[last[0]::-1])))
    for forward, (level, start), wants in walks:
        adj, front = ahead if forward else back, {start}
        levels = range(level, n - 1) if forward else range(level, -1, -1)
        for k, want in zip(levels, wants):
            front = {y for x in front for y, ranks, _ in adj[k, x]
                     if ranks == want}
        if not front:
            raise RuntimeError(
                "no exact completion preserving the forward ranks exists")
    return edges
