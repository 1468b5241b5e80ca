"""Seeded workloads: generated program text, ops and their expectations.

A workload is a set of programs (source text and qualification domain)
plus a list of ops.  Generators take the seed; the package under test
only ever receives the generated text.  A seed changes names, ids,
factors and op order, never the shape of the work (sizes, match
positions, derivation depths), so runs with different seeds measure the
same amount of work.

Why each workload exists:

* threshold-sweep: the paper's program and goal.  Left-recursive
  attenuated narrowing grows exponentially as the threshold falls, and
  each goal has one answer with a small proof, so solve dominates.
  Covers the ROADMAP baseline rows for W >= 0.65 / 0.5 / 0.3 and the
  threshold-free goal at a depth bound.  The threshold-free goal at the
  default depth is left out: it runs for over a minute, so it could only
  ever show as a failed op.
* catalogue: library rules over generated catalogues of 4 to 32 books.
  The search is shallow and wide and proofs grow with the catalogue, so
  replay, check, prove and certificate I/O dominate and set-up grows
  with program size.
* oracle: small generated programs cross-checked by oracle.compare,
  the only workload where the bounded fixpoint runs and where per-Solver
  set-up cost is not amortised.  Includes a mutation sweep.  oracle on
  library.qcflp itself (a ROADMAP baseline row) is left out for the same
  reason as the threshold-free goal at the default depth.

Every workload also carries one or two small ops of the other kinds so
that every layer is exercised, and timed, on every workload.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from typing import Optional

import reference as ref


@dataclass(frozen=True)
class ProgramSpec:
    key: str
    text: str
    dom: str = "u"                  # qualification domain name


@dataclass(frozen=True)
class SolveOp:
    """Certified solve: all answers, then replay and check the clean ones."""
    label: str
    program: str
    goal: str
    expect: dict                    # see reference: subst key -> box
    depth: int = 64
    flags: tuple = ()               # flags every answer must carry


@dataclass(frozen=True)
class ProveOp:
    """Prove round trip: holds, serialize, parse, check."""
    label: str
    program: str
    statement: str
    derivable: bool
    tamper: Optional[str] = None    # raise the root qualification to this


@dataclass(frozen=True)
class OracleOp:
    """oracle.compare, or a mutation sweep over every drop_site."""
    label: str
    program: str
    expect: Optional[dict] = None   # goal -> maxima, None: agreement only
    extra_universe: tuple = ()
    sweep: bool = False
    k: int = 6
    depth: int = 8


@dataclass(frozen=True)
class Workload:
    """ops run in passes, each in a seeded order."""
    name: str
    programs: tuple
    ops: tuple


PALETTE = (0.9, 0.8, 0.75, 0.7, 0.6, 0.5)


def _arrow(factor: float) -> str:
    return "-->" if factor == 1.0 else f"-{factor}->"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ----------------------------------------------------------------------
# Small shared programs
# ----------------------------------------------------------------------

def chain_program(rng: random.Random, key: str, dom: str = "u") -> tuple:
    """f0 -a-> true, f1 -b-> f0, f2 -c-> f1, with seeded factors."""
    names = ["f0", "f1", "f2"]
    if dom == "u":
        factors = [rng.choice(PALETTE) for _ in names]
        arrows = [_arrow(a) for a in factors]
        expect = ref.chain_records(names, factors)
    else:
        factors = [(rng.choice(PALETTE), rng.choice(PALETTE)) for _ in names]
        arrows = [f"-({a},{b})->" for a, b in factors]
        expect = ref.pair_chain_records(names, factors)
    rhs = ["true"] + names[:-1]
    text = "\n".join(f"{n} {a} {r}" for n, a, r in zip(names, arrows, rhs))
    return ProgramSpec(key, text + "\n", dom), expect


# ----------------------------------------------------------------------
# threshold-sweep
# ----------------------------------------------------------------------

PAPER_GOAL = '(search("German","Essay",intermediate) == R) # W'
SWEEP_THRESHOLDS = (0.9, 0.8, 0.7, 0.65, 0.6, 0.5, 0.3)


def threshold_sweep(seed: int, library_text: str) -> Workload:
    rng = _rng("threshold-sweep", seed)
    chain, chain_expect = chain_program(rng, "chain")
    programs = (ProgramSpec("library", library_text),
                ProgramSpec("library-uxu", library_text, "uxu"), chain)
    ops = [SolveOp(f"paper@{t}", "library", f"{PAPER_GOAL} | W >= {t}",
                   ref.threshold_box(ref.PAPER_BEST, t))
           for t in SWEEP_THRESHOLDS]
    books = {b.id: b for b in ref.LIBRARY_BOOKS}
    for bid, genres in sorted(ref.LIBRARY_GENRES.items()):
        best = ref.genre_answers(genres)
        for t in (0.5, 0.3):
            ops.append(SolveOp(
                f"genre-b{bid}@{t}", "library",
                f"(guessGenre({books[bid].term()}) == G) # W | W >= {t}",
                ref.threshold_box(best, t)))
    ops.append(SolveOp("paper-uxu@0.65", "library-uxu",
                       f"{PAPER_GOAL} | W >= (0.65,0.65)",
                       ref.threshold_box(ref.PAPER_BEST, 0.65, ("W.1", "W.2"))))
    for depth in (5, 6):
        ops.append(SolveOp(f"paper-free-depth{depth}", "library", PAPER_GOAL,
                           ref.open_box(ref.PAPER_BEST), depth=depth,
                           flags=("incomplete",)))
    ops.append(ProveOp("prove-paper", "library",
                       f'(guessGenre({books[4].term()}) -> "Essay") # 0.7', True))
    ops.append(OracleOp("oracle-chain", "chain", chain_expect))
    return Workload("threshold-sweep", programs, tuple(ops))


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------

CATALOGUE_SIZES = (4, 8, 16, 32)
# (language, genre, vocabulary, pages range) by position modulo 8.
SLOTS = (("French", "Comic", "easy", (50, 199)),
         ("English", "SciFi", "medium", (100, 999)),
         ("German", "Philosophy", "difficult", (200, 999)),
         ("German", "Biography", "medium", (100, 999)),
         ("Spanish", "Children", "easy", (10, 49)),
         ("Italian", "Fantasy", "difficult", (50, 199)),
         ("English", "Poetry", "medium", (100, 999)),
         ("French", "Biography", "easy", (50, 199)))
# The last book of every catalogue is the only Latin one, so a goal on it
# has one answer whose proof walks the whole library list.
LAST_SLOT = ("Latin", "Biography", "medium", (100, 999))


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(string.ascii_letters) for _ in range(n))


def make_catalogue(rng: random.Random, size: int) -> tuple:
    ids = rng.sample(range(100, 1000), size)
    books = []
    for i, bid in enumerate(ids):
        lang, genre, voc, (lo, hi) = LAST_SLOT if i == size - 1 else SLOTS[i % 8]
        books.append(ref.Book(bid, _word(rng, 8), _word(rng, 10), lang, genre,
                              voc, rng.randint(lo, hi)))
    return tuple(books)


def catalogue_text(library_text: str, books) -> str:
    """library.qcflp's rules with its `library` list replaced by books."""
    listing = ("library --> [ " + ",\n              ".join(b.term() for b in books)
               + " ]")
    text, n = re.subn(r"^library -->.*?\]", lambda _m: listing, library_text,
                      count=1, flags=re.S | re.M)
    if n != 1:
        raise ValueError("library.qcflp has no `library --> [...]` rule")
    return text


def catalogue(seed: int, library_text: str) -> Workload:
    rng = _rng("catalogue", seed)
    cats = {n: make_catalogue(rng, n) for n in CATALOGUE_SIZES}
    chain, chain_expect = chain_program(rng, "chain")
    programs = tuple(ProgramSpec(f"books{n}", catalogue_text(library_text, b))
                     for n, b in cats.items()) + (chain,)
    ops = []
    for n in (4, 8):
        ops.append(SolveOp(f"open-books{n}@0.6", f"books{n}",
                           "(search(L,G,V) == R) # W | W >= 0.6",
                           ref.threshold_box(ref.search_best(cats[n]), 0.6)))
    for n, goals in ((16, (("Essay", "intermediate"), ("Biography", "upper"))),
                     (32, (("Essay", "intermediate"),))):
        last = cats[n][-1]
        for genre, level in goals:
            best = ref.search_best(cats[n], "Latin", genre, level, last.id)
            ops.append(SolveOp(
                f"closed-books{n}-{genre}",
                f"books{n}",
                f'(search("Latin","{genre}",{level}) == {last.id}) # W | W >= 0.6',
                ref.threshold_box(best, 0.6)))
    books = cats[8]
    statements = (  # (book index, function, result, qualification)
        (1, "guessGenre", '"Fantasy"', 0.9),
        (1, "guessGenre", '"Adventure"', 0.6),
        (1, "guessGenre", '"Adventure"', 0.7),
        (2, "guessGenre", '"Essay"', 0.8),
        (3, "guessGenre", '"Essay"', 0.75),
        (5, "guessReaderLevel", "upper", 0.8),
        (3, "guessReaderLevel", "upper", 0.8),
        (4, "guessReaderLevel", "basic", 0.9),
    )
    for i, fn, result, q in statements:
        b = books[i]
        quals = ref.genre_quals(b.genre) if fn == "guessGenre" else ref.level_quals(b)
        name = result.strip('"')
        ops.append(ProveOp(f"prove-{fn}-b{i}-{name}@{q}",
                           "books8", f"({fn}({b.term()}) -> {result}) # {q}",
                           quals.get(name, 0.0) >= q - ref.TOL))
    # A certificate for the 0.6 Adventure statement, with its root raised
    # above the derivable 0.63: the checker must refuse it.
    ops.append(ProveOp("prove-tampered", "books8",
                       f'(guessGenre({books[1].term()}) -> "Adventure") # 0.6',
                       True, tamper="0.7"))
    ops.append(OracleOp("oracle-chain", "chain", chain_expect))
    return Workload("catalogue", programs, tuple(ops))


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

JOIN_NODES = 8
DAG_LAYERS = (1, 2, 3, 4)


def join_program(rng: random.Random, key: str) -> tuple:
    """A successor chain plus hops whose middle nodes are existential.

    Every variable of a rule is enumerated over the universe by the
    fixpoint, so hop3's four variables make bounded_lfp dominate.  The
    seed permutes the chain's nodes and picks the factors.
    """
    nodes = [f"c{i}" for i in range(JOIN_NODES)]
    rng.shuffle(nodes)
    succ = {x: (y, rng.choice(PALETTE)) for x, y in zip(nodes, nodes[1:])}
    hops = {"hop2": (2, rng.choice(PALETTE)), "hop3": (3, rng.choice(PALETTE))}
    lines = [f"succ({x}) {_arrow(a)} {y}" for x, (y, a) in succ.items()]
    lines.append(f"hop2(X) {_arrow(hops['hop2'][1])} Z <== succ(X) == Y, "
                 "succ(Y) == Z")
    lines.append(f"hop3(X) {_arrow(hops['hop3'][1])} V <== succ(X) == Y, "
                 "succ(Y) == Z, succ(Z) == V")
    hop3 = {(("V", end), ("X", start)): q
            for start, (end, q) in ref.hop_best(succ, *hops["hop3"]).items()}
    return (ProgramSpec(key, "\n".join(lines) + "\n"),
            ref.join_records(succ, hops), hop3)


def dag_program(rng: random.Random, key: str) -> tuple:
    """Reachability over a layered DAG: many goals, each a tiny search.

    Node j of a layer has parents j and j+1 (modulo width) of the layer
    above; the seed permutes node names and picks the factors.
    """
    names = [f"n{i}" for i in range(sum(DAG_LAYERS))]
    rng.shuffle(names)
    layers, count = [], 0
    for width in DAG_LAYERS:
        layers.append(names[count:count + width])
        count += width
    edges = {layers[0][0]: []}
    for above, layer in zip(layers, layers[1:]):
        for j, node in enumerate(layer):
            parents = sorted({above[j % len(above)], above[(j + 1) % len(above)]})
            edges[node] = [(p, rng.choice(PALETTE)) for p in parents]
    lines = [f"r({layers[0][0]}) --> true"]
    for node, parents in edges.items():
        for p, a in parents:
            lines.append(f"r({node}) {_arrow(a)} true <== r({p}) == true")
            lines.append(f"s({p}) {_arrow(a)} {node}")
    deepest = layers[-1][0]
    return (ProgramSpec(key, "\n".join(lines) + "\n"), ref.dag_records(edges),
            deepest, ref.dag_best(edges)[deepest])


def sweep_program(rng: random.Random, key: str) -> ProgramSpec:
    """scripts/oracle_sweep.py's branching sample, with seeded factors.

    The factors are drawn so that every dropped qualification condition
    changes some answer: with equal factors on `a` and `p(z)`, dropping
    the ninth site is an equivalent mutant.
    """
    a, c, d = rng.choice((0.9, 0.8)), rng.choice((0.5, 0.6)), rng.choice((0.7, 0.6))
    return ProgramSpec(key, f"a -{a}-> true\np(z) -0.95-> true\n"
                            f"p(s(N)) -{c}-> p(N)\nc(X) -{d}-> a <== p(X)\n")


def oracle(seed: int, _library_text: str) -> Workload:
    rng = _rng("oracle", seed)
    programs, ops = [], []
    for i in range(3):
        spec, expect, hop3 = join_program(rng, f"join{i}")
        programs.append(spec)
        ops.append(OracleOp(f"join-{i}", spec.key, expect))
        ops.append(SolveOp(f"solve-join-{i}", spec.key,
                           "(hop3(X) == V) # W | W >= 0.1",
                           ref.threshold_box(hop3, 0.1)))
    for i in range(3):
        spec, expect, deepest, best = dag_program(rng, f"dag{i}")
        programs.append(spec)
        ops.append(OracleOp(f"dag-{i}", spec.key, expect))
        ops.append(SolveOp(f"solve-dag-{i}", spec.key,
                           f"(r({deepest}) == true) # W | W >= 0.1",
                           ref.threshold_box({(): best}, 0.1)))
        ops.append(ProveOp(f"prove-dag-{i}", spec.key,
                           f"(r({deepest}) -> true) # {best:.6f}".rstrip("0"),
                           True))
    spec, expect = chain_program(rng, "uxu", "uxu")
    programs.append(spec)
    ops.append(OracleOp("uxu-chain", "uxu", expect))
    spec = sweep_program(rng, "sweep")
    programs.append(spec)
    ops.append(OracleOp("mutation-sweep", "sweep",
                        extra_universe=("s(z)", "s(s(z))"), sweep=True, depth=6))
    return Workload("oracle", tuple(programs), tuple(ops))


WORKLOADS = {"threshold-sweep": threshold_sweep, "catalogue": catalogue,
            "oracle": oracle}


def build(name: str, seed: int, library_text: str) -> Workload:
    return WORKLOADS[name](seed, library_text)
