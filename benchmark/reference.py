"""Expected results for the benchmark, computed without qcflp.

Nothing here imports the package under test.  The library expectations
are written out by hand from the paper's example; the catalogue and
oracle expectations come from small direct evaluators of the rules that
the generators emit, so a wrong answer from the solver, the prover or
the oracle cannot also be the reference it is checked against.

An expected solve result maps a substitution key (sorted pairs of
variable name and printed term) to the expected qualification box of its
best answer: leaf name -> (lower bound, lower bound open, upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass

TOL = 1e-9


@dataclass(frozen=True)
class Book:
    id: int
    title: str
    author: str
    language: str
    genre: str
    vocabulary: str
    pages: int

    def term(self) -> str:
        return (f'book({self.id}, "{self.title}", "{self.author}", '
                f'"{self.language}", "{self.genre}", {self.vocabulary}, '
                f'{self.pages})')


# programs/library.qcflp's catalogue, copied by hand.
LIBRARY_BOOKS = (
    Book(1, "Tintin", "Herge", "French", "Comic", "easy", 65),
    Book(2, "Dune", "F. P. Herbert", "English", "SciFi", "medium", 345),
    Book(3, "Kritik der reinen Vernunft", "Immanuel Kant", "German",
         "Philosophy", "difficult", 1011),
    Book(4, "Beim Hauten der Zwiebel", "Gunter Grass", "German", "Biography",
         "medium", 432),
)

# Hand-written answers for the paper's goal on library.qcflp: book 4 is
# the only German essay for intermediate readers, qualified 0.7 (the
# Biography -> Essay factor), and nothing is found above 0.7.
PAPER_BEST = {(("R", "4"),): 0.7}

# Hand-written guessGenre answers on the recursive books of library.qcflp.
LIBRARY_GENRES = {
    2: {"SciFi": 1.0, "Fantasy": 0.9, "Adventure": 0.63},
    3: {"Philosophy": 1.0, "Essay": 0.8},
    4: {"Biography": 1.0, "Essay": 0.7},
}


def threshold_box(best: dict, threshold: float, leaves=("W",)) -> dict:
    """Expected answers of a goal with `W >= threshold`."""
    return {key: {leaf: (threshold, False, q) for leaf in leaves}
            for key, q in best.items() if q >= threshold - TOL}


def open_box(best: dict, leaves=("W",)) -> dict:
    """Expected answers of a threshold-free goal: W in (0, best]."""
    return {key: {leaf: (0.0, True, q) for leaf in leaves}
            for key, q in best.items()}


# ----------------------------------------------------------------------
# A direct evaluator of library.qcflp's guessGenre / guessReaderLevel /
# search rules: the best qualification of a fact is the maximum over its
# derivations of the product of attenuation factors along the chain, and
# a conjunction of conditions takes the minimum.
# ----------------------------------------------------------------------

GENRE_RULES = (("SciFi", "Fantasy", 0.9), ("Philosophy", "Essay", 0.8),
               ("Biography", "Essay", 0.7), ("Fantasy", "Adventure", 0.7))


def genre_quals(genre: str) -> dict:
    best = {genre: 1.0}
    changed = True
    while changed:          # every factor is below 1, so this terminates
        changed = False
        for src, dst, factor in GENRE_RULES:
            if src in best and best[src] * factor > best.get(dst, 0.0) + TOL:
                best[dst] = best[src] * factor
                changed = True
    return best


def level_quals(book: Book) -> dict:
    out: dict = {}

    def add(level: str, q: float) -> None:
        out[level] = max(out.get(level, 0.0), q)

    voc, pages = book.vocabulary, book.pages
    if voc == "easy":
        add("basic" if pages < 50 else "intermediate", 1.0 if pages < 50 else 0.8)
    children = genre_quals(book.genre).get("Children")
    if children:
        add("basic", 0.9 * children)
    if voc == "difficult":
        add("proficiency" if pages >= 200 else "upper", 0.9 if pages >= 200 else 0.8)
    if voc == "medium":
        add("intermediate", 0.8)
        add("upper", 0.7)
    return out


def search_best(books, language=None, genre=None, level=None,
                result=None) -> dict:
    """Best qualification of each answer of search(L, G, V) == R.

    Arguments given as None are goal variables and appear in the
    substitution key; the others are fixed by the goal.
    """
    best: dict = {}
    for b in books:
        if language is not None and b.language != language:
            continue
        if result is not None and b.id != result:
            continue
        for lvl, ql in level_quals(b).items():
            if level is not None and lvl != level:
                continue
            for gen, qg in genre_quals(b.genre).items():
                if genre is not None and gen != genre:
                    continue
                key = []
                if genre is None:
                    key.append(("G", f'"{gen}"'))
                if language is None:
                    key.append(("L", f'"{b.language}"'))
                if result is None:
                    key.append(("R", str(b.id)))
                if level is None:
                    key.append(("V", lvl))
                key = tuple(key)
                best[key] = max(best.get(key, 0.0), min(ql, qg))
    return best


def genre_answers(quals: dict) -> dict:
    """genre -> qualification, as the answers of guessGenre(book) == G."""
    return {(("G", f'"{g}"'),): q for g, q in quals.items()}


# ----------------------------------------------------------------------
# Oracle programs: expected records of oracle.compare, goal -> maxima.
# ----------------------------------------------------------------------

def chain_records(names, factors) -> dict:
    """f0 -a0-> true, f1 -a1-> f0, ...: fi == true has the product a0..ai."""
    out, q = {}, 1.0
    for name, a in zip(names, factors):
        q *= a
        out[f"{name} == true"] = [(q,)]
    return out


def pair_chain_records(names, factors) -> dict:
    """The same chain over pairs, multiplied componentwise."""
    out, q1, q2 = {}, 1.0, 1.0
    for name, (a, b) in zip(names, factors):
        q1, q2 = q1 * a, q2 * b
        out[f"{name} == true"] = [(q1, q2)]
    return out


def dag_best(edges: dict) -> dict:
    """Best reach qualification per node: r(root) is 1, an edge multiplies.

    edges maps a node to its (parent, factor) pairs; parents come first
    in the dict's order.
    """
    best = {}
    for node, parents in edges.items():
        best[node] = 1.0 if not parents else \
            max(best[p] * a for p, a in parents)
    return best


def dag_records(edges: dict) -> dict:
    out = {f"r({n}) == true": [(q,)] for n, q in dag_best(edges).items()}
    for node, parents in edges.items():
        for p, a in parents:
            out[f"s({p}) == {node}"] = [(a,)]
    return out


def hop_best(succ: dict, steps: int, factor: float) -> dict:
    """start -> (end, qualification) of hop(start) == end through succ.

    A hop's conditions are a conjunction, so its qualification is its
    factor times the minimum over the chain of succ factors.
    """
    out = {}
    for start in succ:
        node, q = start, 1.0
        for _ in range(steps):
            if node not in succ:
                break
            node, a = succ[node]
            q = min(q, a)
        else:
            out[start] = (node, factor * q)
    return out


def join_records(succ: dict, hops: dict) -> dict:
    """succ(x) -a-> y facts, and hopN(X) -b-> Z through N succ steps."""
    out = {f"succ({x}) == {y}": [(a,)] for x, (y, a) in succ.items()}
    for name, (steps, factor) in hops.items():
        for start, (end, q) in hop_best(succ, steps, factor).items():
            out[f"{name}({start}) == {end}"] = [(q,)]
    return out
