"""Golden pins for bounded derivability: the status `holds` gives, and the
SHA-256 of the certificate it emits, on the paper's library program and on
seeded layered programs.  A digest hashes the certificate read back and
written with a line per occurrence (conftest.expanded_certificate), so it
pins the derivation, whatever the certificate shares.  Any change to the
solver, the replay or the mapping back to the source program that alters
a verdict or a node of a derivation shows here."""

import hashlib
import random

import pytest

from conftest import (BOOK2, BOOK4, expanded_certificate, random_layered_program,
                      read_back)
from test_rule_filter import PAPER, THRESHOLD_SWEEP
from qcflp.domains import U, domain_from_name
from qcflp.oracle import default_universe
from qcflp.semantics import (bounded_lfp, check_proof, holds, parse_statement,
                             production)
from qcflp.syntax import parse_program
from qcflp.terms import App

BOOKS = {
    "BOOK1": 'book(1, "Tintin", "Herge", "French", "Comic", easy, 65)',
    "BOOK2": BOOK2,
    "BOOK3": ('book(3, "Kritik der reinen Vernunft", "Immanuel Kant", '
              '"German", "Philosophy", difficult, 1011)'),
    "BOOK4": BOOK4,
}

LIBRARY_PINS = [
    ("u", '(guessGenre(BOOK1) -> "Comic") # 0.5', "derivable",
     "9d1d0e952269bc4756be3eec76eaa0fafbda42d35a6bd62515042b36ac18f247"),
    ("u", '(guessGenre(BOOK1) -> "Comic") # 0.7', "derivable",
     "28dfde531e80b8381f45310fa6aff32f586186bee253c763d67b02000960e70d"),
    ("u", '(guessGenre(BOOK1) -> "Essay") # 0.5', "unknown", None),
    ("u", '(guessGenre(BOOK1) -> "Essay") # 0.7', "not_found", None),
    ("u", '(guessGenre(BOOK2) -> "SciFi") # 0.5', "derivable",
     "e696d0576190846cb358c7c05a8d152fb1aa3bed4564550dffaec4131178252b"),
    ("u", '(guessGenre(BOOK2) -> "SciFi") # 0.7', "derivable",
     "3b2e2b655ba6640d664485f54cb2d4e94c2e97ba3d9267f81e07f12169d42367"),
    ("u", '(guessGenre(BOOK2) -> "Essay") # 0.5', "unknown", None),
    ("u", '(guessGenre(BOOK2) -> "Essay") # 0.7', "not_found", None),
    ("u", '(guessGenre(BOOK3) -> "Philosophy") # 0.5', "derivable",
     "0957cc77d822be74d84ed0ca62832ade7cea5b3a530f111df87c5ab8db136525"),
    ("u", '(guessGenre(BOOK3) -> "Philosophy") # 0.7', "derivable",
     "31605fdba974abd1439aef0dad30731a2f52774691ec191017b4d952031e7729"),
    ("u", '(guessGenre(BOOK3) -> "Essay") # 0.5', "derivable",
     "960ae3b4e3e7b5333d445b517d30a2da8d000f6e7d6234e0cb1a0683802f804b"),
    ("u", '(guessGenre(BOOK3) -> "Essay") # 0.7', "derivable",
     "1df5dc2bb211348869f2c69867e4906ce35a6ffb2ce1d67f9f44480b237be7b1"),
    ("u", '(guessGenre(BOOK4) -> "Biography") # 0.5', "derivable",
     "3392ba9e7c866f3cff9f9c419c364b130add7a6abf6f7c1d1f05adc103087565"),
    ("u", '(guessGenre(BOOK4) -> "Biography") # 0.7', "derivable",
     "e41dcb3ea81f970f6b026a8f40e336850f7bd1e43eb611b1fd738c12caf7d0e8"),
    ("u", '(guessGenre(BOOK4) -> "Essay") # 0.5', "derivable",
     "62ac757ff2d77e88b161d943199a8ab1e041e9a652e1e2f16cd4a2460ade622a"),
    ("u", '(guessGenre(BOOK4) -> "Essay") # 0.7', "derivable",
     "31361e5fdaae1d1fc7f27c04a40330e7e58ef8eee24f4d62f5b0d764e52a5c07"),
    ("u", '(guessGenre(BOOK2) -> "Adventure") # 0.5', "derivable",
     "78d1210662fd4d86dcf911be58554512917c9fc65b485d75d2460e9ca6bd45b3"),
    ("uxu", '(guessGenre(BOOK4) -> "Essay") # (0.7,0.6)', "derivable",
     "fa1b1142c0088bc66098d6a142e453b368479438d8e1d6d2f971fba9e2ddc805"),
    ("u", '(guessGenre(BOOK4) -> "Essay") # 0.75', "not_found", None),
    # search's rule has a variable (B) that its head does not bind
    ("u", '(search("German","Essay",intermediate) -> 4) # 0.65', "derivable",
     "2c43b824b43edcf6665cad04f393503e1233de39e1209f0d4827f4bab4b1a5fd"),
]

# member's rules tell the empty list from a cons by pattern
MEMBER_PINS = [
    ("(member(BOOK2, library) -> true) # 0.9", "derivable",
     "a43090c8c2a70f02ab679a7e270fa97c4330f8734f05c6f5532606549dac18eb"),
    ("(member(BOOK4, library) -> true) # 1", "derivable",
     "8b4bdf82ad6db5c53144975667b36b8dab66da2654276b173dd3e81c0af08670"),
    ('(member(book(5, "X", "Y", "Z", "W", easy, 1), library) -> false) # 0.5',
     "derivable",
     "212e9c358736d8b796e3c41d87ad618ecf338f46c90e285d8c752e9cf456f074"),
]

# one digest per seed over the status and certificate of each of the
# first six facts of five layered programs, as the semantics tests draw them
RANDOM_PINS = {
    31: "6385b029f3eebf835eaae762b31c5791ad55d25fc81d1cacd2fcb0fdfa5c2bdd",
    77: "4e1a46fa2064f3ef5ebdea439e9365a3ed8c1474cf54fb7eb036dbee83ad62a1",
}


def _library_holds(library_text, dom_name, text):
    """holds on the library at depth 6: (status, certificate SHA-256)."""
    dom = domain_from_name(dom_name)
    program = parse_program(library_text, dom)
    for name, book in BOOKS.items():
        text = text.replace(name, book)
    r = holds(program, dom, parse_statement(text), depth=6)
    if r.tree is None:
        return r.status, None
    return r.status, hashlib.sha256(pinned_form(program, dom, r.tree)).hexdigest()


def pinned_form(program, dom, tree) -> bytes:
    """What a pin hashes: tree's certificate, read back (checking that the
    round trip is exact) and written with a line per occurrence."""
    return expanded_certificate(read_back(program, dom.name, dom, tree),
                                dom.name, dom).encode()


@pytest.mark.parametrize("dom_name, text, status, digest", LIBRARY_PINS,
                         ids=[f"{d}-{t}" for d, t, _, _ in LIBRARY_PINS])
def test_library_holds_golden(library_text, dom_name, text, status, digest):
    assert _library_holds(library_text, dom_name, text) == (status, digest)


@pytest.mark.parametrize("text, status, digest", MEMBER_PINS,
                         ids=[t for t, _, _ in MEMBER_PINS])
def test_member_holds_golden(library_text, text, status, digest):
    assert _library_holds(library_text, "u", text) == (status, digest)


@pytest.mark.parametrize("seed", sorted(RANDOM_PINS))
def test_layered_holds_golden(seed):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(5):
        p = random_layered_program(rng)
        interp = bounded_lfp(p, U, 5, default_universe(p))
        for (f, args, result), quals in list(interp.facts.items())[:6]:
            r = holds(p, U, production(App(f, args), result, max(quals), ()),
                      depth=7)
            assert r.status == "derivable"
            h.update(r.status.encode() + b"\n")
            h.update(pinned_form(p, U, r.tree))
    assert h.hexdigest() == RANDOM_PINS[seed]


# the thresholds of the paper goal in threshold-sweep, with whether the
# solver has a clean answer there
PAPER_THRESHOLDS = [(goal.rpartition(">= ")[2], bool(expected))
                    for goal, dom_name, _, expected in THRESHOLD_SWEEP
                    if goal.startswith(f"{PAPER} | W >= 0") and dom_name == "u"]


@pytest.mark.parametrize("threshold, answered", PAPER_THRESHOLDS)
def test_paper_statement_across_sweep(library_text, threshold, answered):
    # a threshold with a clean answer gives a source certificate, under
    # u and under uxu; above the answer's 0.7 there is no derivation
    for dom_name, qual in (("u", threshold), ("uxu", f"({threshold},{threshold})")):
        dom = domain_from_name(dom_name)
        program = parse_program(library_text, dom)
        text = f'(search("German","Essay",intermediate) -> 4) # {qual}'
        r = holds(program, dom, parse_statement(text))
        assert r.status == ("derivable" if answered else "not_found"), dom_name
        if answered:
            assert r.tree.conclusion == parse_statement(text)
            assert check_proof(program, dom, r.tree).status == "valid"


# an atomic statement, and a production by a primitive: holds weakens
# the replayed tree in its qualification only
ATOMIC_PINS = [
    ("getPages(BOOK3) >= 200 # 0.9", "derivable"),
    ("(1 + 2 -> 3) # 1", "derivable"),
    ('guessGenre(BOOK4) == "Essay" # 0.7', "derivable"),
    ('guessGenre(BOOK4) == "Essay" # 0.8', "not_found"),
    ("getPages(BOOK3) >= 2000 # 0.9", "not_found"),
    ("(1 + 2 -> 4) # 1", "not_found"),
]


@pytest.mark.parametrize("text, status", ATOMIC_PINS, ids=[t for t, _ in ATOMIC_PINS])
def test_atomic_and_primitive_holds(library, text, status):
    for name, book in BOOKS.items():
        text = text.replace(name, book)
    stmt = parse_statement(text)
    r = holds(library, U, stmt, depth=6)
    assert r.status == status
    if r.tree is not None:
        assert r.tree.conclusion == stmt
        assert check_proof(library, U, read_back(library, "u", U, r.tree)).status \
            == "valid"
