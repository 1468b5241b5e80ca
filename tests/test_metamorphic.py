"""Relations between runs that the qualification scheme implies.

Product diagonal: a u program read under uxu takes each factor a as
(a,a), so at a threshold (t,t) each answer is u's at t in both
components: the same bindings, residuals and flags, and each
component's interval u's interval.  The relation holds under any
correct search, whatever the solver skips or remembers.
"""

import pytest

from test_cut_skip import OPEN, outcome
from test_rule_filter import PAPER
from qcflp.domains import U, domain_from_name
from qcflp.syntax import parse_program

LADDER = ("0.9", "0.8", "0.7", "0.65", "0.6", "0.5", "0.4", "0.3", "0.2", "0.15", "0.1")


@pytest.fixture(scope="module")
def library_uxu(library_text):
    return parse_program(library_text, domain_from_name("uxu"))


@pytest.mark.parametrize("goal", [PAPER, OPEN], ids=["paper", "open"])
def test_product_diagonal(library, library_uxu, goal):
    uxu = domain_from_name("uxu")
    for t in LADDER:
        (answers, _, cut), _ = outcome(library, f"{goal} | W >= {t}", 64, U)
        (pairs, _, pair_cut), _ = outcome(library_uxu, f"{goal} | W >= ({t},{t})", 64, uxu)
        assert len(pairs) == len(answers) and pair_cut == cut, t
        for a, p in zip(answers, pairs):
            assert p["qual"] == {"W.1": a["qual"]["W"], "W.2": a["qual"]["W"]}, t
            assert (p["subst"], p["residual"], p["flags"]) == \
                (a["subst"], a["residual"], a["flags"]), t
    assert answers
