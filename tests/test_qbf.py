"""QDIMACS parser and reduction-structure tests."""
import pytest

from areaguard.model import AdjacencyGraph, validate_instance
from areaguard.qbf import QbfFormatError, pair_indices, parse_qdimacs, reduce_to_instance

SIX_VAR = """\
c alternating prefix, four ternary clauses
p cnf 6 4
e 1 0
a 2 0
e 3 0
a 4 0
e 5 0
a 6 0
4 6 1 0
-2 -4 3 0
2 -1 5 0
-6 -3 -5 0
"""


def test_parse_six_var():
    f = parse_qdimacs(SIX_VAR)
    assert f.num_vars == 6
    assert f.num_clauses == 4
    assert f.prefix == (
        ("e", (1,)), ("a", (2,)), ("e", (3,)), ("a", (4,)), ("e", (5,)), ("a", (6,)),
    )
    assert f.clauses[0] == (4, 6, 1)
    assert f.clauses[3] == (-6, -3, -5)


def test_pair_indices_pairs_universal_with_next_existential():
    f = parse_qdimacs(SIX_VAR)
    assert pair_indices(f) == {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4}


def test_pair_indices_singletons():
    f = parse_qdimacs("p cnf 3 1\ne 1 2 0\na 3 0\n1 2 3 0\n")
    # Two leading existentials stand alone; the trailing universal has no
    # existential after it, so it stands alone too.
    assert pair_indices(f) == {1: 1, 2: 2, 3: 3}


def test_multiline_clause():
    f = parse_qdimacs("p cnf 2 1\ne 1 2 0\n1\n-2 0\n")
    assert f.clauses == ((1, -2),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 1 0\n1 0\n", "before the problem line"),
        ("p cnf 2 1\np cnf 2 1\ne 1 2 0\n1 2 0\n", "duplicate problem"),
        ("p cnf 0 1\n1 0\n", "at least one"),
        ("p cnf 2 1\ne 1 2\n1 2 0\n", "end with 0"),
        ("p cnf 2 1\n1 2 0\ne 1 2 0\n", "after the first clause"),
        ("p cnf 2 1\ne 1 2 0\n1 3 0\n", "outside the declared range"),
        ("p cnf 2 1\ne 1 2 0\n0\n", "empty clause"),
        ("p cnf 2 2\ne 1 2 0\n1 2 0\n", "declared 2 clauses but found 1"),
        ("p cnf 2 1\ne 1 0\n1 2 0\n", "free variables"),
        ("p cnf 2 1\ne 1 2 0\n1 0\n", "never used"),
        ("p cnf 2 1\ne 1 1 2 0\n1 2 0\n", "quantified twice"),
        ("p cnf 2 1\ne 1 2 0\n1 2\n", "unterminated clause"),
        ("p cnf 2 1\ne 1 x 2 0\n1 2 0\n", "non-numeric"),
        ("p cnf 1 1\na 1 0\n1 -1 0\n", "line 3: variable 1 appears twice"),
        ("p cnf 1 1\ne 1 0\n1 1 0\n", "line 3: variable 1 appears twice"),
        ("p cnf 2 1\ne 1 2 0\n2 1\n-2 0\n", "line 4: variable 2 appears twice"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(QbfFormatError) as err:
        parse_qdimacs(text)
    assert fragment in str(err.value)


def test_reduction_roster_and_geometry():
    inst = reduce_to_instance(parse_qdimacs(SIX_VAR))
    graph = inst.world
    assert isinstance(graph, AdjacencyGraph)
    # 3 attackers and 2 defenders per existential, 1 and 1 per universal,
    # 1 and 1 per clause.
    assert inst.n_attackers == 3 * 3 + 3 + 4 == 16
    assert inst.n_defenders == 2 * 3 + 3 + 4 == 13
    assert len(list(graph.nodes())) == 198
    assert len(graph.edge_list()) == 214
    assert inst.time_limit == 2 * 198
    assert validate_instance(inst) == []


def test_reduction_branch_wiring():
    inst = reduce_to_instance(parse_qdimacs(SIX_VAR))
    graph = inst.world
    # Clause 1 holds the positive literal on variable 6 (pair index 4),
    # so its entry joins the upper branch at depth 4.
    assert graph.neighbors("C1.e6") == ["C1.hub", "x6.up4"]
    # Clause 2 holds the negative literal on variable 4 (pair index 3).
    assert graph.neighbors("C2.e4") == ["C2.hub", "x4.dn3"]
    # The clause target hangs off the right junctions of its variables.
    assert graph.neighbors("C1.tgt") == ["x1.rj", "x4.rj", "x6.rj"]
    # Each branch carries clause-count + 1 interior vertices.
    assert "x1.up5" in graph.nodes() and "x1.up6" not in graph.nodes()


def test_reduction_tail_lengths():
    inst = reduce_to_instance(parse_qdimacs(SIX_VAR))
    # Defender route: 4 chain edges, hub to entry, entry to branch, branch
    # walk to the right junction, junction to target. The deepest entry
    # dominates, giving 13 - max pair index; the tail is one edge longer.
    assert inst.metadata["tail_edges"] == {"C1": 10, "C2": 11, "C3": 11, "C4": 10}
    assert inst.metadata["chain_edges"] == 4
    assert inst.metadata["branch_edges"] == 6


def test_reduction_existential_gadget():
    inst = reduce_to_instance(parse_qdimacs(SIX_VAR))
    graph = inst.world
    # The pinned pair at the right tip: attacker two steps out, defender
    # in between, target on the tip itself.
    assert graph.neighbors("x1.a3a") == ["x1.a3b", "x1.rt"]
    idx = inst.attacker_starts.index("x1.a3b")
    assert inst.attacker_targets[idx] == "x1.rt"
    assert "x1.a3a" in inst.defender_starts
    # Branch threats target the opposite branch's first vertex.
    up_threat = inst.attacker_starts.index("x1.a1b")
    assert inst.attacker_targets[up_threat] == "x1.dn1"
    dn_threat = inst.attacker_starts.index("x1.a2b")
    assert inst.attacker_targets[dn_threat] == "x1.up1"


def test_reduction_universal_gadget():
    inst = reduce_to_instance(parse_qdimacs(SIX_VAR))
    graph = inst.world
    assert graph.neighbors("x2.dgb") == ["x2.dga"]
    assert graph.neighbors("x2.dga") == ["x2.dgb", "x2.lt"]
    idx = inst.attacker_starts.index("x2.agb")
    assert inst.attacker_targets[idx] == "x2.lt"
    assert "x2.dgb" in inst.defender_starts


def test_reduction_small_formula_sizes():
    inst = reduce_to_instance(parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 -2 0\n"))
    assert inst.n_attackers == 5
    assert inst.n_defenders == 4
    # Diamonds 16, stems 12, clause body 6, tail 7.
    assert len(list(inst.world.nodes())) == 41
    assert inst.metadata["tail_edges"] == {"C1": 7}
    assert inst.time_limit == 82


def test_reduction_rejects_disconnected_formula():
    text = "p cnf 4 2\ne 1 2 3 4 0\n1 2 0\n3 4 0\n"
    with pytest.raises(ValueError, match="disconnected"):
        reduce_to_instance(parse_qdimacs(text))


def test_reduction_deterministic():
    a = reduce_to_instance(parse_qdimacs(SIX_VAR))
    b = reduce_to_instance(parse_qdimacs(SIX_VAR))
    assert a == b
    assert a.metadata == b.metadata
