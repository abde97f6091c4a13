"""QDIMACS parsing and the reduction from QBF to a protection game.

Every variable becomes a diamond: two parallel branches of m+2 edges
(m = clause count) between a left and a right junction, with a tip vertex
hanging off each junction. Existential variables carry four 2-edge stems
(one chooser defender, two branch attackers that target the opposite
branch's first vertex, and a pinned attacker/defender pair at the right
tip); universal variables carry a defender stem at the left tip and an
attacker stem at the left junction targeting that tip. Every clause gets a
hub with one entry vertex per literal variable wired into the matching
branch at the variable's prefix-pair index, a shared target adjacent to
the right junctions of its literal variables, a defender chain of
floor(n/2)+1 edges, and an attacker tail one edge longer than the
defender's shortest route to the clause target.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from areaguard.grid import bfs_distance_table
from areaguard.model import AdjacencyGraph, Instance


class QbfFormatError(ValueError):
    """Malformed QDIMACS input."""


@dataclass(frozen=True)
class QbfFormula:
    num_vars: int
    prefix: tuple[tuple[str, tuple[int, ...]], ...]
    clauses: tuple[tuple[int, ...], ...]

    def flat_prefix(self) -> list[tuple[str, int]]:
        """(quantifier, variable) pairs in prefix order."""
        return [(q, v) for q, block in self.prefix for v in block]

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_qdimacs(text: str) -> QbfFormula:
    """Parse QDIMACS text, rejecting anything the reduction cannot use.

    Free variables, prefix variables that appear in no clause, and empty
    clauses are all errors: each would leave the reduced graph with
    dangling or disconnected structure. So is a clause that names a
    variable twice (x or x, x or not x): its gadget would wire one entry
    vertex into both branches of that variable.
    """
    num_vars = num_clauses = -1
    prefix: list[tuple[str, tuple[int, ...]]] = []
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    clauses_started = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars >= 0:
                raise QbfFormatError(f"line {lineno}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise QbfFormatError(f"line {lineno}: problem line must be 'p cnf VARS CLAUSES'")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise QbfFormatError(f"line {lineno}: non-numeric problem line") from None
            if num_vars < 1 or num_clauses < 1:
                raise QbfFormatError(f"line {lineno}: need at least one variable and one clause")
            continue
        if num_vars < 0:
            raise QbfFormatError(f"line {lineno}: clause or prefix before the problem line")
        if line[0] in "ea":
            if clauses_started or current:
                raise QbfFormatError(f"line {lineno}: quantifier block after the first clause")
            parts = line.split()
            if len(parts) < 3 or parts[-1] != "0":
                raise QbfFormatError(f"line {lineno}: quantifier line must list variables and end with 0")
            try:
                block = tuple(int(tok) for tok in parts[1:-1])
            except ValueError:
                raise QbfFormatError(f"line {lineno}: non-numeric variable") from None
            for v in block:
                if not 1 <= v <= num_vars:
                    raise QbfFormatError(f"line {lineno}: variable {v} outside 1..{num_vars}")
            prefix.append((parts[0], block))
            continue
        clauses_started = True
        try:
            tokens = [int(tok) for tok in line.split()]
        except ValueError:
            raise QbfFormatError(f"line {lineno}: non-numeric literal") from None
        for tok in tokens:
            if tok == 0:
                if not current:
                    raise QbfFormatError(f"line {lineno}: empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if not 1 <= abs(tok) <= num_vars:
                    raise QbfFormatError(f"line {lineno}: literal {tok} outside the declared range")
                if any(abs(lit) == abs(tok) for lit in current):
                    raise QbfFormatError(
                        f"line {lineno}: variable {abs(tok)} appears twice in one clause"
                    )
                current.append(tok)

    if num_vars < 0:
        raise QbfFormatError("missing problem line")
    if current:
        raise QbfFormatError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise QbfFormatError(f"declared {num_clauses} clauses but found {len(clauses)}")

    seen: set[int] = set()
    for _, block in prefix:
        for v in block:
            if v in seen:
                raise QbfFormatError(f"variable {v} quantified twice")
            seen.add(v)
    missing = sorted(set(range(1, num_vars + 1)) - seen)
    if missing:
        raise QbfFormatError(f"free variables (not quantified): {missing}")
    used = {abs(lit) for clause in clauses for lit in clause}
    unused = sorted(seen - used)
    if unused:
        raise QbfFormatError(f"variables never used in a clause: {unused}")
    return QbfFormula(num_vars=num_vars, prefix=tuple(prefix), clauses=tuple(clauses))


def load_qdimacs(path: str | Path) -> QbfFormula:
    return parse_qdimacs(Path(path).read_text(encoding="ascii"))


def pair_indices(formula: QbfFormula) -> dict[int, int]:
    """Prefix position of each variable, pairing every universal with the
    existential that immediately follows it."""
    flat = formula.flat_prefix()
    rho: dict[int, int] = {}
    index = 0
    i = 0
    while i < len(flat):
        index += 1
        q, v = flat[i]
        if q == "a" and i + 1 < len(flat) and flat[i + 1][0] == "e":
            rho[v] = index
            rho[flat[i + 1][1]] = index
            i += 2
        else:
            rho[v] = index
            i += 1
    return rho


def reduce_to_instance(formula: QbfFormula) -> Instance:
    """Compile the formula into a graph protection instance.

    The attacking team can win the resulting decision game exactly when
    the formula is true; the instance carries enough metadata to audit the
    construction. The produced graph must be connected (guaranteed once
    every variable occurs in some clause and the clauses chain together);
    a formula that splits into independent parts is rejected.
    """
    m = formula.num_clauses
    n = formula.num_vars
    rho = pair_indices(formula)
    branch_len = m + 1  # interior vertices per branch; m+2 edges
    chain_len = n // 2 + 1

    nodes: list[str] = []
    edges: list[tuple[str, str]] = []

    def add_node(name: str) -> str:
        nodes.append(name)
        return name

    def add_chain(anchor: str, names: list[str]) -> list[str]:
        prev = anchor
        for name in names:
            add_node(name)
            edges.append((prev, name))
            prev = name
        return names

    attacker_starts: list[str] = []
    attacker_targets: list[str] = []
    defender_starts: list[str] = []
    roles: dict[str, str] = {}

    def add_attacker(start: str, target: str, role: str) -> None:
        roles[f"a{len(attacker_starts)}"] = role
        attacker_starts.append(start)
        attacker_targets.append(target)

    def add_defender(start: str, role: str) -> None:
        roles[f"d{len(defender_starts)}"] = role
        defender_starts.append(start)

    flat = formula.flat_prefix()
    for q, v in flat:
        lt = add_node(f"x{v}.lt")
        lj = add_node(f"x{v}.lj")
        edges.append((lt, lj))
        ups = add_chain(lj, [f"x{v}.up{i}" for i in range(1, branch_len + 1)])
        dns = add_chain(lj, [f"x{v}.dn{i}" for i in range(1, branch_len + 1)])
        rj = add_node(f"x{v}.rj")
        edges.append((ups[-1], rj))
        edges.append((dns[-1], rj))
        rt = add_node(f"x{v}.rt")
        edges.append((rj, rt))
        if q == "e":
            chooser = add_chain(lj, [f"x{v}.d1a", f"x{v}.d1b"])
            add_defender(chooser[-1], f"branch chooser for variable {v}")
            up_stem = add_chain(ups[0], [f"x{v}.a1a", f"x{v}.a1b"])
            add_attacker(up_stem[-1], dns[0], f"upper branch threat for variable {v}")
            dn_stem = add_chain(dns[0], [f"x{v}.a2a", f"x{v}.a2b"])
            add_attacker(dn_stem[-1], ups[0], f"lower branch threat for variable {v}")
            pin_stem = add_chain(rt, [f"x{v}.a3a", f"x{v}.a3b"])
            add_attacker(pin_stem[-1], rt, f"right tip threat for variable {v}")
            add_defender(pin_stem[0], f"right tip guard for variable {v}")
        else:
            guard = add_chain(lt, [f"x{v}.dga", f"x{v}.dgb"])
            add_defender(guard[-1], f"branch selector for variable {v}")
            threat = add_chain(lj, [f"x{v}.aga", f"x{v}.agb"])
            add_attacker(threat[-1], lt, f"left tip threat for variable {v}")

    clause_entries: list[tuple[str, str]] = []
    for j, clause in enumerate(formula.clauses, 1):
        hub = add_node(f"C{j}.hub")
        chain = add_chain(hub, [f"C{j}.d{i}" for i in range(1, chain_len + 1)])
        add_defender(chain[-1], f"clause {j} defender")
        tgt = add_node(f"C{j}.tgt")
        for lit in clause:
            v = abs(lit)
            entry = add_node(f"C{j}.e{v}")
            edges.append((hub, entry))
            edges.append((f"x{v}.rj", tgt))
            side = "up" if lit > 0 else "dn"
            depth = min(rho[v], branch_len)
            edges.append((entry, f"x{v}.{side}{depth}"))
        clause_entries.append((hub, tgt))

    # Tails only hang new chains off the hubs, so the graph without them is
    # connected exactly when the final one is, and every distance in it
    # is finite then.
    pre_tail = AdjacencyGraph.from_edges(nodes, edges)
    if min(bfs_distance_table(pre_tail, nodes[0])) < 0:
        raise ValueError(
            "reduced graph is disconnected; the formula splits into independent parts"
        )
    # Attacker tails are sized one edge beyond the clause defender's
    # shortest route to the clause target, measured before any tail exists.
    tail_edges: dict[str, int] = {}
    for j, (hub, tgt) in enumerate(clause_entries, 1):
        k = bfs_distance_table(pre_tail, f"C{j}.d{chain_len}")[pre_tail.index(tgt)] + 1
        tail_edges[f"C{j}"] = k
        tail = add_chain(hub, [f"C{j}.t{i}" for i in range(1, k + 1)])
        add_attacker(tail[-1], tgt, f"clause {j} attacker")

    graph = AdjacencyGraph.from_edges(nodes, edges)
    return Instance(
        world=graph,
        attacker_starts=tuple(attacker_starts),
        attacker_targets=tuple(attacker_targets),
        defender_starts=tuple(defender_starts),
        time_limit=2 * len(nodes),
        metadata={
            "source": "qbf-reduction",
            "num_vars": n,
            "num_clauses": m,
            "pair_index": {str(v): rho[v] for _, v in flat},
            "tail_edges": tail_edges,
            "branch_edges": m + 2,
            "chain_edges": chain_len,
            "stem_edges": 2,
            "roles": roles,
        },
    )
