"""Problem instances, configurations and the movement-rule kernel.

An instance pits two teams on a shared world: every attacker races toward
its own target cell, defenders try to stand in the way first. Movement
follows three rules, enforced per team phase:

  1. an agent may move into an adjacent cell only if that cell is empty or
     is being vacated in the same phase by a teammate whose move executes,
  2. two agents may never swap across a shared edge,
  3. no two agents may enter the same cell in the same phase.

The world is usually a GridMap; reduction outputs use an explicit
AdjacencyGraph instead. The simulation engine only accepts grids, the
exact solver accepts both. resolve_moves applies the rules on cell
indices (world.index), the form the engine keeps positions in;
apply_team_move and audit_team_step take AgentId labels and
Configurations, which the engine builds only for traces and audits.
"""
from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

from areaguard.grid import Cell, GridMap, dump_map, load_map, parse_rows

Node = object  # Cell on grids, str on adjacency graphs


class Team(enum.IntEnum):
    ATTACKERS = 0
    DEFENDERS = 1


class AgentId(NamedTuple):
    team: Team
    index: int

    @property
    def label(self) -> str:
        return ("a" if self.team is Team.ATTACKERS else "d") + str(self.index)


def attacker(index: int) -> AgentId:
    return AgentId(Team.ATTACKERS, index)


def defender(index: int) -> AgentId:
    return AgentId(Team.DEFENDERS, index)


class RuleViolation(Exception):
    """A configuration transition broke one of the movement rules."""


class AdjacencyGraph:
    """Explicit undirected graph world for non-grid instances.

    Like GridMap it numbers its nodes (in name order) and keeps a read-only
    neighbor-index table, so the grid module's distance searches take it.
    """

    __slots__ = ("_adj", "_names", "_index", "_nbr")

    def __init__(self, adjacency: Mapping[str, Iterable[str]]):
        adj: dict[str, tuple[str, ...]] = {}
        for node, nbrs in adjacency.items():
            adj[node] = tuple(sorted(set(nbrs)))
        for node, nbrs in adj.items():
            for other in nbrs:
                if other not in adj or node not in adj[other]:
                    raise ValueError(f"edge {node!r}-{other!r} is not symmetric")
        self._adj = adj
        self._names = sorted(adj)
        self._index = {name: i for i, name in enumerate(self._names)}
        self._nbr = [tuple(self._index[v] for v in adj[u]) for u in self._names]

    @classmethod
    def from_edges(cls, nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "AdjacencyGraph":
        adj: dict[str, set[str]] = {n: set() for n in nodes}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(adj)

    def nodes(self) -> Iterator[str]:
        return iter(self._names)

    def index(self, node: str) -> int:
        return self._index[node]

    def cell(self, i: int) -> str:
        """Node number i, named after GridMap.cell so searches take either world."""
        return self._names[i]

    def neighbors(self, node: str) -> list[str]:
        return list(self._adj[node])

    def is_passable(self, node: object) -> bool:
        return node in self._adj

    def edge_list(self) -> list[tuple[str, str]]:
        return sorted((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdjacencyGraph):
            return NotImplemented
        return self._adj == other._adj


World = GridMap | AdjacencyGraph


@dataclass(frozen=True)
class Instance:
    """One problem: a world, agent start cells, per-attacker targets."""

    world: World
    attacker_starts: tuple[Node, ...]
    attacker_targets: tuple[Node, ...]
    defender_starts: tuple[Node, ...]
    time_limit: int
    metadata: dict | None = field(default=None, compare=False)

    @property
    def n_attackers(self) -> int:
        return len(self.attacker_starts)

    @property
    def n_defenders(self) -> int:
        return len(self.defender_starts)

    @property
    def attackers(self) -> list[AgentId]:
        return [attacker(i) for i in range(self.n_attackers)]

    @property
    def defenders(self) -> list[AgentId]:
        return [defender(i) for i in range(self.n_defenders)]

    def target_of(self, agent: AgentId) -> Node:
        if agent.team is not Team.ATTACKERS:
            raise ValueError("only attackers have targets")
        return self.attacker_targets[agent.index]


@dataclass(eq=True)
class Configuration:
    """Where every agent currently stands. Treated as immutable."""

    positions: dict[AgentId, Node]

    def team_agents(self, team: Team) -> list[AgentId]:
        return sorted(a for a in self.positions if a.team is team)


@dataclass
class TeamMove:
    """Desired next cell for every agent of one team (stay = current cell)."""

    team: Team
    desired: dict[AgentId, Node]


def validate_instance(instance: Instance) -> list[str]:
    """Diagnostics for an instance; an empty list means valid."""
    problems: list[str] = []
    world = instance.world
    if instance.time_limit < 1:
        problems.append(f"time limit must be at least 1, got {instance.time_limit}")
    if instance.n_attackers < 1:
        problems.append("instance has no attackers")
    if len(instance.attacker_targets) != instance.n_attackers:
        problems.append(
            f"{instance.n_attackers} attackers but {len(instance.attacker_targets)} targets"
        )
    for kind, cells in (
        ("attacker start", instance.attacker_starts),
        ("attacker target", instance.attacker_targets),
        ("defender start", instance.defender_starts),
    ):
        for i, c in enumerate(cells):
            if not world.is_passable(c):
                problems.append(f"{kind} {i} at {c!r} is not passable")
    starts = list(instance.attacker_starts) + list(instance.defender_starts)
    if len(set(starts)) != len(starts):
        problems.append("start cells are not pairwise distinct")
    if len(set(instance.attacker_targets)) != len(instance.attacker_targets):
        problems.append("attacker targets are not pairwise distinct")
    return problems


def apply_team_move(world: World, config: Configuration, move: TeamMove) -> Configuration:
    """resolve_moves on labels: one team's simultaneous move, as a new configuration.

    Ill-formed proposals (wrong agent set, non-adjacent or impassable cell)
    raise ValueError.
    """
    pos = config.positions
    team_agents = config.team_agents(move.team)
    if set(move.desired) != set(team_agents):
        raise ValueError("move must cover exactly the agents of its team")
    for agent in team_agents:
        want = move.desired[agent]
        here = pos[agent]
        if want == here:
            continue
        if not world.is_passable(want):
            raise ValueError(f"{agent.label} proposes impassable cell {want!r}")
        if world.index(want) not in world._nbr[world.index(here)]:
            raise ValueError(f"{agent.label} proposes non-adjacent cell {want!r} from {here!r}")

    agents = sorted(pos)
    lo = len(agents) - len(team_agents) if move.team else 0
    cells = [world.index(pos[a]) for a in agents]
    occupant = [-1] * len(world._nbr)
    for i, c in enumerate(cells):
        occupant[c] = i
    want = [world.index(move.desired[a]) for a in team_agents]
    new_positions = dict(pos)
    for i in resolve_moves(cells, occupant, lo, lo + len(team_agents), want):
        new_positions[agents[i]] = move.desired[agents[i]]
    return Configuration(new_positions)


def resolve_moves(pos: list[int], occupant: list[int], lo: int, hi: int, want: list[int]) -> dict[int, int]:
    """Resolve the simultaneous move of agents lo..hi-1 (one team) on cell indices.

    pos holds every agent's cell index, occupant maps each cell index to
    the agent on it (or -1), and want[a - lo] is agent a's proposal: its
    own cell or an adjacent passable one. Returns the granted moves as
    {agent: cell} and applies them to pos and occupant.

    The other team is frozen for the phase. When teammates want the same
    cell, the lowest index holds the claim and the others stay. A claim is
    granted unless its cell holds an agent with no granted claim or one
    that claims the claimer's cell (a pairwise swap); a refusal refuses
    the claim on the refused agent's cell in turn, down the chain. So
    chains into vacated cells and rotations of length >= 3 execute, and
    the granted set is the largest legal one.
    """
    claimant: dict[int, int] = {}
    for a, c in zip(range(lo, hi), want):
        if c != pos[a] and c not in claimant:
            claimant[c] = a
    granted = {a: c for c, a in claimant.items()}
    refused = []
    for a, c in list(granted.items()):
        b = occupant[c]
        # granted.get(b, here) == here: b has no granted claim, or claims a's cell.
        if b >= 0 and granted.get(b, pos[a]) == pos[a]:
            del granted[a]
            refused.append(a)
    # Iterating the list while appending to it walks every chain.
    for a in refused:
        behind = claimant.get(pos[a])
        if behind in granted:
            del granted[behind]
            refused.append(behind)
    for a in granted:
        occupant[pos[a]] = -1
    for a, c in granted.items():
        occupant[c] = a
        pos[a] = c
    return granted


def audit_team_step(
    world: World, before: Configuration, after: Configuration, team: Team
) -> list[str]:
    """Independent movement-rule check for one team phase.

    Re-derives every rule from the before/after configurations without
    consulting apply_team_move's internals; returns a list of violation
    descriptions (empty when the transition is legal).
    """
    problems: list[str] = []
    if set(before.positions) != set(after.positions):
        return ["agent set changed during the phase"]
    moved: dict[AgentId, Node] = {}
    for agent, was in before.positions.items():
        now = after.positions[agent]
        if agent.team is not team:
            if was != now:
                problems.append(f"{agent.label} moved outside its phase")
            continue
        if was == now:
            continue
        moved[agent] = now
        if not world.is_passable(now):
            problems.append(f"{agent.label} entered impassable cell {now!r}")
        elif now not in world.neighbors(was):
            problems.append(f"{agent.label} jumped from {was!r} to {now!r}")

    cells = list(after.positions.values())
    if len(set(cells)) != len(cells):
        problems.append("two agents share a cell after the phase")

    was_at = {c: a for a, c in before.positions.items()}
    for agent, now in moved.items():
        prev_occupant = was_at.get(now)
        if prev_occupant is None or prev_occupant == agent:
            continue
        if after.positions[prev_occupant] == now:
            problems.append(
                f"{agent.label} entered {now!r} still occupied by {prev_occupant.label}"
            )
        elif after.positions[prev_occupant] == before.positions[agent]:
            problems.append(f"{agent.label} and {prev_occupant.label} swapped cells")
    return problems


# -------- JSON documents --------

REQUIRED = object()
# The JSON values each plain kind takes (a bool is no integer here) and its
# name in messages.
_PLAIN_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    tuple: ((list,), "a list"),
    dict: ((dict,), "a JSON object"),
}


def read_json_object(doc: object, where: str, table) -> dict:
    """The fields of doc that table lists, keyed by name.

    Each row of table is (key, kind, default). A plain kind (int, float,
    str, tuple for a JSON list, or dict) takes only its own JSON values and
    converts them by calling kind(value); any other kind is a function
    kind(value, label) that checks and converts the value itself. default
    stands in for an absent key, and REQUIRED makes the key mandatory.
    Every row is read before a key the table does not list is rejected.
    Failures raise ValueError naming where (the document) and the key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    fields = {}
    for key, kind, default in table:
        if key not in doc:
            if default is REQUIRED:
                raise ValueError(f"{where} has no {key!r}")
            fields[key] = default
        elif kind in _PLAIN_KINDS:
            types, name = _PLAIN_KINDS[kind]
            if type(doc[key]) not in types:
                raise ValueError(f"{where} {key!r} must be {name}, got {doc[key]!r}")
            fields[key] = kind(doc[key])
        else:
            fields[key] = kind(doc[key], f"{where} {key!r}")
    for key in doc:
        if key not in fields:
            raise ValueError(f"{where} has unknown key {key!r}")
    return fields


def _map_source(value: object, where: str) -> str | list[str]:
    if isinstance(value, str) or (
        isinstance(value, list) and all(isinstance(row, str) for row in value)
    ):
        return value
    raise ValueError(f"{where} must be a .map file path or a list of row strings")


def _graph(value: object, where: str) -> AdjacencyGraph:
    fields = read_json_object(value, where, _GRAPH_FIELDS)
    names = lambda v: all(isinstance(name, str) for name in v)
    if not names(fields["nodes"]):
        raise ValueError(f"{where} 'nodes' must be a list of strings")
    if not all(isinstance(e, list) and len(e) == 2 and names(e) for e in fields["edges"]):
        raise ValueError(f"{where} 'edges' must be a list of node-name pairs")
    return AdjacencyGraph.from_edges(fields["nodes"], [tuple(e) for e in fields["edges"]])


def _grid_cell(value: object, where: str) -> Cell:
    if isinstance(value, list) and len(value) == 2 and all(type(x) is int for x in value):
        return (value[0], value[1])
    raise ValueError(f"{where} must be a pair of integers")


_INSTANCE_FIELDS = (
    ("time_limit", int, REQUIRED),
    ("map", _map_source, None),
    ("graph", _graph, None),
    ("attackers", tuple, ()),
    ("defenders", tuple, ()),
    ("metadata", dict, None),
)
_GRAPH_FIELDS = (("nodes", tuple, REQUIRED), ("edges", tuple, REQUIRED))


def instance_to_json(instance: Instance) -> dict:
    """Instance as a JSON-ready dict (grid rows inlined, graphs explicit)."""
    doc: dict = {"time_limit": instance.time_limit}
    world = instance.world
    if isinstance(world, GridMap):
        doc["map"] = dump_map(world).splitlines()[4:]
        node = list
    else:
        doc["graph"] = {
            "nodes": list(world.nodes()),
            "edges": [list(e) for e in world.edge_list()],
        }
        node = lambda v: v
    doc["attackers"] = [
        {"start": node(s), "target": node(t)}
        for s, t in zip(instance.attacker_starts, instance.attacker_targets)
    ]
    doc["defenders"] = [{"start": node(s)} for s in instance.defender_starts]
    if instance.metadata is not None:
        doc["metadata"] = instance.metadata
    return doc


def instance_from_json(doc: dict, base_dir: str = ".") -> Instance:
    """Build an Instance from its JSON form.

    The "map" field is either a list of row strings or a path to a .map
    file, resolved relative to base_dir. Reduced instances carry a "graph"
    object instead of a map.
    """
    fields = read_json_object(doc, "instance", _INSTANCE_FIELDS)
    map_src, world = fields["map"], fields["graph"]
    if (map_src is None) == (world is None):
        raise ValueError("instance needs exactly one of 'map' or 'graph'")
    if world is not None:
        node = str
    else:
        if isinstance(map_src, str):
            world = load_map(os.path.join(base_dir, map_src))
        else:
            world = parse_rows(map_src)
        node = _grid_cell
    attacker_fields = (("start", node, REQUIRED), ("target", node, REQUIRED))
    defender_fields = (("start", node, REQUIRED),)
    attackers = [
        read_json_object(agent, f"attacker {i}", attacker_fields)
        for i, agent in enumerate(fields["attackers"])
    ]
    defenders = [
        read_json_object(agent, f"defender {i}", defender_fields)
        for i, agent in enumerate(fields["defenders"])
    ]
    return Instance(
        world=world,
        attacker_starts=tuple(a["start"] for a in attackers),
        attacker_targets=tuple(a["target"] for a in attackers),
        defender_starts=tuple(d["start"] for d in defenders),
        time_limit=fields["time_limit"],
        metadata=fields["metadata"],
    )


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return instance_from_json(doc, base_dir=os.path.dirname(path) or ".")


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(instance), fh, indent=2)
        fh.write("\n")
