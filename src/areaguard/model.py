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
exact solver accepts both.
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


def parse_agent_label(label: str) -> AgentId:
    kind, num = label[:1], label[1:]
    if kind not in ("a", "d") or not num.isdigit():
        raise ValueError(f"bad agent label {label!r}")
    return AgentId(Team.ATTACKERS if kind == "a" else Team.DEFENDERS, int(num))


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

    @property
    def node_count(self) -> int:
        return len(self._adj)

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

    def initial_configuration(self) -> "Configuration":
        positions: dict[AgentId, Node] = {}
        for i, c in enumerate(self.attacker_starts):
            positions[attacker(i)] = c
        for i, c in enumerate(self.defender_starts):
            positions[defender(i)] = c
        return Configuration(positions)


@dataclass(eq=True)
class Configuration:
    """Where every agent currently stands. Treated as immutable."""

    positions: dict[AgentId, Node]

    def team_agents(self, team: Team) -> list[AgentId]:
        return sorted(a for a in self.positions if a.team is team)

    def occupied_cells(self) -> set[Node]:
        return set(self.positions.values())


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
    """Resolve one team's simultaneous move under the movement rules.

    The other team's agents are frozen obstacles for the phase. Moves into
    free cells are granted first and the grant set grows to a fixpoint, so
    chains into vacated cells and rotations of length >= 3 execute while
    pairwise swaps never do. When two agents of the team want the same cell
    the lower agent index wins; everyone whose move is not granted stays
    put. Ill-formed proposals (wrong agent set, non-adjacent or impassable
    cell) raise ValueError.
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

    frozen_cells = {c for a, c in pos.items() if a.team is not move.team}
    occupant = {c: a for a, c in pos.items() if a.team is move.team}

    # Same-target conflicts: lowest index keeps its claim, the rest wait.
    desired: dict[AgentId, Node] = {}
    claimed: set[Node] = set()
    for agent in team_agents:
        want = move.desired[agent]
        if want == pos[agent] or want in claimed:
            continue
        claimed.add(want)
        desired[agent] = want

    granted = set(desired)
    changed = True
    while changed:
        changed = False
        for agent in list(granted):
            want = desired[agent]
            if want in frozen_cells:
                granted.discard(agent)
                changed = True
                continue
            blocker = occupant.get(want)
            if blocker is None or blocker == agent:
                continue
            if blocker not in granted:
                granted.discard(agent)
                changed = True
            elif desired[blocker] == pos[agent]:
                # Pairwise swap across a shared edge: forbidden.
                granted.discard(agent)
                changed = True

    new_positions = dict(pos)
    for agent in granted:
        new_positions[agent] = desired[agent]
    return Configuration(new_positions)


def capture_state(config: Configuration, instance: Instance) -> frozenset[AgentId]:
    """Attackers currently standing on their own target."""
    return frozenset(
        a
        for a in instance.attackers
        if config.positions.get(a) == instance.attacker_targets[a.index]
    )


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


# -------- instance JSON --------

_REQUIRED = object()
_KINDS = {int: "an integer", float: "a number", tuple: "a list"}


def json_field(doc: object, key: str, where: str, kind=None, default=_REQUIRED):
    """doc[key], converted by kind when given; default when key is absent.

    Any failure raises ValueError naming where (the document) and key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where} has no {key!r}")
        return default
    value = doc[key]
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where} {key!r} must be {_KINDS[kind]}, got {value!r}") from None


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
    if not isinstance(doc, dict):
        raise ValueError(f"instance must be a JSON object, got {doc!r}")
    if ("map" in doc) == ("graph" in doc):
        raise ValueError("instance needs exactly one of 'map' or 'graph'")
    if "map" in doc:
        map_src = doc["map"]
        if isinstance(map_src, str):
            world: World = load_map(os.path.join(base_dir, map_src))
        elif isinstance(map_src, list) and all(isinstance(row, str) for row in map_src):
            world = parse_rows(map_src)
        else:
            raise ValueError("instance 'map' must be a .map file path or a list of row strings")

        def to_node(v, where: str) -> Node:
            if isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v):
                return (v[0], v[1])
            raise ValueError(f"{where} must be a pair of integers")
    else:
        g = doc["graph"]
        nodes = json_field(g, "nodes", "instance 'graph'")
        edges = json_field(g, "edges", "instance 'graph'")
        names = lambda v: isinstance(v, list) and all(isinstance(name, str) for name in v)
        if not names(nodes):
            raise ValueError("instance 'graph' 'nodes' must be a list of strings")
        if not (isinstance(edges, list) and all(names(e) and len(e) == 2 for e in edges)):
            raise ValueError("instance 'graph' 'edges' must be a list of node-name pairs")
        world = AdjacencyGraph.from_edges(nodes, [tuple(e) for e in edges])
        to_node = lambda v, where: v
    attackers = doc.get("attackers", [])
    defenders = doc.get("defenders", [])

    def agent_nodes(team: str, agents: list, key: str) -> tuple[Node, ...]:
        return tuple(
            to_node(json_field(agent, key, f"{team} {i}"), f"{team} {i} {key!r}")
            for i, agent in enumerate(agents)
        )

    return Instance(
        world=world,
        attacker_starts=agent_nodes("attacker", attackers, "start"),
        attacker_targets=agent_nodes("attacker", attackers, "target"),
        defender_starts=agent_nodes("defender", defenders, "start"),
        time_limit=json_field(doc, "time_limit", "instance", int),
        metadata=doc.get("metadata"),
    )


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return instance_from_json(doc, base_dir=os.path.dirname(path) or ".")


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(instance), fh, indent=2)
        fh.write("\n")
