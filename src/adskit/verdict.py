"""Three-valued search verdicts, bounded-search budgets and the two walks.

Simulators and realizability deciders never report Reject/No unless the
search space was exhausted without hitting a bound; any truncation turns
a failed search into Unknown.  `bounded_search` is the one place that
rule is applied; `protocols.protocol_search` runs every machine that talks
to an oracle on it, and charges the tape and block bounds there as
PRUNED moves.  `explore` is its exhaustive sibling: the one
reachable-set walk behind every machine the package builds from a
product or a configuration graph, with the same cap rule and a
`truncated` flag in place of Unknown.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional


class Verdict(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    UNKNOWN = "unknown"

    def __bool__(self):
        # guards against `if verdict:` sloppiness; force explicit comparison
        raise TypeError("Verdict is not boolean; compare against Verdict members")


@dataclass(frozen=True)
class SearchBounds:
    """Budgets for configuration searches over machines with unbounded tapes.

    max_configs caps distinct visited configurations, max_tape caps the
    pending write-tape length, max_blocks caps query blocks along a run.
    """

    max_configs: int = 200_000
    max_blocks: int = 32
    max_tape: int = 24

    def __post_init__(self):
        for name, low in (("max_configs", 1), ("max_blocks", 0), ("max_tape", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name.replace('_', '-')} must be at least {low}, "
                                 f"got {value}")

    @classmethod
    def parse(cls, text: str) -> "SearchBounds":
        """Parse 'max-configs=N,max-blocks=N,max-tape=N'; each part optional, once at most."""
        kwargs = {}
        names = {"max-configs": "max_configs", "max-blocks": "max_blocks", "max-tape": "max_tape"}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            if names.get(key) is None or not value.lstrip("-").isdecimal():
                raise ValueError(f"bad bounds component {part!r}")
            if names[key] in kwargs:
                raise ValueError(f"bounds component {key} given twice")
            kwargs[names[key]] = int(value)
        return cls(**kwargs)


DEFAULT_BOUNDS = SearchBounds()


# yielded by a successor function in place of a move that a bound cut off
PRUNED = object()


def bounded_search(start, successors: Callable, is_goal: Callable,
                   max_configs: int) -> tuple[Verdict, Optional[tuple]]:
    """Breadth-first search with cheaper-cost revisits and a node cap.

    successors(node, cost) yields (next, next_cost, label) per move, or
    PRUNED for a move a bound cut off; costs never decrease along a move.
    A node stored earlier is queued again when reached at a lower cost,
    so a bound charged against the cost cannot hide what a cheaper path
    reaches.  At most max_configs nodes are stored; a move past the cap
    is dropped and the rest of the node's moves are still tried.
    Returns ACCEPT with the labels along the path to the first goal
    popped, REJECT when the graph was exhausted without pruning, and
    UNKNOWN otherwise; the labels are None unless the verdict is ACCEPT.
    """
    best = {start: (0, None, None)}  # node -> (cost, parent, label)
    queue = deque([(start, 0)])
    pruned = False
    while queue:
        node, cost = queue.popleft()
        if cost > best[node][0]:
            continue
        if is_goal(node):
            labels = []
            _, parent, label = best[node]
            while parent is not None:
                labels.append(label)
                _, parent, label = best[parent]
            return Verdict.ACCEPT, tuple(reversed(labels))
        for move in successors(node, cost):
            if move is PRUNED:
                pruned = True
                continue
            nxt, ncost, label = move
            stored = best.get(nxt)
            if stored is None:
                if len(best) >= max_configs:
                    pruned = True
                    continue
            elif ncost >= stored[0]:
                continue
            best[nxt] = (ncost, node, label)
            queue.append((nxt, ncost))
    return (Verdict.UNKNOWN if pruned else Verdict.REJECT), None


def explore(starts, successors: Callable, max_nodes: Optional[int] = None) -> tuple[list, bool]:
    """Breadth-first walk of every node reachable from starts.

    successors(node) is called once per stored node, in discovery order, and
    returns or yields the next nodes, or PRUNED for a move a bound cut off.
    The starts are always stored; a new node is stored only while fewer than
    max_nodes nodes are, otherwise it is dropped and the rest of the node's
    moves are still tried.  Returns the distinct nodes in discovery order,
    and whether a move was pruned or a node dropped.
    """
    nodes = list(dict.fromkeys(starts))
    seen = set(nodes)
    truncated = False
    for node in nodes:  # the list is the queue: appended nodes are visited too
        for nxt in successors(node):
            if nxt is PRUNED:
                truncated = True
            elif nxt not in seen:
                if max_nodes is not None and len(nodes) >= max_nodes:
                    truncated = True
                    continue
                seen.add(nxt)
                nodes.append(nxt)
    return nodes, truncated
