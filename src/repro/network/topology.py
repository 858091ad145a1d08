"""Aggregation-tree topologies.

The paper assumes "the sensors are organized into a tree topology, with
the sources being the leaves and the aggregators representing the
internal nodes" (Section III-A), and its experiments use a *complete*
tree of fanout ``F`` over ``N`` sources (Section VI).  Topology
construction/maintenance is declared orthogonal to the scheme, so this
module provides deterministic builders and structural validation but no
routing dynamics.

Node identifiers: sources are ``0 … N-1`` (matching protocol source
ids); aggregators get ids ``N, N+1, …`` assigned bottom-up.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.network.channel import EdgeClass
from repro.utils.rng import DeterministicRandom
from repro.utils.validation import check_positive_int

__all__ = [
    "QUERIER_NODE_ID",
    "TreeNode",
    "AggregationTree",
    "build_complete_tree",
    "build_random_tree",
    "build_chain_tree",
]

#: Sentinel node id for the querier (it is not part of the sensor tree).
QUERIER_NODE_ID = -1


@dataclass
class TreeNode:
    """One vertex of the aggregation tree."""

    node_id: int
    is_source: bool
    parent_id: int | None = None
    children: list[int] = field(default_factory=list)
    #: Distance to parent in meters (for the radio energy model).
    link_distance_m: float = 10.0

    @property
    def is_aggregator(self) -> bool:
        return not self.is_source


class AggregationTree:
    """A validated rooted tree with source leaves and aggregator internals.

    The root aggregator is the *sink* — the only node the querier talks
    to.  Construction validates the structural invariants the protocols
    rely on: exactly one root, every source is a leaf, every aggregator
    has at least one child, no cycles, all nodes reachable from the root.
    """

    def __init__(self, nodes: Sequence[TreeNode]) -> None:
        self._nodes: dict[int, TreeNode] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise TopologyError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
        self._validate()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def root_id(self) -> int:
        return self._root_id

    @property
    def num_sources(self) -> int:
        return len(self._source_ids)

    @property
    def num_aggregators(self) -> int:
        return len(self._nodes) - len(self._source_ids)

    @property
    def source_ids(self) -> tuple[int, ...]:
        return self._source_ids

    @property
    def aggregator_ids(self) -> tuple[int, ...]:
        return tuple(i for i in self._nodes if self._nodes[i].is_aggregator)

    def node(self, node_id: int) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"no node with id {node_id}") from None

    def children(self, node_id: int) -> tuple[int, ...]:
        return tuple(self.node(node_id).children)

    def parent(self, node_id: int) -> int | None:
        return self.node(node_id).parent_id

    def edge_class(self, sender: int, receiver: int) -> EdgeClass:
        """The edge class of the hop *sender* → *receiver*."""
        if receiver == QUERIER_NODE_ID:
            return EdgeClass.AGGREGATOR_TO_QUERIER
        if self._nodes[sender].is_source:
            return EdgeClass.SOURCE_TO_AGGREGATOR
        return EdgeClass.AGGREGATOR_TO_AGGREGATOR

    def fanout(self, node_id: int) -> int:
        return len(self.node(node_id).children)

    def max_fanout(self) -> int:
        return max((len(n.children) for n in self._nodes.values()), default=0)

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        best = 0
        stack = [(self._root_id, 0)]
        while stack:
            nid, d = stack.pop()
            best = max(best, d)
            for child in self._nodes[nid].children:
                stack.append((child, d + 1))
        return best

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self._nodes.values())

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def bottom_up_aggregators(self) -> list[int]:
        """Aggregator ids ordered so children always precede parents.

        This is the merge schedule the simulator executes each epoch.
        """
        order: list[int] = []
        # Iterative post-order from the root.
        stack: list[tuple[int, bool]] = [(self._root_id, False)]
        while stack:
            nid, expanded = stack.pop()
            node = self._nodes[nid]
            if node.is_source:
                continue
            if expanded:
                order.append(nid)
            else:
                stack.append((nid, True))
                for child in node.children:
                    stack.append((child, False))
        return order

    def leaves_under(self, node_id: int) -> list[int]:
        """Source ids in the subtree rooted at *node_id*."""
        sources: list[int] = []
        stack = [node_id]
        while stack:
            nid = stack.pop()
            node = self._nodes[nid]
            if node.is_source:
                sources.append(nid)
            else:
                stack.extend(node.children)
        return sources

    def path_to_root(self, node_id: int) -> list[int]:
        """Node ids from *node_id* up to (and including) the root."""
        path = [node_id]
        current = self.node(node_id)
        while current.parent_id is not None:
            path.append(current.parent_id)
            current = self.node(current.parent_id)
        return path

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        if not self._nodes:
            raise TopologyError("tree has no nodes")
        roots = [n.node_id for n in self._nodes.values() if n.parent_id is None]
        if len(roots) != 1:
            raise TopologyError(f"tree must have exactly one root, found {len(roots)}")
        self._root_id = roots[0]
        if self._nodes[self._root_id].is_source:
            if len(self._nodes) > 1:
                raise TopologyError("root must be an aggregator in multi-node trees")

        for node in self._nodes.values():
            if node.is_source and node.children:
                raise TopologyError(f"source {node.node_id} must be a leaf")
            if node.is_aggregator and not node.children:
                raise TopologyError(f"aggregator {node.node_id} has no children")
            for child in node.children:
                if child not in self._nodes:
                    raise TopologyError(f"node {node.node_id} references missing child {child}")
                if self._nodes[child].parent_id != node.node_id:
                    raise TopologyError(
                        f"child {child} does not point back to parent {node.node_id}"
                    )

        # Reachability / acyclicity: BFS from root must visit all nodes once.
        seen: set[int] = set()
        queue = [self._root_id]
        while queue:
            nid = queue.pop()
            if nid in seen:
                raise TopologyError(f"cycle detected at node {nid}")
            seen.add(nid)
            queue.extend(self._nodes[nid].children)
        if seen != set(self._nodes):
            orphans = sorted(set(self._nodes) - seen)
            raise TopologyError(f"nodes unreachable from root: {orphans[:5]}")

        self._source_ids = tuple(sorted(n.node_id for n in self._nodes.values() if n.is_source))


def build_complete_tree(
    num_sources: int, fanout: int, *, link_distance_m: float = 10.0
) -> AggregationTree:
    """The paper's experimental topology: an (as-)complete fanout-``F`` tree.

    Sources ``0 … N-1`` form the leaf level; aggregators are created
    level by level, grouping up to ``F`` nodes under each parent, until a
    single root (the sink) remains.  When ``N`` is a power of ``F`` this
    is the complete F-ary tree of the paper; otherwise the last parent of
    each level takes the remainder.
    """
    check_positive_int("num_sources", num_sources)
    check_positive_int("fanout", fanout)
    if fanout < 2 and num_sources > 1:
        raise TopologyError("fanout must be at least 2 for multi-source trees")

    nodes: dict[int, TreeNode] = {
        i: TreeNode(node_id=i, is_source=True, link_distance_m=link_distance_m)
        for i in range(num_sources)
    }
    next_id = num_sources
    level = list(range(num_sources))
    if num_sources == 1:
        # Even a single source reports through one aggregator (the sink).
        sink = TreeNode(node_id=next_id, is_source=False, link_distance_m=link_distance_m)
        sink.children = [0]
        nodes[0].parent_id = next_id
        nodes[next_id] = sink
        return AggregationTree(list(nodes.values()))

    while len(level) > 1:
        parents: list[int] = []
        for start in range(0, len(level), fanout):
            group = level[start : start + fanout]
            parent = TreeNode(node_id=next_id, is_source=False, link_distance_m=link_distance_m)
            parent.children = list(group)
            for child in group:
                nodes[child].parent_id = next_id
            nodes[next_id] = parent
            parents.append(next_id)
            next_id += 1
        level = parents
    return AggregationTree(list(nodes.values()))


def build_chain_tree(num_sources: int, *, link_distance_m: float = 10.0) -> AggregationTree:
    """The deepest legal topology: a chain of aggregators.

    Aggregator ``i`` has two children — source ``i`` and aggregator
    ``i+1`` — except the deepest, which holds the last source alone.
    Depth is ``num_sources``, the worst case for multi-hop effects;
    used to stress-test depth-independence of the protocols (SIES PSRs
    stay 32 bytes no matter how deep the merge chain is).
    """
    check_positive_int("num_sources", num_sources)
    if num_sources == 1:
        return build_complete_tree(1, 2, link_distance_m=link_distance_m)
    nodes: dict[int, TreeNode] = {
        i: TreeNode(node_id=i, is_source=True, link_distance_m=link_distance_m)
        for i in range(num_sources)
    }
    first_aggregator = num_sources
    for depth in range(num_sources - 1):
        aggregator_id = first_aggregator + depth
        source_child = depth
        children = [source_child]
        if depth < num_sources - 2:
            children.append(aggregator_id + 1)
        else:
            children.append(num_sources - 1)  # deepest aggregator takes 2 sources
            nodes[num_sources - 1].parent_id = aggregator_id
        nodes[source_child].parent_id = aggregator_id
        nodes[aggregator_id] = TreeNode(
            node_id=aggregator_id,
            is_source=False,
            parent_id=aggregator_id - 1 if depth > 0 else None,
            children=children,
            link_distance_m=link_distance_m,
        )
    return AggregationTree(list(nodes.values()))


def build_random_tree(
    num_sources: int,
    *,
    max_fanout: int = 4,
    seed: int = 0,
    link_distance_m: float = 10.0,
) -> AggregationTree:
    """A random aggregation tree (the paper allows arbitrary topologies).

    Builds bottom-up like :func:`build_complete_tree` but with random
    group sizes in ``[2, max_fanout]``, producing irregular trees for
    robustness tests.
    """
    check_positive_int("num_sources", num_sources)
    if max_fanout < 2:
        raise TopologyError("max_fanout must be at least 2")
    rng = DeterministicRandom(seed, "random-tree")

    nodes: dict[int, TreeNode] = {
        i: TreeNode(node_id=i, is_source=True, link_distance_m=link_distance_m)
        for i in range(num_sources)
    }
    next_id = num_sources
    level = list(range(num_sources))
    rng.shuffle(level)
    if num_sources == 1:
        return build_complete_tree(1, max_fanout, link_distance_m=link_distance_m)

    while len(level) > 1:
        parents: list[int] = []
        index = 0
        while index < len(level):
            size = rng.randint(2, max_fanout)
            group = level[index : index + size]
            if len(group) == 1 and parents:
                # Attach a lone leftover to the previous parent instead of
                # creating a single-child aggregator chain.
                nodes[parents[-1]].children.append(group[0])
                nodes[group[0]].parent_id = parents[-1]
                index += size
                continue
            parent = TreeNode(node_id=next_id, is_source=False, link_distance_m=link_distance_m)
            parent.children = list(group)
            for child in group:
                nodes[child].parent_id = next_id
            nodes[next_id] = parent
            parents.append(next_id)
            next_id += 1
            index += size
        level = parents
    return AggregationTree(list(nodes.values()))
