"""The logical dataflow DAG (paper §II-A, Fig. 1).

Nodes are :class:`~repro.dataflow.operators.OperatorSpec` instances, edges
are directed data dependencies.  The class validates acyclicity and weak
connectivity, exposes topological traversal (used by Algorithm 2, which
recommends parallelism in topological order), and serialises to plain
dictionaries for history persistence.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator


from repro.dataflow.operators import OperatorSpec, OperatorType


class DataflowError(ValueError):
    """Raised when a dataflow graph violates a structural invariant."""


class LogicalDataflow:
    """A directed acyclic graph of streaming operators.

    Construction is incremental (:meth:`add_operator` / :meth:`connect`) and
    :meth:`validate` checks the invariants:

    * the graph is a non-empty DAG,
    * it is weakly connected,
    * sources have no in-edges, sinks no out-edges,
    * every non-source operator is reachable from some source.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise DataflowError("dataflow name must be non-empty")
        self.name = name
        self._operators: dict[str, OperatorSpec] = {}
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_operator(self, spec: OperatorSpec) -> OperatorSpec:
        """Register ``spec`` as a node; returns it for chaining."""
        if spec.name in self._operators:
            raise DataflowError(f"duplicate operator name: {spec.name!r}")
        self._operators[spec.name] = spec
        self._succ[spec.name] = []
        self._pred[spec.name] = []
        return spec

    def connect(self, upstream: str | OperatorSpec, downstream: str | OperatorSpec) -> None:
        """Add a directed edge upstream -> downstream."""
        u = upstream.name if isinstance(upstream, OperatorSpec) else upstream
        v = downstream.name if isinstance(downstream, OperatorSpec) else downstream
        for node in (u, v):
            if node not in self._operators:
                raise DataflowError(f"unknown operator: {node!r}")
        if u == v:
            raise DataflowError(f"self-loop on {u!r}")
        if v in self._succ[u]:
            raise DataflowError(f"duplicate edge {u!r} -> {v!r}")
        self._succ[u].append(v)
        self._pred[v].append(u)

    def chain(self, *specs: OperatorSpec) -> None:
        """Add ``specs`` (if new) and connect them in a linear pipeline."""
        for spec in specs:
            if spec.name not in self._operators:
                self.add_operator(spec)
        for upstream, downstream in zip(specs, specs[1:]):
            self.connect(upstream, downstream)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._operators)

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def __iter__(self) -> Iterator[OperatorSpec]:
        return iter(self._operators.values())

    def operator(self, name: str) -> OperatorSpec:
        try:
            return self._operators[name]
        except KeyError:
            raise DataflowError(f"unknown operator: {name!r}") from None

    @property
    def operator_names(self) -> list[str]:
        return list(self._operators)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    @property
    def n_edges(self) -> int:
        return sum(len(succ) for succ in self._succ.values())

    def upstream(self, name: str) -> list[str]:
        """Direct upstream operator names of ``name``."""
        self.operator(name)
        return list(self._pred[name])

    def downstream(self, name: str) -> list[str]:
        """Direct downstream operator names of ``name``."""
        self.operator(name)
        return list(self._succ[name])

    def sources(self) -> list[str]:
        """Names of source operators."""
        return [s.name for s in self if s.op_type is OperatorType.SOURCE]

    def ancestors(self, name: str) -> set[str]:
        """All strict upstream ancestors of ``name``."""
        result: set[str] = set()
        frontier = deque(self._pred[name])
        while frontier:
            node = frontier.popleft()
            if node in result:
                continue
            result.add(node)
            frontier.extend(self._pred[node])
        return result

    def descendants(self, name: str) -> set[str]:
        """All strict downstream descendants of ``name``."""
        result: set[str] = set()
        frontier = deque(self._succ[name])
        while frontier:
            node = frontier.popleft()
            if node in result:
                continue
            result.add(node)
            frontier.extend(self._succ[node])
        return result

    def topological_order(self) -> list[str]:
        """Kahn topological order; raises if the graph has a cycle."""
        indegree = {name: len(pred) for name, pred in self._pred.items()}
        frontier = deque(sorted(name for name, deg in indegree.items() if deg == 0))
        order: list[str] = []
        while frontier:
            node = frontier.popleft()
            order.append(node)
            for succ in self._succ[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if len(order) != len(self._operators):
            raise DataflowError(f"dataflow {self.name!r} contains a cycle")
        return order

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raises :class:`DataflowError`."""
        if not self._operators:
            raise DataflowError(f"dataflow {self.name!r} is empty")
        self.topological_order()  # raises on cycles
        if len(self._operators) > 1 and not self._weakly_connected():
            raise DataflowError(f"dataflow {self.name!r} is not weakly connected")
        sources = set(self.sources())
        if not sources:
            raise DataflowError(f"dataflow {self.name!r} has no source operator")
        for spec in self:
            if spec.is_source and self._pred[spec.name]:
                raise DataflowError(f"source {spec.name!r} has upstream operators")
            if spec.is_sink and self._succ[spec.name]:
                raise DataflowError(f"sink {spec.name!r} has downstream operators")
        reachable = set(sources)
        for src in sources:
            reachable |= self.descendants(src)
        unreachable = set(self._operators) - reachable
        if unreachable:
            raise DataflowError(
                f"operators unreachable from sources: {sorted(unreachable)}"
            )

    def _weakly_connected(self) -> bool:
        start = next(iter(self._operators))
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbour in self._succ[node] + self._pred[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self._operators)

    # ------------------------------------------------------------------
    # structure / serde
    # ------------------------------------------------------------------

    def _shape_memo(self, attribute: str, compute) -> str:
        """``compute()``, memoised per (node count, edge count).

        Dataflows are effectively immutable once validated; keying the memo
        on the shape recomputes on growth, so a stale value never survives
        incremental construction.
        """
        shape = (len(self._operators), self.n_edges)
        memo = getattr(self, attribute, None)
        if memo is not None and memo[0] == shape:
            return memo[1]
        value = compute()
        setattr(self, attribute, (shape, value))
        return value

    def structural_signature(self) -> str:
        """A canonical string identifying the labelled structure of the DAG.

        Two dataflows with the same signature are structurally identical up
        to node renaming *in topological position*; used as a cache key for
        GED computations and for deduplicating history graphs.  Memoised per
        shape (:meth:`_shape_memo`).
        """
        return self._shape_memo(
            "_structural_signature", self._compute_structural_signature
        )

    def _compute_structural_signature(self) -> str:
        order = self.topological_order()
        index = {name: i for i, name in enumerate(order)}
        node_part = ",".join(self.operator(name).structural_label() for name in order)
        edge_part = ",".join(
            sorted(f"{index[u]}>{index[v]}" for u, v in self.edges)
        )
        return f"{node_part}|{edge_part}"

    def tuning_signature(self) -> str:
        """Canonical *full-fidelity* structure identity for cache sharing.

        :meth:`structural_signature` captures only what GED sees (operator
        types and edges); this signature additionally captures every other
        operator field (windows, widths, selectivity, cost factor, ...), so
        two dataflows with equal tuning signatures encode to bit-identical
        GNN inputs given the same topologically-indexed source rates.  That
        is the contract behind cross-query sharing of distilled operating
        points and parallelism-agnostic embeddings: a cache entry computed
        for one query is exactly what a structurally identical query
        (however named) would have computed.

        Memoised per shape (:meth:`_shape_memo`).
        """
        return self._shape_memo("_tuning_signature", self._compute_tuning_signature)

    def _compute_tuning_signature(self) -> str:
        order = self.topological_order()
        index = {name: i for i, name in enumerate(order)}
        nodes = []
        for name in order:
            fields = self.operator(name).to_dict()
            del fields["name"]      # structure up to node renaming
            nodes.append(repr(sorted(fields.items())))
        edge_part = ",".join(
            sorted(f"{index[u]}>{index[v]}" for u, v in self.edges)
        )
        return ";".join(nodes) + "|" + edge_part

    def copy(self, name: str | None = None) -> "LogicalDataflow":
        """Deep-enough copy (specs are frozen, so sharing them is safe)."""
        clone = LogicalDataflow(name or self.name)
        for spec in self:
            clone.add_operator(spec)
        for u, v in self.edges:
            clone.connect(u, v)
        return clone

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "operators": [spec.to_dict() for spec in self],
            "edges": self.edges,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogicalDataflow":
        flow = cls(data["name"])
        for spec_data in data["operators"]:
            flow.add_operator(OperatorSpec.from_dict(spec_data))
        for u, v in data["edges"]:
            flow.connect(u, v)
        return flow

    def __repr__(self) -> str:
        return (
            f"LogicalDataflow({self.name!r}, operators={len(self)}, "
            f"edges={self.n_edges})"
        )
