//! The unfolded cell graph of one request.
//!
//! "Grouping operators into cells allows us to make the unfolded dataflow
//! graph coarse-grained, where each node represents a cell and each edge
//! depicts the direction in which data flows from one cell to another."
//! (§3.1)
//!
//! Nodes are identified by dense per-request indices, are labelled with
//! their [`CellTypeId`], and list their state dependencies in
//! cell-defined order (e.g. `[left, right]` for tree internal cells).
//! Token inputs are either fixed at unfold time (model inputs) or
//! produced at runtime by a dependency (the Seq2Seq feed-previous
//! decoder).

use std::fmt;
use std::ops::Deref;

use bm_cell::{CellRegistry, CellTypeId};

/// Index of a node within one request's cell graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node's state dependencies: at most two [`NodeId`]s, held inline.
///
/// Every shipped cell consumes at most two states (a chain step one, a
/// tree internal cell its two children), so the list is a fixed-size
/// `Copy` value: building a graph, handing a node's dependencies to a
/// task entry or copying an entry allocates nothing. Dereferences to
/// the slice of its ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Deps {
    ids: [NodeId; 2],
    len: u8,
}

impl Deps {
    /// The most dependencies a node may list.
    pub const MAX: usize = 2;

    /// The list of `ids`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`Deps::MAX`] of them.
    pub fn new(ids: &[NodeId]) -> Self {
        assert!(
            ids.len() <= Self::MAX,
            "a node lists at most {} dependencies, not {}",
            Self::MAX,
            ids.len()
        );
        let mut inline = [NodeId(0); 2];
        inline[..ids.len()].copy_from_slice(ids);
        Deps {
            ids: inline,
            len: ids.len() as u8,
        }
    }
}

impl Deref for Deps {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }
}

impl fmt::Debug for Deps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Where a node's token input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenSource {
    /// The node takes no token (tree internal cells).
    None,
    /// A token fixed at unfold time (model inputs, `<go>`).
    Fixed(u32),
    /// The token produced at runtime by dependency `deps[i]`
    /// (feed-previous decoding).
    FromDep(usize),
}

/// One cell invocation in the unfolded graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// The cell type this node invokes.
    pub cell_type: CellTypeId,
    /// State dependencies, in the order the cell consumes them. Held
    /// inline, so a task entry copies them without an allocation.
    pub deps: Deps,
    /// Token input specification.
    pub token: TokenSource,
    /// If set, a runtime token equal to this value terminates the request
    /// early, cancelling all nodes downstream of this one (used for
    /// `<eos>`-terminated decoding, an extension over the paper's
    /// fixed-length decoding).
    pub eos: Option<u32>,
}

/// The unfolded cell graph of a single request.
///
/// Nodes must be listed in a topological order (every dependency precedes
/// its dependents); [`CellGraph::validate`] enforces this along with
/// arity and token constraints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellGraph {
    nodes: Vec<GraphNode>,
}

impl CellGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `nodes` nodes, so unfolding
    /// a request of known size allocates once.
    pub fn with_capacity(nodes: usize) -> Self {
        CellGraph {
            nodes: Vec::with_capacity(nodes),
        }
    }

    /// Appends a node, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a not-yet-added node (which would
    /// break topological ordering), or if there are more than
    /// [`Deps::MAX`] dependencies.
    pub fn add_node(
        &mut self,
        cell_type: CellTypeId,
        deps: &[NodeId],
        token: TokenSource,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        for d in deps {
            assert!(
                d.index() < self.nodes.len(),
                "dependency {d} of node {id} is not yet defined"
            );
        }
        self.nodes.push(GraphNode {
            cell_type,
            deps: Deps::new(deps),
            token,
            eos: None,
        });
        id
    }

    /// Marks `node` as an `<eos>`-terminating decoder step.
    pub fn set_eos(&mut self, node: NodeId, eos_token: u32) {
        self.nodes[node.index()].eos = Some(eos_token);
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &GraphNode {
        &self.nodes[id.index()]
    }

    /// All nodes in topological (insertion) order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates `(NodeId, &GraphNode)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &GraphNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Ids of sink nodes (nodes no other node depends on).
    pub fn sinks(&self) -> Vec<NodeId> {
        let mut has_dependent = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for d in n.deps.iter() {
                has_dependent[d.index()] = true;
            }
        }
        has_dependent
            .iter()
            .enumerate()
            .filter(|(_, &h)| !h)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Validates the graph against a registry: dependencies in range and
    /// topologically ordered, state arity and token sources consistent
    /// with each node's cell type.
    pub fn validate(&self, registry: &CellRegistry) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty cell graph".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.cell_type.index() >= registry.len() {
                return Err(format!("node n{i}: unknown cell type {}", n.cell_type));
            }
            let cell = registry.cell(n.cell_type);
            for d in n.deps.iter() {
                if d.index() >= i {
                    return Err(format!("node n{i}: dependency {d} not before it"));
                }
            }
            if n.deps.len() > cell.state_arity() {
                return Err(format!(
                    "node n{i}: {} deps but cell arity {}",
                    n.deps.len(),
                    cell.state_arity()
                ));
            }
            // Tree-internal nodes must have exactly two children.
            if cell.state_arity() == 2 && n.deps.len() != 2 {
                return Err(format!(
                    "node n{i}: internal cell requires 2 deps, has {}",
                    n.deps.len()
                ));
            }
            match n.token {
                TokenSource::None => {
                    if cell.takes_token() {
                        return Err(format!("node n{i}: cell requires a token"));
                    }
                }
                TokenSource::Fixed(_) => {
                    if !cell.takes_token() {
                        return Err(format!("node n{i}: cell takes no token"));
                    }
                }
                TokenSource::FromDep(k) => {
                    if !cell.takes_token() {
                        return Err(format!("node n{i}: cell takes no token"));
                    }
                    let Some(dep) = n.deps.get(k) else {
                        return Err(format!("node n{i}: FromDep({k}) out of range"));
                    };
                    let dep_cell = registry.cell(self.nodes[dep.index()].cell_type);
                    if !dep_cell.emits_token() {
                        return Err(format!(
                            "node n{i}: FromDep({k}) but dependency {dep} emits no token"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of nodes of each cell type, indexed by `CellTypeId`.
    pub fn type_histogram(&self, num_types: usize) -> Vec<usize> {
        let mut h = vec![0usize; num_types];
        for n in &self.nodes {
            h[n.cell_type.index()] += 1;
        }
        h
    }

    /// Length of the longest dependency chain (the graph's critical path),
    /// in nodes.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            let d = n
                .deps
                .iter()
                .map(|d| depth[d.index()] + 1)
                .max()
                .unwrap_or(1);
            depth[i] = d;
            max = max.max(d);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_cell::{Cell, CellRegistry, LstmCell, TreeInternalCell, TreeLeafCell};

    fn chain_registry() -> (CellRegistry, CellTypeId) {
        let mut reg = CellRegistry::new();
        let id = reg.register("lstm", Cell::Lstm(LstmCell::seeded(4, 6, 10, 1)), 0, 1, 64);
        (reg, id)
    }

    fn chain_graph(ct: CellTypeId, tokens: &[u32]) -> CellGraph {
        let mut g = CellGraph::new();
        let mut prev: Option<NodeId> = None;
        for &t in tokens {
            prev = Some(g.add_node(ct, prev.as_slice(), TokenSource::Fixed(t)));
        }
        g
    }

    #[test]
    fn chain_graph_validates() {
        let (reg, ct) = chain_registry();
        let g = chain_graph(ct, &[1, 2, 3]);
        g.validate(&reg).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.sinks(), vec![NodeId(2)]);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn empty_graph_rejected() {
        let (reg, _) = chain_registry();
        assert!(CellGraph::new().validate(&reg).is_err());
    }

    #[test]
    #[should_panic]
    fn forward_dependency_panics() {
        let (_, ct) = chain_registry();
        let mut g = CellGraph::new();
        g.add_node(ct, &[NodeId(5)], TokenSource::Fixed(0));
    }

    #[test]
    fn missing_token_detected() {
        let (reg, ct) = chain_registry();
        let mut g = CellGraph::new();
        g.add_node(ct, &[], TokenSource::None);
        assert!(g.validate(&reg).is_err());
    }

    #[test]
    fn tree_arity_enforced() {
        let mut reg = CellRegistry::new();
        let leaf = reg.register(
            "leaf",
            Cell::TreeLeaf(TreeLeafCell::seeded(4, 6, 10, 1)),
            0,
            1,
            64,
        );
        let internal = reg.register(
            "internal",
            Cell::TreeInternal(TreeInternalCell::seeded(6, 1)),
            1,
            1,
            64,
        );
        let mut g = CellGraph::new();
        let a = g.add_node(leaf, &[], TokenSource::Fixed(1));
        // Internal node with a single child: invalid.
        g.add_node(internal, &[a], TokenSource::None);
        assert!(g.validate(&reg).is_err());

        let mut g2 = CellGraph::new();
        let a = g2.add_node(leaf, &[], TokenSource::Fixed(1));
        let b = g2.add_node(leaf, &[], TokenSource::Fixed(2));
        g2.add_node(internal, &[a, b], TokenSource::None);
        g2.validate(&reg).unwrap();
        assert_eq!(g2.critical_path_len(), 2);
    }

    #[test]
    fn from_dep_requires_token_emitter() {
        let (reg, ct) = chain_registry();
        let mut g = CellGraph::new();
        let a = g.add_node(ct, &[], TokenSource::Fixed(1));
        // LSTM emits no token, so FromDep(0) is invalid.
        g.add_node(ct, &[a], TokenSource::FromDep(0));
        assert!(g.validate(&reg).is_err());
    }

    #[test]
    fn type_histogram_counts() {
        let (_, ct) = chain_registry();
        let g = chain_graph(ct, &[1, 2, 3, 4]);
        assert_eq!(g.type_histogram(1), vec![4]);
    }

    #[test]
    fn sinks_of_diamond() {
        let mut reg = CellRegistry::new();
        let leaf = reg.register(
            "leaf",
            Cell::TreeLeaf(TreeLeafCell::seeded(4, 6, 10, 1)),
            0,
            1,
            64,
        );
        let mut g = CellGraph::new();
        let a = g.add_node(leaf, &[], TokenSource::Fixed(1));
        let b = g.add_node(leaf, &[], TokenSource::Fixed(2));
        assert_eq!(g.sinks(), vec![a, b]);
    }
}
