//! Cell-graph partitioning into same-type subgraphs.
//!
//! "The request processor analyzes the cell graph of a request to find a
//! subgraph to pass to the scheduler. A subgraph contains a single node
//! or a number of connected nodes with the property that all external
//! dependencies to other parts of the graph have been satisfied.
//! Furthermore, all nodes of a subgraph must be of the same cell type."
//! (§4.3)
//!
//! We partition into *maximal* connected components of same-type nodes
//! (connectivity through dependency edges between nodes of equal type).
//! For the paper's TreeLSTM example this yields exactly the §4.4
//! partition: each leaf is its own subgraph, all internal nodes form one.

use bm_model::CellGraph;

/// The partition of one request's graph into subgraphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// For each node (by index), the local subgraph index it belongs to.
    /// Subgraphs are numbered in order of their first node.
    pub node_subgraph: Vec<usize>,
    /// For each subgraph, the number of *external* dependency edges
    /// entering it (edges whose source is in a different subgraph).
    pub external_deps: Vec<usize>,
}

impl Partition {
    /// Number of subgraphs.
    pub fn len(&self) -> usize {
        self.external_deps.len()
    }

    /// Whether the partition is empty (only for empty graphs).
    pub fn is_empty(&self) -> bool {
        self.external_deps.is_empty()
    }
}

/// Partitions `graph` into maximal same-type connected subgraphs.
pub fn partition(graph: &CellGraph) -> Partition {
    let n = graph.len();
    // Union-find over nodes, uniting same-type dependency edges.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for (id, node) in graph.iter() {
        for d in node.deps.iter() {
            if graph.node(*d).cell_type == node.cell_type {
                let a = find(&mut parent, id.index());
                let b = find(&mut parent, d.index());
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    // Number the components densely in order of their first node. A
    // component's number is kept in its root's slot, where its later
    // members read it (the root's own entry is that same number).
    let mut node_subgraph = vec![usize::MAX; n];
    let mut subgraphs = 0;
    for i in 0..n {
        let root = find(&mut parent, i);
        if node_subgraph[root] == usize::MAX {
            node_subgraph[root] = subgraphs;
            subgraphs += 1;
        }
        node_subgraph[i] = node_subgraph[root];
    }
    // Count external dependency edges per subgraph.
    let mut external_deps = vec![0usize; subgraphs];
    for (id, node) in graph.iter() {
        let sg = node_subgraph[id.index()];
        for d in node.deps.iter() {
            if node_subgraph[d.index()] != sg {
                external_deps[sg] += 1;
            }
        }
    }
    Partition {
        node_subgraph,
        external_deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_model::{LstmLm, Model, RequestInput, Seq2Seq, TreeLstm, TreeShape};

    /// The member node indices of subgraph `sg`, in topological order.
    fn members(p: &Partition, sg: usize) -> Vec<usize> {
        (0..p.node_subgraph.len())
            .filter(|&i| p.node_subgraph[i] == sg)
            .collect()
    }

    #[test]
    fn lstm_chain_is_one_subgraph() {
        let m = LstmLm::small();
        let g = m.unfold(&RequestInput::Sequence(vec![1, 2, 3, 4, 5]));
        let p = partition(&g);
        assert_eq!(p.len(), 1);
        assert_eq!(members(&p, 0), [0, 1, 2, 3, 4]);
        assert_eq!(p.external_deps[0], 0);
    }

    #[test]
    fn seq2seq_is_two_subgraphs() {
        let m = Seq2Seq::small();
        let g = m.unfold(&RequestInput::Pair {
            src: vec![2, 3, 4],
            decode_len: 2,
        });
        let p = partition(&g);
        assert_eq!(p.len(), 2);
        // Encoder nodes 0..3 in one, decoder nodes 3..5 in the other.
        assert_eq!(members(&p, 0), [0, 1, 2]);
        assert_eq!(members(&p, 1), [3, 4]);
        assert_eq!(p.external_deps[0], 0);
        // One external edge: enc_last -> first decoder.
        assert_eq!(p.external_deps[1], 1);
    }

    #[test]
    fn complete_tree_matches_paper_example() {
        // "Suppose request x is a complete binary tree with 16 leaf
        // nodes. Then its cell graph will be partitioned into 17
        // subgraphs: one subgraph contains 31 internal tree nodes" —
        // note the paper counts 31 total internal nodes for the full
        // tree of 16 leaves including the root levels (16-leaf complete
        // binary tree has 15 internal nodes; the paper's 31 counts all
        // nodes of the internal subgraph in its running example; our
        // partition yields 15 internal + 16 leaves = 17 subgraphs).
        let m = TreeLstm::small();
        let g = m.unfold(&RequestInput::Tree(TreeShape::complete(16, 100)));
        let p = partition(&g);
        assert_eq!(p.len(), 17);
        let internal_sg = p.node_subgraph[g.len() - 1]; // Root is internal.
        assert_eq!(members(&p, internal_sg).len(), 15);
        // The internal subgraph's external deps: one per leaf child edge.
        assert_eq!(p.external_deps[internal_sg], 16);
        // Leaf subgraphs have no external deps.
        for sg in 0..p.len() {
            if sg != internal_sg {
                assert_eq!(members(&p, sg).len(), 1);
                assert_eq!(p.external_deps[sg], 0);
            }
        }
    }

    #[test]
    fn members_are_topologically_ordered() {
        let m = TreeLstm::small();
        let g = m.unfold(&RequestInput::Tree(TreeShape::complete(8, 100)));
        let p = partition(&g);
        // Subgraphs are numbered in order of their first node, which
        // admission relies on to build them in one pass over the nodes.
        let firsts: Vec<usize> = (0..p.len()).map(|sg| members(&p, sg)[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "{firsts:?}");
    }
}
