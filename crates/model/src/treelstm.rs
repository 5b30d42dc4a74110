//! Binary TreeLSTM model (paper §7.5, Figure 2).
//!
//! A request is a binary parse tree with tokens at the leaves. The
//! unfolded graph has one leaf-cell node per leaf and one internal-cell
//! node per internal tree node. As in the paper's TreeLSTM example
//! (§4.4), internal nodes are "given preference over leaf nodes" via
//! cell priority.

use bm_cell::{Cell, CellRegistry, CellTypeId, TreeInternalCell, TreeLeafCell};

use crate::graph::{CellGraph, NodeId, TokenSource};
use crate::{Model, RequestInput};

/// One node of a [`TreeShape`], in preorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeNode {
    /// A leaf holding a token id.
    Leaf(u32),
    /// An internal node: its left subtree follows it, then its right.
    Internal,
}

/// A binary tree shape with tokens at the leaves.
///
/// Stored as its nodes in preorder (a node, then its left subtree, then
/// its right) — the order the wire carries them in — so a tree of any
/// size is one allocation to build, clone, decode or drop, and no walk
/// over it recurses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    preorder: Vec<TreeNode>,
}

impl TreeShape {
    /// A leaf node.
    pub fn leaf(token: u32) -> Self {
        TreeShape {
            preorder: vec![TreeNode::Leaf(token)],
        }
    }

    /// An internal node over two subtrees.
    pub fn internal(left: TreeShape, right: TreeShape) -> Self {
        let mut preorder = Vec::with_capacity(1 + left.preorder.len() + right.preorder.len());
        preorder.push(TreeNode::Internal);
        preorder.extend_from_slice(&left.preorder);
        preorder.extend_from_slice(&right.preorder);
        TreeShape { preorder }
    }

    /// The tree whose nodes in preorder are `preorder`, or `None` if
    /// they are not exactly one binary tree (a subtree left unfinished,
    /// or nodes after the root's last leaf).
    pub fn from_preorder(preorder: Vec<TreeNode>) -> Option<Self> {
        // Subtrees still to read: each node fills one, an internal node
        // opens two.
        let mut open = 1usize;
        for node in &preorder {
            open = match (open, node) {
                (0, _) => return None,
                (_, TreeNode::Leaf(_)) => open - 1,
                (_, TreeNode::Internal) => open + 1,
            };
        }
        (open == 0).then_some(TreeShape { preorder })
    }

    /// The nodes in preorder.
    pub fn preorder(&self) -> &[TreeNode] {
        &self.preorder
    }

    /// A complete binary tree with `leaves` leaf nodes (must be a power
    /// of two), tokens assigned round-robin from `vocab`.
    ///
    /// This is the Figure 15 synthetic input ("a complete binary tree of
    /// 16 leaf nodes").
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero or not a power of two.
    pub fn complete(leaves: usize, vocab: u32) -> Self {
        assert!(leaves > 0 && leaves.is_power_of_two(), "leaves must be 2^k");
        fn build(lo: usize, hi: usize, vocab: u32, out: &mut Vec<TreeNode>) {
            if hi - lo == 1 {
                out.push(TreeNode::Leaf(lo as u32 % vocab));
            } else {
                let mid = (lo + hi) / 2;
                out.push(TreeNode::Internal);
                build(lo, mid, vocab, out);
                build(mid, hi, vocab, out);
            }
        }
        let mut preorder = Vec::with_capacity(2 * leaves - 1);
        build(0, leaves, vocab, &mut preorder);
        TreeShape { preorder }
    }

    /// The leaves' tokens, left to right.
    fn tokens(&self) -> impl Iterator<Item = u32> + '_ {
        self.preorder.iter().filter_map(|node| match node {
            TreeNode::Leaf(t) => Some(*t),
            TreeNode::Internal => None,
        })
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.tokens().count()
    }

    /// Total number of nodes (leaves + internal).
    pub fn node_count(&self) -> usize {
        self.preorder.len()
    }

    /// Height of the tree in nodes (a lone leaf has height 1).
    pub fn height(&self) -> usize {
        // The depths of the subtrees still to read, the next on top.
        let mut open = vec![1];
        let mut height = 0;
        for node in &self.preorder {
            let depth = open.pop().expect("a tree's nodes fill its open subtrees");
            height = height.max(depth);
            if *node == TreeNode::Internal {
                open.extend([depth + 1, depth + 1]);
            }
        }
        height
    }

    /// Largest token id used by any leaf.
    pub fn max_token(&self) -> u32 {
        self.tokens().fold(0, u32::max)
    }
}

/// Configuration of a [`TreeLstm`] model.
#[derive(Debug, Clone, Copy)]
pub struct TreeLstmConfig {
    /// Embedding width.
    pub embed_size: usize,
    /// Hidden state width (1024 in the paper).
    pub hidden_size: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Weight seed.
    pub seed: u64,
    /// Maximum batch size for both cell types (64 in §7.5).
    pub max_batch: usize,
    /// Minimum non-head batch size.
    pub min_batch: usize,
}

impl Default for TreeLstmConfig {
    fn default() -> Self {
        TreeLstmConfig {
            embed_size: 64,
            hidden_size: 64,
            vocab: 1000,
            seed: 0x73ee,
            max_batch: 64,
            min_batch: 1,
        }
    }
}

/// The TreeLSTM model.
#[derive(Debug)]
pub struct TreeLstm {
    registry: CellRegistry,
    leaf: CellTypeId,
    internal: CellTypeId,
    vocab: usize,
}

impl TreeLstm {
    /// Builds the model, registering leaf and internal cell types.
    pub fn new(cfg: TreeLstmConfig) -> Self {
        let (e, h, v, seed) = (cfg.embed_size, cfg.hidden_size, cfg.vocab, cfg.seed);
        Self::with_cells(
            TreeLeafCell::seeded(e, h, v, seed),
            TreeInternalCell::seeded(h, seed),
            cfg,
        )
    }

    /// Registers the two cells, with the batching parameters of `cfg`.
    fn with_cells(leaf: TreeLeafCell, internal: TreeInternalCell, cfg: TreeLstmConfig) -> Self {
        let vocab = leaf.vocab_size();
        let mut registry = CellRegistry::new();
        let (min, max) = (cfg.min_batch, cfg.max_batch);
        let leaf = registry.register("tree_leaf", Cell::TreeLeaf(leaf), 0, min, max);
        let internal =
            registry.register("tree_internal", Cell::TreeInternal(internal), 1, min, max);
        TreeLstm {
            registry,
            leaf,
            internal,
            vocab,
        }
    }

    /// Builds the model with default (test-sized) configuration.
    pub fn small() -> Self {
        Self::new(TreeLstmConfig::default())
    }

    /// The leaf cell type.
    pub fn leaf_type(&self) -> CellTypeId {
        self.leaf
    }

    /// The internal cell type.
    pub fn internal_type(&self) -> CellTypeId {
        self.internal
    }

    /// Saves both cells' weights to one file, name-prefixed (§4.2).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let mut packed = bm_tensor::io::WeightBundle::new();
        packed.merge_prefixed("leaf", &self.registry.cell(self.leaf).to_bundle());
        packed.merge_prefixed("internal", &self.registry.cell(self.internal).to_bundle());
        packed.save(path).map_err(|e| e.to_string())
    }

    /// Loads a model from saved weights; shapes are inferred from the
    /// file, batching parameters come from `cfg` (its size/seed fields
    /// are ignored).
    ///
    /// Fails if the file's leaf and internal cells have different hidden
    /// widths: an internal cell takes its children's states.
    pub fn load(path: impl AsRef<std::path::Path>, cfg: TreeLstmConfig) -> Result<Self, String> {
        let packed = bm_tensor::io::WeightBundle::load(path).map_err(|e| e.to_string())?;
        let leaf_cell = TreeLeafCell::from_bundle(&packed.sub_bundle("leaf"))?;
        let internal_cell = TreeInternalCell::from_bundle(&packed.sub_bundle("internal"))?;
        let (leaf_hidden, internal_hidden) = (leaf_cell.hidden_size(), internal_cell.hidden_size());
        if leaf_hidden != internal_hidden {
            return Err(format!(
                "leaf hidden width {leaf_hidden} differs from internal hidden width {internal_hidden}"
            ));
        }
        Ok(Self::with_cells(leaf_cell, internal_cell, cfg))
    }

    /// Adds `shape`'s nodes to `g` in post-order (left subtree, right
    /// subtree, then their parent), walking its preorder with a stack
    /// of the internal nodes still waiting on a subtree.
    fn unfold_into(&self, shape: &TreeShape, g: &mut CellGraph) {
        // Per open internal node: its left child once that subtree is
        // done, `None` while it is being unfolded.
        let mut open: Vec<Option<NodeId>> = Vec::new();
        for node in shape.preorder() {
            let mut done = match *node {
                TreeNode::Internal => {
                    open.push(None);
                    continue;
                }
                TreeNode::Leaf(t) => g.add_node(self.leaf, &[], TokenSource::Fixed(t)),
            };
            // A finished right subtree finishes its parent.
            while let Some(&mut Some(left)) = open.last_mut() {
                open.pop();
                done = g.add_node(self.internal, &[left, done], TokenSource::None);
            }
            if let Some(parent) = open.last_mut() {
                *parent = Some(done);
            }
        }
    }
}

impl Model for TreeLstm {
    fn registry(&self) -> &CellRegistry {
        &self.registry
    }

    fn unfold(&self, input: &RequestInput) -> CellGraph {
        let RequestInput::Tree(shape) = input else {
            panic!("TreeLstm expects RequestInput::Tree");
        };
        let mut g = CellGraph::with_capacity(shape.node_count());
        self.unfold_into(shape, &mut g);
        g
    }

    fn validate(&self, input: &RequestInput) -> Result<(), String> {
        match input {
            RequestInput::Tree(shape) => {
                if shape.max_token() as usize >= self.vocab {
                    return Err(format!(
                        "leaf token {} out of vocabulary ({})",
                        shape.max_token(),
                        self.vocab
                    ));
                }
                Ok(())
            }
            other => Err(format!("TreeLstm cannot serve {other:?}")),
        }
    }

    fn name(&self) -> &str {
        "tree-lstm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_tree_counts() {
        let t = TreeShape::complete(16, 100);
        assert_eq!(t.leaf_count(), 16);
        assert_eq!(t.node_count(), 31);
        assert_eq!(t.height(), 5);
    }

    #[test]
    fn internal_lays_out_preorder() {
        // ((1 2) 3)
        let t = TreeShape::internal(
            TreeShape::internal(TreeShape::leaf(1), TreeShape::leaf(2)),
            TreeShape::leaf(3),
        );
        use TreeNode::{Internal, Leaf};
        assert_eq!(
            t.preorder(),
            [Internal, Internal, Leaf(1), Leaf(2), Leaf(3)]
        );
        assert_eq!((t.leaf_count(), t.height(), t.max_token()), (3, 3, 3));
        assert_eq!(TreeShape::from_preorder(t.preorder().to_vec()), Some(t));
    }

    #[test]
    fn from_preorder_takes_exactly_one_tree() {
        use TreeNode::{Internal, Leaf};
        assert_eq!(TreeShape::from_preorder(vec![]), None);
        assert_eq!(TreeShape::from_preorder(vec![Internal, Leaf(1)]), None);
        assert_eq!(TreeShape::from_preorder(vec![Leaf(1), Leaf(2)]), None);
        assert_eq!(
            TreeShape::from_preorder(vec![Internal, Leaf(1), Leaf(2), Leaf(3)]),
            None
        );
        assert_eq!(
            TreeShape::from_preorder(vec![Leaf(4)]),
            Some(TreeShape::leaf(4))
        );
    }

    #[test]
    fn unfold_complete_tree() {
        let m = TreeLstm::small();
        let g = m.unfold(&RequestInput::Tree(TreeShape::complete(8, 100)));
        g.validate(m.registry()).unwrap();
        assert_eq!(g.len(), 15);
        let hist = g.type_histogram(m.registry().len());
        assert_eq!(hist[m.leaf_type().index()], 8);
        assert_eq!(hist[m.internal_type().index()], 7);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.critical_path_len(), 4); // 3 internal levels + leaf.
    }

    #[test]
    fn unbalanced_tree_unfolds() {
        // ((a b) c): left-deep tree of 3 leaves.
        let t = TreeShape::internal(
            TreeShape::internal(TreeShape::leaf(1), TreeShape::leaf(2)),
            TreeShape::leaf(3),
        );
        let m = TreeLstm::small();
        let g = m.unfold(&RequestInput::Tree(t));
        g.validate(m.registry()).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.critical_path_len(), 3);
        // Post-order: a subtree's nodes, then its parent.
        let deps: Vec<Vec<usize>> = g
            .nodes()
            .iter()
            .map(|n| n.deps.iter().map(|d| d.index()).collect())
            .collect();
        assert_eq!(deps, [vec![], vec![], vec![0, 1], vec![], vec![2, 3]]);
    }

    #[test]
    fn single_leaf_tree() {
        let m = TreeLstm::small();
        let g = m.unfold(&RequestInput::Tree(TreeShape::leaf(9)));
        g.validate(m.registry()).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn internal_cells_have_priority() {
        let m = TreeLstm::small();
        let reg = m.registry();
        assert!(reg.meta(m.internal_type()).priority > reg.meta(m.leaf_type()).priority);
    }

    #[test]
    fn validate_checks_vocab() {
        let m = TreeLstm::small();
        assert!(m
            .validate(&RequestInput::Tree(TreeShape::leaf(999_999)))
            .is_err());
        assert!(m.validate(&RequestInput::Tree(TreeShape::leaf(0))).is_ok());
        assert!(m.validate(&RequestInput::Sequence(vec![0])).is_err());
    }

    #[test]
    #[should_panic]
    fn complete_requires_power_of_two() {
        let _ = TreeShape::complete(6, 10);
    }
}
