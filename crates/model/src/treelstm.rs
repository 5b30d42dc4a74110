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

/// A binary tree shape with tokens at the leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeShape {
    /// A leaf holding a token id.
    Leaf(u32),
    /// An internal node with two children.
    Internal(Box<TreeShape>, Box<TreeShape>),
}

impl TreeShape {
    /// A leaf node.
    pub fn leaf(token: u32) -> Self {
        TreeShape::Leaf(token)
    }

    /// An internal node over two subtrees.
    pub fn internal(left: TreeShape, right: TreeShape) -> Self {
        TreeShape::Internal(Box::new(left), Box::new(right))
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
        fn build(lo: usize, hi: usize, vocab: u32) -> TreeShape {
            if hi - lo == 1 {
                TreeShape::Leaf(lo as u32 % vocab)
            } else {
                let mid = (lo + hi) / 2;
                TreeShape::internal(build(lo, mid, vocab), build(mid, hi, vocab))
            }
        }
        build(0, leaves, vocab)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            TreeShape::Leaf(_) => 1,
            TreeShape::Internal(l, r) => l.leaf_count() + r.leaf_count(),
        }
    }

    /// Total number of nodes (leaves + internal).
    pub fn node_count(&self) -> usize {
        match self {
            TreeShape::Leaf(_) => 1,
            TreeShape::Internal(l, r) => 1 + l.node_count() + r.node_count(),
        }
    }

    /// Height of the tree in nodes (a lone leaf has height 1).
    pub fn height(&self) -> usize {
        match self {
            TreeShape::Leaf(_) => 1,
            TreeShape::Internal(l, r) => 1 + l.height().max(r.height()),
        }
    }

    /// Largest token id used by any leaf.
    pub fn max_token(&self) -> u32 {
        match self {
            TreeShape::Leaf(t) => *t,
            TreeShape::Internal(l, r) => l.max_token().max(r.max_token()),
        }
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

    fn unfold_into(&self, shape: &TreeShape, g: &mut CellGraph) -> NodeId {
        match shape {
            TreeShape::Leaf(t) => self.registry_leaf(g, *t),
            TreeShape::Internal(l, r) => {
                let left = self.unfold_into(l, g);
                let right = self.unfold_into(r, g);
                g.add_node(self.internal, vec![left, right], TokenSource::None)
            }
        }
    }

    fn registry_leaf(&self, g: &mut CellGraph, token: u32) -> NodeId {
        g.add_node(self.leaf, vec![], TokenSource::Fixed(token))
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
        let mut g = CellGraph::new();
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
