//! Seeded dataset generators for the three applications.
//!
//! A [`Dataset`] is a pool of `RequestInput`s from which the load driver
//! samples uniformly ("we sample a request from the dataset and issue it
//! to the system with Poisson inter-arrival times", §7.1).

use bm_model::{RequestInput, TreeNode, TreeShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lengths::LengthDistribution;

/// Which application a dataset targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Token sequences for the LSTM language model.
    LstmSequences,
    /// Source/target pairs for Seq2Seq.
    Seq2SeqPairs,
    /// Binary parse trees for TreeLSTM.
    Trees,
}

/// A pool of request inputs.
#[derive(Debug, Clone)]
pub struct Dataset {
    kind: DatasetKind,
    items: Vec<RequestInput>,
}

/// First token id usable for data (0 and 1 are reserved for
/// `<go>`/`<eos>`).
const FIRST_DATA_TOKEN: u32 = 2;

fn random_tokens(rng: &mut StdRng, len: usize, vocab: u32) -> Vec<u32> {
    (0..len)
        .map(|_| rng.gen_range(FIRST_DATA_TOKEN..vocab))
        .collect()
}

/// Builds a random binary parse tree over `leaves` tokens.
///
/// The split point at each level is uniform, which produces the mix of
/// balanced and skewed shapes typical of constituency parse trees.
fn random_parse_tree(rng: &mut StdRng, tokens: &[u32]) -> TreeShape {
    fn build(rng: &mut StdRng, tokens: &[u32], preorder: &mut Vec<TreeNode>) {
        match tokens {
            [] => unreachable!("random_parse_tree on empty token slice"),
            [t] => preorder.push(TreeNode::Leaf(*t)),
            _ => {
                let split = rng.gen_range(1..tokens.len());
                preorder.push(TreeNode::Internal);
                build(rng, &tokens[..split], preorder);
                build(rng, &tokens[split..], preorder);
            }
        }
    }
    let mut preorder = Vec::with_capacity(2 * tokens.len() - 1);
    build(rng, tokens, &mut preorder);
    TreeShape::from_preorder(preorder).expect("a split tree is one tree")
}

impl Dataset {
    /// Token sequences with lengths drawn from `lengths`
    /// (the §7.2 LSTM workload when `lengths = wmt15()`).
    pub fn lstm(n: usize, lengths: LengthDistribution, vocab: u32, seed: u64) -> Self {
        assert!(n > 0, "empty dataset");
        let mut rng = StdRng::seed_from_u64(seed);
        let items = (0..n)
            .map(|_| {
                let len = lengths.sample(&mut rng);
                RequestInput::Sequence(random_tokens(&mut rng, len, vocab))
            })
            .collect();
        Dataset {
            kind: DatasetKind::LstmSequences,
            items,
        }
    }

    /// Translation pairs (the §7.4 Seq2Seq workload).
    ///
    /// Source lengths come from `lengths`; the decode length is the
    /// "target" length — correlated with the source length via a mild
    /// log-normal length ratio, as German/English pairs are.
    pub fn seq2seq(n: usize, lengths: LengthDistribution, vocab: u32, seed: u64) -> Self {
        assert!(n > 0, "empty dataset");
        let mut rng = StdRng::seed_from_u64(seed);
        let items = (0..n)
            .map(|_| {
                let src_len = lengths.sample(&mut rng);
                // Target/source length ratio: centered on 1.0, sd ~15 %.
                let ratio = crate::dist::log_normal(&mut rng, 0.0, 0.15);
                let decode_len = ((src_len as f64 * ratio).round() as i64)
                    .clamp(1, lengths.max_len() as i64) as usize;
                RequestInput::Pair {
                    src: random_tokens(&mut rng, src_len, vocab),
                    decode_len,
                }
            })
            .collect();
        Dataset {
            kind: DatasetKind::Seq2SeqPairs,
            items,
        }
    }

    /// Random binary parse trees (the §7.5 TreeBank workload).
    pub fn trees(n: usize, lengths: LengthDistribution, vocab: u32, seed: u64) -> Self {
        assert!(n > 0, "empty dataset");
        let mut rng = StdRng::seed_from_u64(seed);
        let items = (0..n)
            .map(|_| {
                let leaves = lengths.sample(&mut rng).max(1);
                let tokens = random_tokens(&mut rng, leaves, vocab);
                RequestInput::Tree(random_parse_tree(&mut rng, &tokens))
            })
            .collect();
        Dataset {
            kind: DatasetKind::Trees,
            items,
        }
    }

    /// `n` copies of the identical complete binary tree with `leaves`
    /// leaves (the Figure 15 synthetic dataset).
    pub fn identical_trees(n: usize, leaves: usize, vocab: u32) -> Self {
        assert!(n > 0, "empty dataset");
        let shape = TreeShape::complete(leaves, vocab.max(1));
        Dataset {
            kind: DatasetKind::Trees,
            items: vec![RequestInput::Tree(shape); n],
        }
    }

    /// The dataset's kind.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// All items.
    pub fn items(&self) -> &[RequestInput] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the dataset has no items (never true: constructors
    /// require `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Samples one item uniformly.
    pub fn sample<'a>(&'a self, rng: &mut impl Rng) -> &'a RequestInput {
        &self.items[rng.gen_range(0..self.items.len())]
    }

    /// The lengths (cell counts) of all items — what Figure 10 plots for
    /// the LSTM dataset.
    pub fn cell_counts(&self) -> Vec<usize> {
        self.items.iter().map(|i| i.cell_count()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lstm_dataset_lengths_in_range() {
        let d = Dataset::lstm(500, LengthDistribution::wmt15(), 100, 7);
        assert_eq!(d.len(), 500);
        for item in d.items() {
            let RequestInput::Sequence(s) = item else {
                panic!("wrong variant")
            };
            assert!(!s.is_empty() && s.len() <= 330);
            assert!(s.iter().all(|&t| (2..100).contains(&t)));
        }
    }

    #[test]
    fn seq2seq_pairs_have_correlated_lengths() {
        let d = Dataset::seq2seq(500, LengthDistribution::wmt15(), 100, 8);
        let mut ratios = Vec::new();
        for item in d.items() {
            let RequestInput::Pair { src, decode_len } = item else {
                panic!("wrong variant")
            };
            assert!(!src.is_empty() && *decode_len >= 1);
            ratios.push(*decode_len as f64 / src.len() as f64);
        }
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((mean_ratio - 1.0).abs() < 0.15, "mean ratio {mean_ratio}");
    }

    #[test]
    fn tree_dataset_matches_leaf_distribution() {
        let d = Dataset::trees(300, LengthDistribution::treebank(), 100, 9);
        for item in d.items() {
            let RequestInput::Tree(t) = item else {
                panic!("wrong variant")
            };
            assert!(t.leaf_count() >= 1 && t.leaf_count() <= 64);
            // A binary tree over n leaves has 2n - 1 nodes.
            assert_eq!(t.node_count(), 2 * t.leaf_count() - 1);
        }
    }

    #[test]
    fn identical_trees_are_identical() {
        let d = Dataset::identical_trees(10, 16, 100);
        let first = &d.items()[0];
        assert!(d.items().iter().all(|i| i == first));
        let RequestInput::Tree(t) = first else {
            panic!("wrong variant")
        };
        assert_eq!(t.leaf_count(), 16);
        assert_eq!(t.node_count(), 31);
    }

    #[test]
    fn datasets_are_seed_deterministic() {
        let a = Dataset::lstm(50, LengthDistribution::wmt15(), 100, 1);
        let b = Dataset::lstm(50, LengthDistribution::wmt15(), 100, 1);
        let c = Dataset::lstm(50, LengthDistribution::wmt15(), 100, 2);
        assert_eq!(a.items(), b.items());
        assert_ne!(a.items(), c.items());
    }

    #[test]
    fn sample_draws_from_pool() {
        let d = Dataset::lstm(20, LengthDistribution::Fixed(5), 100, 1);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let item = d.sample(&mut rng);
            assert!(d.items().contains(item));
        }
    }

    #[test]
    fn parse_trees_vary_in_shape() {
        let d = Dataset::trees(100, LengthDistribution::Fixed(16), 100, 3);
        let heights: std::collections::HashSet<usize> = d
            .items()
            .iter()
            .map(|i| {
                let RequestInput::Tree(t) = i else {
                    unreachable!()
                };
                t.height()
            })
            .collect();
        // Random splits should produce multiple distinct heights.
        assert!(heights.len() > 1, "heights {heights:?}");
    }
}
