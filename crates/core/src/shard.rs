//! Shard placement: which of a [`Runtime`](crate::Runtime)'s shards a
//! request is offered to, and in what order the others are retried.
//! Pure functions of the input's shape and the per-shard loads;
//! the rationale (cell-type affinity, load-aware spill, second chance)
//! is in the runtime's module docs.

use bm_model::RequestInput;

/// How far (in active requests) a home shard may run ahead of the
/// least-loaded shard before affinity yields to rebalancing. Small
/// enough that a skewed type mix spreads within tens of requests; large
/// enough that balanced traffic keeps its type affinity through normal
/// load jitter.
const SPILL_MARGIN: usize = 16;

/// The shard, of `n` whose active requests `load` reads, a request with
/// `input` should be offered to first: its affinity home unless that
/// home is more than [`SPILL_MARGIN`] requests ahead of the
/// least-loaded shard, in which case the least-loaded shard (scan
/// started at `start` so equal-load ties spread when the caller rotates
/// it).
pub(crate) fn place(
    input: &RequestInput,
    n: usize,
    load: impl Fn(usize) -> usize,
    start: usize,
) -> usize {
    let home = affinity_shard(input, n);
    let (mut lightest, mut min_load) = (start, load(start));
    for off in 1..n {
        let i = (start + off) % n;
        let l = load(i);
        if l < min_load {
            lightest = i;
            min_load = l;
        }
    }
    if load(home) > min_load + SPILL_MARGIN {
        lightest
    } else {
        home
    }
}

/// The shards to try after shard `refused` turned a request away for
/// overload: every other shard, lightest first.
pub(crate) fn retry_order(refused: usize, loads: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..loads.len()).filter(|&i| i != refused).collect();
    order.sort_by_key(|&i| loads[i]);
    order
}

/// The home shard for an input: each cell-graph shape (and therefore
/// cell type) maps to its own shard, so same-type requests co-locate
/// and batch together.
fn affinity_shard(input: &RequestInput, n: usize) -> usize {
    let class = match input {
        RequestInput::Sequence(_) => 0usize,
        RequestInput::Pair { .. } => 1,
        RequestInput::Tree(_) => 2,
    };
    class % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_separates_types_when_shards_allow() {
        let seq = RequestInput::Sequence(vec![1]);
        let pair = RequestInput::Pair {
            src: vec![1],
            decode_len: 1,
        };
        assert_eq!(affinity_shard(&seq, 1), 0);
        assert_eq!(affinity_shard(&pair, 1), 0);
        assert_ne!(affinity_shard(&seq, 2), affinity_shard(&pair, 2));
    }
}
