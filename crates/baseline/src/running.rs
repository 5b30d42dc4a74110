//! The running-batch ledger every graph-batching baseline keeps.

use std::collections::HashMap;

use bm_sim::{Completion, WorkItem};

/// A queued request: `(request id, arrival µs)`.
pub(crate) type Pending = (u64, u64);

/// The batches on the device, by work-item id. Each baseline dispatches
/// one item at a time, so a batch starts when it is dispatched; all its
/// requests complete together when it finishes (§2.3).
#[derive(Default)]
pub(crate) struct Running {
    /// Per item: its requests and its start, µs.
    batches: HashMap<u64, (Vec<Pending>, u64)>,
    next_item: u64,
}

impl Running {
    /// Starts `requests` at `now_us` as one batch that occupies the
    /// device for `duration_us`, rounded to whole µs; returns the work
    /// item to run.
    pub(crate) fn start(
        &mut self,
        requests: Vec<Pending>,
        now_us: u64,
        duration_us: f64,
    ) -> Vec<WorkItem> {
        let id = self.next_item;
        self.next_item += 1;
        self.batches.insert(id, (requests, now_us));
        vec![WorkItem {
            id,
            duration_us: duration_us.round() as u64,
        }]
    }

    /// Item `item` finished at `now_us`: appends the record of each of
    /// its requests to `done`.
    pub(crate) fn finish(&mut self, item: u64, now_us: u64, done: &mut Vec<Completion>) {
        let (requests, start_us) = self.batches.remove(&item).expect("known batch");
        done.extend(
            requests
                .iter()
                .map(|&(id, arrival_us)| (id, arrival_us, start_us, now_us)),
        );
    }
}
