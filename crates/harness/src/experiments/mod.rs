//! One module per reproduced figure.

pub mod ablation;
pub mod bench;
pub mod fig10;
pub mod fig11;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig3;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod serving;
pub mod sla;
pub mod trace;

/// Experiment size: `Quick` for tests and benches, `Full` for the real
/// reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Few rates, short runs — seconds of wall time.
    Quick,
    /// The full sweeps reported in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Virtual seconds of arrivals per sweep point.
    pub fn duration_s(self) -> f64 {
        match self {
            Scale::Quick => 0.4,
            Scale::Full => 2.0,
        }
    }

    /// Thins a rate list for quick runs.
    pub fn rates(self, full: &[f64]) -> Vec<f64> {
        match self {
            Scale::Full => full.to_vec(),
            Scale::Quick => full
                .iter()
                .step_by(2.max(full.len() / 3))
                .copied()
                .collect(),
        }
    }

    /// Caps the request count of one sweep point.
    ///
    /// The cap must not truncate the arrival window below
    /// [`Scale::duration_s`] at the highest swept rate (24k req/s for
    /// the Quick-thinned Figure 11 sweep, 22k for the full Figure 7
    /// one): a truncated window turns a sustained-load capacity point
    /// into a short burst whose drain is dominated by once-per-bucket
    /// cold batches, which buries the bucket-width trade-off the
    /// Figure 8 assertions check.
    pub fn max_requests(self) -> usize {
        match self {
            Scale::Quick => 10_000,
            Scale::Full => 56_000,
        }
    }
}
