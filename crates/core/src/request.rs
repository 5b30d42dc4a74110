//! The unified request submission type.
//!
//! [`Request`] is the single entry point for submitting work to any
//! driver of the cellular-batching stack — the threaded
//! [`crate::Runtime`], the engine itself
//! ([`crate::CellularEngine::on_request`], through which the
//! simulator's `bm_sim::CellularServer` admits) and the network wire
//! format (`bm-net`) all accept it. It replaces the old
//! `submit` / `try_submit` / `try_submit_with_deadline` trio, whose
//! deadline handling lived in the method name instead of the request.
//!
//! ```
//! use bm_core::Request;
//! use bm_model::RequestInput;
//!
//! let req = Request::new(RequestInput::Sequence(vec![1, 2, 3]))
//!     .deadline_us(50_000);
//! assert_eq!(req.effective_deadline_us(None), Some(50_000));
//! ```

use bm_model::RequestInput;

/// How a request's completion deadline is determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlineSpec {
    /// Use the driver's default deadline (`ServeConfig::deadline_us`),
    /// if it has one.
    #[default]
    Default,
    /// No deadline for this request, even if the driver has a default.
    None,
    /// An explicit relative deadline, µs from arrival.
    RelativeUs(u64),
}

/// One unit of work to serve: the input payload plus its service-level
/// metadata (its deadline). Scheduling priority is a property of a
/// cell type, not of a request (§4.3).
///
/// Build with [`Request::new`] and the fluent setters; the struct is
/// `#[non_exhaustive]` so new metadata can be added compatibly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Request {
    /// The input payload.
    pub input: RequestInput,
    /// The deadline specification (see [`DeadlineSpec`]).
    pub deadline: DeadlineSpec,
}

impl Request {
    /// A request for `input` with default metadata: the driver's
    /// default deadline.
    pub fn new(input: RequestInput) -> Self {
        Request {
            input,
            deadline: DeadlineSpec::Default,
        }
    }

    /// Sets an explicit relative deadline, µs from arrival.
    pub fn deadline_us(mut self, d: u64) -> Self {
        self.deadline = DeadlineSpec::RelativeUs(d);
        self
    }

    /// Disables the deadline for this request, even if the driver has a
    /// default.
    pub fn no_deadline(mut self) -> Self {
        self.deadline = DeadlineSpec::None;
        self
    }

    /// Resolves the deadline against a driver default: the request's
    /// own relative deadline, the default when the request defers to
    /// it, or `None`.
    pub fn effective_deadline_us(&self, default_us: Option<u64>) -> Option<u64> {
        match self.deadline {
            DeadlineSpec::Default => default_us,
            DeadlineSpec::None => None,
            DeadlineSpec::RelativeUs(d) => Some(d),
        }
    }
}

impl From<RequestInput> for Request {
    fn from(input: RequestInput) -> Self {
        Request::new(input)
    }
}

impl From<&RequestInput> for Request {
    fn from(input: &RequestInput) -> Self {
        Request::new(input.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_resolution() {
        let input = RequestInput::Sequence(vec![1]);
        let r = Request::new(input.clone());
        assert_eq!(r.effective_deadline_us(None), None);
        assert_eq!(r.effective_deadline_us(Some(9)), Some(9));
        let r = Request::new(input.clone()).no_deadline();
        assert_eq!(r.effective_deadline_us(Some(9)), None);
        let r = Request::new(input).deadline_us(4);
        assert_eq!(r.effective_deadline_us(Some(9)), Some(4));
    }

    #[test]
    fn from_input_is_default_request() {
        let input = RequestInput::Sequence(vec![1, 2]);
        let r: Request = (&input).into();
        assert_eq!(r, Request::new(input));
    }
}
