//! Typed error for the evaluation path.
//!
//! Everything between a caller asking "what does this (pair of) job(s) cost
//! under this config?" and the fluid simulator answering is fallible: the
//! AMVA fixed point can fail to converge, a config can oversubscribe the
//! node, a database can be empty, a policy can be invoked without the
//! context it needs. [`EvalError`] is the single error type threaded as
//! `Result` through engine → strategies → stp → mapping, so library code
//! never panics on the evaluation path — `unwrap`/`expect` survive only in
//! the experiment harness and tests.

use std::fmt;

use ecost_sim::SimError;

/// Error raised anywhere on the evaluation path.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The simulation substrate failed (non-convergence, core budget,
    /// invalid demand, missing node).
    Sim(SimError),
    /// A tuned mapping policy was invoked without an
    /// [`EcostContext`](crate::mapping::EcostContext).
    MissingContext {
        /// Label of the policy that needs the context (e.g. `"PTM"`).
        policy: &'static str,
    },
    /// A sweep or argmin ran over an empty candidate set.
    EmptySweep {
        /// What was being searched (e.g. `"solo config space"`).
        what: &'static str,
    },
    /// A lookup found no usable entry (empty database, no pairing
    /// candidate, unknown class pair).
    NoCandidates {
        /// What was being looked up.
        what: &'static str,
    },
    /// Caller-supplied input was structurally invalid (empty workload,
    /// zero nodes, oversized matching instance, ...).
    InvalidInput {
        /// What was wrong.
        what: &'static str,
    },
    /// An internal invariant did not hold (e.g. jobs stranded in the
    /// scheduler queue after the event loop drained).
    Internal {
        /// Which invariant broke.
        what: &'static str,
    },
    /// The evaluation completed only by degrading: a fault (node loss,
    /// exhausted cluster) forced a fallback path that could not fully
    /// satisfy the request.
    Degraded {
        /// What degraded (e.g. `"all nodes failed with jobs remaining"`).
        what: &'static str,
    },
    /// A learned model produced a non-finite prediction (NaN/∞ EDP). The
    /// self-tuner treats this as "no usable entry" and falls back to the
    /// class-default configuration.
    NonFinite {
        /// Which prediction was non-finite.
        what: &'static str,
    },
    /// A transient failure worth retrying under a
    /// [`RetryPolicy`](super::RetryPolicy).
    Transient {
        /// What failed transiently.
        what: &'static str,
    },
}

impl EvalError {
    /// True for failures a bounded [`RetryPolicy`](super::RetryPolicy)
    /// retry may cure: explicit transients and AMVA non-convergence (a
    /// perturbed re-evaluation can land inside the convergence basin).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            EvalError::Transient { .. } | EvalError::Sim(SimError::NoConvergence { .. })
        )
    }

    /// True for failures the scheduler degrades through instead of
    /// aborting: missing lookup entries, non-finite predictions, empty
    /// sweeps and explicit degradations. The fallback is the class-default
    /// configuration (self-tuning) or solo placement (pairing).
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            EvalError::NoCandidates { .. }
                | EvalError::NonFinite { .. }
                | EvalError::EmptySweep { .. }
                | EvalError::Degraded { .. }
        )
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Sim(e) => write!(f, "simulation failed: {e}"),
            EvalError::MissingContext { policy } => {
                write!(
                    f,
                    "policy {policy} needs an EcostContext but none was given"
                )
            }
            EvalError::EmptySweep { what } => write!(f, "empty sweep: {what}"),
            EvalError::NoCandidates { what } => write!(f, "no candidates: {what}"),
            EvalError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            EvalError::Internal { what } => write!(f, "internal invariant violated: {what}"),
            EvalError::Degraded { what } => write!(f, "degraded: {what}"),
            EvalError::NonFinite { what } => write!(f, "non-finite prediction: {what}"),
            EvalError::Transient { what } => write!(f, "transient failure: {what}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for EvalError {
    fn from(e: SimError) -> Self {
        EvalError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e: EvalError = SimError::NoSuchNode(3).into();
        assert!(e.to_string().contains("no such node"));
        assert!(EvalError::MissingContext { policy: "PTM" }
            .to_string()
            .contains("PTM"));
        assert!(EvalError::EmptySweep { what: "pair space" }
            .to_string()
            .contains("pair space"));
    }

    #[test]
    fn transient_and_degradable_classes_are_disjoint() {
        let t = EvalError::Transient { what: "eval" };
        assert!(t.is_transient() && !t.is_degradable());
        let nc: EvalError = SimError::NoConvergence {
            iterations: 10,
            residual: 1.0,
        }
        .into();
        assert!(nc.is_transient());
        for e in [
            EvalError::NoCandidates { what: "lkt" },
            EvalError::NonFinite { what: "mlm" },
            EvalError::EmptySweep { what: "pair" },
            EvalError::Degraded { what: "cluster" },
        ] {
            assert!(e.is_degradable() && !e.is_transient(), "{e}");
        }
        assert!(!EvalError::Internal { what: "queue" }.is_degradable());
    }

    #[test]
    fn source_chains_to_sim_error() {
        use std::error::Error;
        let e: EvalError = SimError::InvalidDemand("neg").into();
        assert!(e.source().is_some());
        assert!(EvalError::Internal { what: "queue" }.source().is_none());
    }
}
