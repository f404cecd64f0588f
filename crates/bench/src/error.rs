//! Typed errors for the experiment binaries.
//!
//! The `src/bin/*` wrappers used to `expect()` on their I/O and simulation
//! paths; they now bubble a [`BenchError`] out of a fallible `run()` and
//! exit non-zero through [`run_main`], so a full disk or a failed
//! evaluation is a diagnosable error message, not a panic backtrace.

use ecost_core::engine::EvalError;
use ecost_sim::SimError;
use std::fmt;
use std::process::ExitCode;

/// Everything that can go wrong in an experiment binary.
#[derive(Debug)]
pub enum BenchError {
    /// Writing results (or creating the results directory) failed.
    Io(std::io::Error),
    /// An evaluation driven through the engine failed.
    Eval(EvalError),
    /// The raw simulator rejected a run.
    Sim(SimError),
    /// Malformed input: an environment variable, argument, or an
    /// experiment invariant (e.g. an empty sweep) that did not hold.
    Invalid(String),
    /// The input exists-but-is-empty case: a gate or report had nothing
    /// to work on (missing trend store, no comparable rows). Mapped by
    /// [`run_main`] to exit code 2 so callers can distinguish "nothing
    /// to check" from a real failure.
    NoData(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "i/o error: {e}"),
            BenchError::Eval(e) => write!(f, "evaluation failed: {e}"),
            BenchError::Sim(e) => write!(f, "simulation failed: {e}"),
            BenchError::Invalid(what) => write!(f, "invalid input: {what}"),
            BenchError::NoData(what) => write!(f, "no data: {what}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io(e) => Some(e),
            BenchError::Eval(e) => Some(e),
            BenchError::Sim(e) => Some(e),
            BenchError::Invalid(_) | BenchError::NoData(_) => None,
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> BenchError {
        BenchError::Io(e)
    }
}

impl From<EvalError> for BenchError {
    fn from(e: EvalError) -> BenchError {
        BenchError::Eval(e)
    }
}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> BenchError {
        BenchError::Sim(e)
    }
}

/// Run an experiment body, mapping `Err` to a one-line diagnostic on
/// stderr and a non-zero exit code. Every `src/bin/*` main delegates here.
///
/// An `ECOST_SIMD` value the kernel does not accept is rejected before
/// the body runs (exit 1, naming the accepted values): a typo must not
/// silently measure or regenerate on the detected backend.
///
/// Exit codes: `0` success, `2` for [`BenchError::NoData`] ("nothing to
/// check" — e.g. `trend_check` on a missing trend store or one with no
/// comparable rows), `1` for every other error.
pub fn run_main(name: &str, body: impl FnOnce() -> Result<(), BenchError>) -> ExitCode {
    let checked = ecost_sim::SimdBackend::env_override()
        .map_err(BenchError::Invalid)
        .and_then(|_| body());
    match checked {
        Ok(()) => ExitCode::SUCCESS,
        Err(e @ BenchError::NoData(_)) => {
            eprintln!("{name}: {e} (exit 2: nothing to gate, not a failure)");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}
