//! # oipa-cli
//!
//! A command-line driver for the full OIPA pipeline, file-based so each
//! stage can be cached and re-run independently:
//!
//! ```text
//! oipa-cli generate --dataset lastfm --out-graph g.bin --out-probs p.bin
//! oipa-cli import   --edges graph.txt --out-graph g.bin               # SNAP-style text
//! oipa-cli stats    --graph g.bin [--probs p.bin]
//! oipa-cli sample   --graph g.bin --probs p.bin --ell 3 --theta 100000 \
//!                   --out-pool pool.bin --out-campaign campaign.json
//! oipa-cli solve    --pool pool.bin --method bab-p --k 20 --ratio 0.5 \
//!                   --out-plan plan.json
//! oipa-cli simulate --graph g.bin --probs p.bin --campaign campaign.json \
//!                   --plan plan.json --ratio 0.5 --runs 500
//! oipa-cli batch    --requests requests.jsonl --graph g.bin --probs p.bin \
//!                   --out responses.jsonl
//! ```
//!
//! `solve`, `simulate`, and `batch` run through the `PlannerService`
//! session engine (`oipa-service`): `batch` in particular streams JSONL
//! requests through one session, so its pool arena amortizes MRR sampling
//! across every request sharing a (campaign, θ, seed) key.
//!
//! All commands are pure functions over files plus a seed, so a pipeline
//! is reproducible end to end. The library half (`run`) is unit-testable;
//! `main.rs` is a thin shim.
//!
//! Exit codes: `0` success, `2` user error (bad flags or request fields,
//! with a "did you mean" hint for typo'd flags), `1` environment (I/O)
//! failure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod commands;
mod opts;

pub use commands::run;
pub use opts::{CliError, ParsedArgs};

/// Entry point used by the binary: parses, runs, prints. Returns the
/// process exit code: `0` on success, `2` for user errors, `1` for
/// environment failures (see [`oipa_core::OipaError::exit_code`]).
pub fn main_with_args(args: Vec<String>) -> i32 {
    match opts::ParsedArgs::parse(args) {
        Ok(parsed) => match commands::run(&parsed) {
            Ok(report) => emit(&mut std::io::stdout().lock(), &report),
            Err(e) => {
                eprintln!("error: {e}");
                e.exit_code()
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n{}", opts::USAGE);
            2
        }
    }
}

/// Prints a command's report and returns the exit code. A reader that
/// closed the pipe early (`oipa-cli store ls | head -1`) already has what
/// it wanted, so a broken pipe is a quiet success; any other write
/// failure is an environment error (exit 1).
fn emit(out: &mut impl std::io::Write, report: &str) -> i32 {
    match writeln!(out, "{report}").and_then(|()| out.flush()) {
        Ok(()) => 0,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: writing the report: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::emit;
    use std::io::{self, ErrorKind, Write};

    /// A sink whose writes all fail with one error kind.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::from(self.0))
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::from(self.0))
        }
    }

    #[test]
    fn a_closed_pipe_is_a_quiet_exit_and_other_write_errors_are_not() {
        let mut out = Vec::new();
        assert_eq!(emit(&mut out, "report"), 0);
        assert_eq!(out, b"report\n");
        assert_eq!(emit(&mut Failing(ErrorKind::BrokenPipe), "report"), 0);
        assert_eq!(emit(&mut Failing(ErrorKind::StorageFull), "report"), 1);
    }
}
