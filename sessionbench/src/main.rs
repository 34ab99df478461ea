//! `sessionbench`: the compiled half of the session benchmark.
//!
//! `run.py` drives the end-to-end runs through the `jtune` and
//! `e1_specjvm` binaries and calls this program for the parts that need
//! the libraries' public API:
//!
//! - `check`: property checks on the session records a run produced;
//! - `layers`: the traced in-process replay of a run's sessions, which
//!   times calls into each layer and reports the per-layer metrics;
//! - `ready` / `daemon`: the daemon workload's readiness probe and its
//!   closed-loop client load over the wire `Client`.
//!
//! Every subcommand prints one JSON object on stdout.

mod check;
mod daemon;
mod layers;

use std::path::PathBuf;

const USAGE: &str = "usage:
  sessionbench check --tsv DIR --batch N [--model] [--table FILE]
  sessionbench layers --workload spec_plain|spec_traced|dacapo_model
                      --clients N --plan FILE --records DIR --out DIR [--plain]
  sessionbench ready --addr HOST:PORT
  sessionbench daemon --addr HOST:PORT --seed N --rounds N --budget MIN
                      --out DIR [--stats]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let outcome = match args.first().map(String::as_str) {
        Some("check") => check::main(&Args(rest)),
        Some("layers") => layers::main(&Args(rest)),
        Some("ready") => daemon::ready(&Args(rest)),
        Some("daemon") => daemon::main(&Args(rest)),
        _ => Err(USAGE.to_string()),
    };
    if let Err(e) = outcome {
        eprintln!("sessionbench: {e}");
        std::process::exit(2);
    }
}

/// `--name value` command-line lookup.
pub struct Args<'a>(&'a [String]);

impl Args<'_> {
    /// The value after `--name`, if present.
    pub fn opt(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    /// The value after `--name`; an error when absent.
    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing {name}\n{USAGE}"))
    }

    /// The value after `--name`, parsed.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.req(name)?;
        raw.parse()
            .map_err(|_| format!("{name} {raw:?} is not a valid number"))
    }

    /// The value after `--name`, as a path.
    pub fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.req(name).map(PathBuf::from)
    }

    /// Is the bare flag `--name` present?
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// Mean of `sum` over `count`, 0 when nothing was counted.
pub fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}
