//! Property checks on session records.
//!
//! Nothing here compares against stored output: every check is a
//! property the tuning method must have, so the checks hold on any seed.
//! Per record:
//!
//! - `best_secs` is the minimum `score_secs` over the record's own
//!   trials, and the evaluation count is the number of trials;
//! - the budget is spent, and no round starts after it ran out: the
//!   trials charged after the crossing one belong to its round (the
//!   primer round, or a search round of at most `--batch` candidates),
//!   and are counted as `overspent_trials`;
//! - the best configuration parses with `JvmConfig::parse_args`,
//!   validates against the registry, and `FlagTree::enforce` leaves it
//!   unchanged;
//! - with `--model`, the surrogate refitted and screened something.
//!
//! `--table` also checks the `e1_specjvm` table against the records.
//!
//! Records come as the archival TSV of [`SessionRecord::to_tsv`]; `run.py`
//! converts `jtune tune --json` records to it and checks the JSON-only
//! fields itself, because `jtune_util::json::parse` takes seconds on a
//! record line of a few hundred kilobytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use jtune_flags::JvmConfig;
use jtune_harness::{SessionRecord, TrialRecord};
use jtune_util::json::JsonObject;

use crate::Args;

/// Errors listed in the summary before it is cut short.
const MAX_LISTED: usize = 20;

pub fn main(args: &Args) -> Result<(), String> {
    let batch: u64 = args.num("--batch")?;
    let records = load_dir(&args.path("--tsv")?)?;
    let mut errors = Vec::new();
    let mut overspent = 0u64;
    for record in &records {
        let (errs, over) = check_record(record, batch, args.flag("--model"));
        overspent += over;
        errors.extend(errs);
    }
    if let Some(table) = args.opt("--table") {
        let text = std::fs::read_to_string(table).map_err(|e| format!("{table}: {e}"))?;
        errors.extend(check_table(&text, &records));
    }
    let improvements: f64 = records.iter().map(|r| r.improvement_percent()).sum();
    let listed: Vec<String> = errors.iter().take(MAX_LISTED).cloned().collect();
    println!(
        "{}",
        JsonObject::new()
            .u64("sessions", records.len() as u64)
            .u64("errors", errors.len() as u64)
            .u64("evaluations", records.iter().map(|r| r.evaluations).sum())
            .f64("improvement_sum", improvements)
            .u64("overspent_trials", overspent)
            .u64("model_fits", records.iter().map(|r| r.model_fits).sum())
            .str_array("listed", &listed)
            .finish()
    );
    Ok(())
}

/// Every `*.tsv` record under `dir` and its subdirectories, in path
/// order.
fn load_dir(dir: &Path) -> Result<Vec<SessionRecord>, String> {
    let mut paths = Vec::new();
    collect(dir, &mut paths)?;
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            SessionRecord::from_tsv(&text)
                .ok_or_else(|| format!("{}: not a session record", p.display()))
        })
        .collect()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "tsv") {
            out.push(path);
        }
    }
    Ok(())
}

/// The property checks on one record: its errors, and how many trials
/// were charged after the one that spent the budget.
fn check_record(r: &SessionRecord, batch: u64, model: bool) -> (Vec<String>, u64) {
    let mut errors = Vec::new();
    let mut fail = |what: String| errors.push(format!("{}: {what}", r.program));

    let min_score = r
        .trials
        .iter()
        .filter_map(|t| t.score_secs)
        .fold(f64::INFINITY, f64::min);
    if r.best_secs != min_score {
        fail(format!(
            "best_secs {} is not the trials' minimum {min_score}",
            r.best_secs
        ));
    }
    if r.evaluations != r.trials.len() as u64 {
        fail(format!(
            "{} evaluations but {} trials",
            r.evaluations,
            r.trials.len()
        ));
    }

    let budget = r.budget_mins * 60.0;
    let overspent = match r.trials.iter().position(|t| t.at_secs >= budget) {
        None => {
            fail(format!("budget of {budget} s never spent"));
            0
        }
        Some(crossing) => {
            let after = (r.trials.len() - 1 - crossing) as u64;
            let primer = |t: &TrialRecord| t.technique == "primer";
            let same_round = if primer(&r.trials[crossing]) {
                r.trials[crossing..].iter().all(primer)
            } else {
                after < batch
            };
            if !same_round {
                fail(format!(
                    "{after} trials charged after the budget ran out (batch {batch})"
                ));
            }
            after
        }
    };

    let registry = jtune_flags::hotspot_registry();
    match JvmConfig::parse_args(registry, &r.best_delta) {
        Err(e) => fail(format!("best configuration does not parse: {e}")),
        Ok(config) => {
            if let Err(e) = config.validate(registry) {
                fail(format!("best configuration does not validate: {e}"));
            }
            let mut enforced = config.clone();
            jtune_flagtree::hotspot_tree().enforce(registry, &mut enforced);
            if enforced != config {
                fail("best configuration changes under FlagTree::enforce".into());
            }
        }
    }

    if model && (r.model_fits == 0 || r.screened == 0) {
        fail(format!(
            "model session with {} fits and {} screened",
            r.model_fits, r.screened
        ));
    }
    (errors, overspent)
}

/// The `e1_specjvm` table's improvement and evaluation columns must show
/// each record's own values.
fn check_table(text: &str, records: &[SessionRecord]) -> Vec<String> {
    let rows: BTreeMap<&str, Vec<&str>> = text
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            (cells.len() >= 5).then(|| (cells[0], cells))
        })
        .collect();
    let mut errors = Vec::new();
    for r in records {
        let expected = [
            jtune_util::table::fpct(r.improvement_percent()),
            r.evaluations.to_string(),
        ];
        match rows.get(r.program.as_str()) {
            Some(cells) if cells[3] == expected[0] && cells[4] == expected[1] => {}
            Some(cells) => errors.push(format!(
                "{}: table shows {} / {}, record gives {} / {}",
                r.program, cells[3], cells[4], expected[0], expected[1]
            )),
            None => errors.push(format!("{}: missing from the table", r.program)),
        }
    }
    errors
}
