//! The traced per-layer run.
//!
//! Replays in this process the sessions an untraced end-to-end run just
//! made as subprocesses, with timing wrapped around each layer's public
//! entry points:
//!
//! - a timing [`Executor`] around the simulator stack (`jvmsim`);
//! - a span-collecting [`TuningObserver`] on the session bus, which
//!   reads the existing `propose` / `screen` / `fit` / `measure` /
//!   `trial` / `checkpoint` spans (`core`, `model`, `harness`);
//! - a timing observer around the JSONL trace sink (`telemetry`);
//! - timed calls to `jtune_report::load` and `render` (`report`).
//!
//! The replay runs the plan's jobs (whole `e1_specjvm` runs, or single
//! sessions) `--clients` at a time, as the end-to-end load does. With
//! `--plain` it runs them with spans off and no timing executor or
//! observers, so the traced replay's wall time minus the plain one's is the tracing
//! overhead, with both run the same way. Spans never change results, so
//! each replayed record must equal the untraced run's record byte for
//! byte; a mismatch is reported.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use autotuner_core::{ModelPolicy, Tuner, TunerOptions};
use jtune_flags::{JvmConfig, Registry};
use jtune_harness::{Executor, ExecutorSpec, Measurement};
use jtune_telemetry::{phase, JsonlSink, TelemetryBus, TraceEvent, TuningObserver};
use jtune_util::json::JsonObject;
use jtune_util::SimDuration;

use crate::{mean, Args};

/// The paper's budget, virtual minutes.
const BUDGET_MINS: u64 = 200;

pub fn main(args: &Args) -> Result<(), String> {
    let workload = args.req("--workload")?;
    let traced = match workload {
        "spec_plain" | "dacapo_model" => false,
        "spec_traced" => true,
        other => return Err(format!("no in-process replay for workload {other:?}")),
    };
    let plan_path = args.req("--plan")?;
    let plan = std::fs::read_to_string(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let records = args.path("--records")?;
    let out = args.path("--out")?;
    // Jobs replayed at once: as many as the end-to-end load ran.
    let clients: usize = args.num("--clients")?;

    let jobs: Vec<&str> = plan.lines().filter(|l| !l.trim().is_empty()).collect();
    let layers = Layers {
        plain: args.flag("--plain"),
        ..Layers::default()
    };
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let outcomes: Vec<Result<(u64, Vec<String>), String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut done = (0, Vec::new());
                    while let Some(line) = jobs.get(next.fetch_add(1, Relaxed) as usize) {
                        let (sessions, mismatches) = layers.job(line, traced, &records, &out)?;
                        done.0 += sessions;
                        done.1.extend(mismatches);
                    }
                    Ok(done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut sessions = 0;
    let mut mismatches = Vec::new();
    for outcome in outcomes {
        let (n, m) = outcome?;
        sessions += n;
        mismatches.extend(m);
    }
    mismatches.sort();
    let trace_bytes = jsonl_bytes(&out);
    println!(
        "{}",
        JsonObject::new()
            .u64("sessions", sessions)
            .f64("wall_s", wall)
            .u64("mismatches", mismatches.len() as u64)
            .str_array("listed", &mismatches)
            .raw("metrics", &layers.metrics(trace_bytes))
            .finish()
    );
    Ok(())
}

/// Byte comparison of a replayed record with the untraced run's.
fn compare(expected: &Path, replayed: &str) -> Option<String> {
    match std::fs::read_to_string(expected) {
        Ok(text) if text == replayed => None,
        Ok(_) => Some(format!("{}: traced replay differs", expected.display())),
        Err(e) => Some(format!("{}: {e}", expected.display())),
    }
}

/// Total size of the `*.jsonl` traces under `dir`.
fn jsonl_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                jsonl_bytes(&path)
            } else if path.extension().is_some_and(|x| x == "jsonl") {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// Per-layer accumulators shared by every replayed session.
#[derive(Default)]
struct Layers {
    /// Replay untimed, with spans off: the baseline of the overhead.
    plain: bool,
    measure: Counter,
    span_totals: Arc<SpanTotals>,
    sink_writes: Arc<Counter>,
    fits: AtomicU64,
    report_load: Counter,
    report_bytes: AtomicU64,
    report_render: Counter,
}

impl Layers {
    /// Replay one plan line; returns its sessions and record mismatches.
    fn job(
        &self,
        line: &str,
        traced: bool,
        records: &Path,
        out: &Path,
    ) -> Result<(u64, Vec<String>), String> {
        let mut mismatches = Vec::new();
        let mut sessions = 0;
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            // One `e1_specjvm` run: the 16 SPEC sessions of a master seed,
            // records in `<records>/<dir>/<program>.tsv`.
            ["suite", seed, dir] => {
                let seed: u64 = seed.parse().map_err(|_| format!("bad seed in {line:?}"))?;
                let traces = traced.then(|| out.join(dir));
                for (i, w) in jtune_workloads::specjvm2008_startup()
                    .into_iter()
                    .enumerate()
                {
                    // The seed derivation of `jtune_experiments::tune_suite`;
                    // the record comparison below pins it.
                    let mut opts = jtune_experiments::tuner_options(
                        BUDGET_MINS,
                        seed ^ ((i as u64 + 1) << 32),
                    );
                    opts.seed ^= i as u64;
                    let expected = records.join(dir).join(format!("{}.tsv", w.name));
                    let trace = traces.as_ref().map(|d| d.join(format!("{}.jsonl", w.name)));
                    let name = w.name.clone();
                    let record = self.session(ExecutorSpec::sim(w), opts, &name, trace)?;
                    mismatches.extend(compare(&expected, &record.to_tsv()));
                    sessions += 1;
                }
                if let Some(dir) = traces {
                    self.report(&dir)?;
                }
            }
            // One `jtune tune <program> --budget 200 --model --seed S --json`
            // session, record in `<records>/<file>`.
            ["session", program, seed, file] => {
                let seed: u64 = seed.parse().map_err(|_| format!("bad seed in {line:?}"))?;
                let w = jtune_workloads::workload_by_name(program)
                    .ok_or_else(|| format!("unknown workload {program:?}"))?;
                let opts = TunerOptions::builder()
                    .budget(SimDuration::from_mins(BUDGET_MINS))
                    .seed(seed)
                    .model(ModelPolicy::default())
                    .build()
                    .map_err(|e| e.to_string())?;
                let record = self.session(ExecutorSpec::sim(w), opts, program, None)?;
                mismatches.extend(compare(&records.join(file), &(record.to_json() + "\n")));
                sessions += 1;
            }
            _ => return Err(format!("bad plan line {line:?}")),
        }
        Ok((sessions, mismatches))
    }

    /// Run one session, with every layer timed unless `plain`.
    fn session(
        &self,
        spec: ExecutorSpec,
        opts: TunerOptions,
        program: &str,
        trace: Option<std::path::PathBuf>,
    ) -> Result<jtune_harness::SessionRecord, String> {
        let sim = spec.build();
        let timed = TimedExecutor {
            inner: &*sim,
            counter: &self.measure,
        };
        let executor: &dyn Executor = if self.plain { &*sim } else { &timed };
        let mut bus = TelemetryBus::new().with_spans(!self.plain);
        if !self.plain {
            bus.add(Arc::new(Spans {
                totals: Arc::clone(&self.span_totals),
                last_fit: Mutex::new(0.0),
            }));
        }
        if let Some(path) = trace {
            let sink = JsonlSink::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if self.plain {
                bus.add(Arc::new(sink));
            } else {
                bus.add(Arc::new(TimedSink {
                    inner: sink,
                    counter: Arc::clone(&self.sink_writes),
                }));
            }
        }
        let result = Tuner::new(opts).run(executor, program, &bus);
        drop(bus);
        self.fits.fetch_add(result.session.model_fits, Relaxed);
        Ok(result.session)
    }

    /// Load and render a trace directory's report twice: to `report.md`,
    /// as `e1_specjvm` does after its sessions, and to JSON, as the
    /// offline `jtune report --format json` of the workload does.
    fn report(&self, dir: &Path) -> Result<(), String> {
        for format in [jtune_report::Format::Markdown, jtune_report::Format::Json] {
            let bytes = jsonl_bytes(dir);
            let start = Instant::now();
            let report = jtune_report::load(dir)?;
            self.report_load.add(start.elapsed());
            self.report_bytes.fetch_add(bytes, Relaxed);
            let start = Instant::now();
            let page = jtune_report::render(&report, format);
            self.report_render.add(start.elapsed());
            if format == jtune_report::Format::Markdown {
                std::fs::write(dir.join("report.md"), page).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn metrics(&self, trace_bytes: u64) -> String {
        let spans = self.span_totals.lock().expect("span totals poisoned");
        let phase_mean = |name: &str, scale: f64| {
            spans
                .get(name)
                .map_or(0.0, |&(count, secs)| mean(secs, count) * scale)
        };
        let load_secs = self.report_load.secs();
        JsonObject::new()
            .u64("jvmsim.measure_calls", self.measure.count())
            .f64("jvmsim.measure_us", self.measure.mean_secs() * 1e6)
            .f64("core.propose_ms", phase_mean(phase::PROPOSE, 1e3))
            .f64("harness.trial_us", phase_mean(phase::TRIAL, 1e6))
            .f64("harness.batch_ms", phase_mean(phase::MEASURE, 1e3))
            .f64("harness.checkpoint_ms", phase_mean(phase::CHECKPOINT, 1e3))
            .u64("model.fits", self.fits.load(Relaxed))
            .f64("model.fit_ms", phase_mean(phase::FIT, 1e3))
            .f64("model.screen_ms", phase_mean(SCREEN_SELF, 1e3))
            .u64("telemetry.events", self.sink_writes.count())
            .f64("telemetry.write_us", self.sink_writes.mean_secs() * 1e6)
            .f64("telemetry.trace_mb", trace_bytes as f64 / 1e6)
            .f64("report.load_s", self.report_load.mean_secs())
            .f64(
                "report.load_mb_per_s",
                if load_secs > 0.0 {
                    self.report_bytes.load(Relaxed) as f64 / 1e6 / load_secs
                } else {
                    0.0
                },
            )
            .f64("report.render_ms", self.report_render.mean_secs() * 1e3)
            .finish()
    }
}

/// Count and total wall time of some timed call.
#[derive(Default)]
struct Counter {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl Counter {
    fn add(&self, elapsed: std::time::Duration) {
        self.count.fetch_add(1, Relaxed);
        self.nanos.fetch_add(elapsed.as_nanos() as u64, Relaxed);
    }

    fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    fn secs(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 / 1e9
    }

    fn mean_secs(&self) -> f64 {
        mean(self.secs(), self.count())
    }
}

/// The `jvmsim` layer: wall time of every `measure` call on the stack.
struct TimedExecutor<'a> {
    inner: &'a dyn Executor,
    counter: &'a Counter,
}

impl Executor for TimedExecutor<'_> {
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement {
        let start = Instant::now();
        let m = self.inner.measure(config, seed);
        self.counter.add(start.elapsed());
        m
    }

    fn registry(&self) -> &Registry {
        self.inner.registry()
    }

    fn fixed_overhead(&self) -> SimDuration {
        self.inner.fixed_overhead()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Key under which [`Spans`] keeps the screen phase's self time.
const SCREEN_SELF: &str = "screen.self";

/// Count and total seconds per span phase, over every session.
type SpanTotals = Mutex<BTreeMap<String, (u64, f64)>>;

/// One session's span collector. The `fit` span nests inside `screen`,
/// so the screen's self time is its span minus that fit.
struct Spans {
    totals: Arc<SpanTotals>,
    last_fit: Mutex<f64>,
}

impl TuningObserver for Spans {
    fn on_event(&self, event: &TraceEvent) {
        let TraceEvent::PhaseEnded {
            phase,
            elapsed_secs,
            ..
        } = event
        else {
            return;
        };
        let mut last_fit = self.last_fit.lock().expect("fit time poisoned");
        let mut totals = self.totals.lock().expect("span totals poisoned");
        let mut add = |name: &str, secs: f64| {
            let e = totals.entry(name.to_string()).or_default();
            e.0 += 1;
            e.1 += secs;
        };
        add(phase, *elapsed_secs);
        if phase == phase::FIT {
            *last_fit = *elapsed_secs;
        } else if phase == phase::SCREEN {
            add(SCREEN_SELF, elapsed_secs - *last_fit);
            *last_fit = 0.0;
        }
    }
}

/// The `telemetry` layer: wall time of every event the JSONL sink writes.
struct TimedSink {
    inner: JsonlSink,
    counter: Arc<Counter>,
}

impl TuningObserver for TimedSink {
    fn on_event(&self, event: &TraceEvent) {
        if event.is_ephemeral() {
            return;
        }
        let start = Instant::now();
        self.inner.on_event(event);
        self.counter.add(start.elapsed());
    }

    fn flush(&self) {
        self.inner.flush();
    }
}
