//! The daemon workload's client side, over the wire [`Client`].
//!
//! `ready` waits until a freshly started daemon has a registered worker.
//! `daemon` is the closed-loop load: two threads, one connection each,
//! loop submit → watch → result over short sessions. The sessions come
//! in `--rounds` rounds; each round is a seeded order of [`MIX`], with
//! session seeds derived from `--seed`, so a run's sessions are a pure
//! function of its seed.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jtune_server::{Client, SessionSpec, WireError};
use jtune_util::json::{JsonObject, JsonValue};
use jtune_util::{Rng, SplitMix64};

use crate::{mean, Args};

/// The programs of one round: SPEC and DaCapo, small and large live sets.
pub const MIX: [&str; 8] = [
    "spec:compress",
    "spec:serial",
    "spec:crypto.aes",
    "spec:xml.transform",
    "dacapo:h2",
    "dacapo:avrora",
    "dacapo:jython",
    "dacapo:luindex",
];

/// Client connections (and threads) of the load.
const CONNECTIONS: usize = 2;

pub fn ready(args: &Args) -> Result<(), String> {
    let addr = args.req("--addr")?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let registered = Client::connect(addr)
            .ok()
            .and_then(|mut c| c.stats(None).ok())
            .and_then(|s| {
                s.get("server")?
                    .get("counters")?
                    .get("workers_registered")?
                    .as_u64()
            })
            .unwrap_or(0);
        if registered > 0 {
            println!("{{\"ready\":true}}");
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("no worker registered at {addr} within 30 s"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One session of the load: where its record goes and what it asked for.
struct Planned {
    file: String,
    spec: SessionSpec,
}

/// What the client saw of one session.
struct Timing {
    session_s: f64,
    submit_s: f64,
    queue_wait_s: Option<f64>,
    result_s: f64,
}

/// Shared by the two client threads.
#[derive(Default)]
struct Load {
    /// (round, index within it) of the next session to hand out.
    next: (u64, usize),
    done: Vec<(Planned, Timing)>,
    /// Requests sent, `overloaded` rejections included.
    attempted: u64,
    /// Requests that failed or were refused as `overloaded`.
    failed: u64,
    overloaded: u64,
    listed: Vec<String>,
}

pub fn main(args: &Args) -> Result<(), String> {
    let addr = args.req("--addr")?;
    let seed: u64 = args.num("--seed")?;
    let rounds: u64 = args.num("--rounds")?;
    let budget: u64 = args.num("--budget")?;
    let out = args.path("--out")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let load = Mutex::new(Load::default());
    let start = Instant::now();
    let plan = |load: &mut Load| -> Option<Planned> {
        if load.next.1 == MIX.len() {
            load.next = (load.next.0 + 1, 0);
        }
        let (round, index) = load.next;
        if round == rounds {
            return None;
        }
        load.next.1 += 1;
        let mut order = MIX;
        let mut rng = SplitMix64::new(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.shuffle(&mut order);
        let mut spec = SessionSpec::new(order[index]);
        spec.budget_mins = budget;
        spec.seed = (rng.next_u64() ^ index as u64) % 1_000_000_007;
        Some(Planned {
            file: format!("{round:04}-{index}.json"),
            spec,
        })
    };
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| client_loop(addr, &out, &load, &plan));
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let load = load.into_inner().expect("load state poisoned");

    let timings: Vec<&Timing> = load.done.iter().map(|(_, t)| t).collect();
    let mut sessions: Vec<f64> = timings.iter().map(|t| t.session_s).collect();
    sessions.sort_by(f64::total_cmp);
    let waits: Vec<f64> = timings.iter().filter_map(|t| t.queue_wait_s).collect();
    let n = timings.len() as u64;
    // What each record file asked for, so the one-shot replay can check it.
    let specs: Vec<String> = load
        .done
        .iter()
        .map(|(p, _)| {
            JsonObject::new()
                .str("file", &p.file)
                .str("program", &p.spec.program)
                .u64("budget", p.spec.budget_mins)
                .u64("seed", p.spec.seed)
                .finish()
        })
        .collect();
    let mut metrics = JsonObject::new()
        .f64(
            "server.submit_ms",
            mean(timings.iter().map(|t| t.submit_s).sum(), n) * 1e3,
        )
        .f64(
            "server.result_ms",
            mean(timings.iter().map(|t| t.result_s).sum(), n) * 1e3,
        )
        .f64(
            "server.queue_wait_ms",
            mean(waits.iter().sum(), waits.len() as u64) * 1e3,
        )
        .f64("server.session_p50_s", median(&sessions));
    if args.flag("--stats") {
        let stats = Client::connect(addr)
            .map_err(|e| format!("{addr}: {e}"))?
            .stats(None)
            .map_err(|e| e.to_string())?;
        metrics = daemon_layers(metrics, &stats, wall);
    }
    println!(
        "{}",
        JsonObject::new()
            .u64("sessions", n)
            .f64("wall_s", wall)
            .u64("attempted", load.attempted)
            .u64("failed", load.failed)
            .u64("overloaded_retries", load.overloaded)
            .str_array("listed", &load.listed)
            .raw("specs", &jtune_util::json::array_of(&specs))
            .raw("metrics", &metrics.finish())
            .finish()
    );
    Ok(())
}

/// Lower median of sorted values (0 when empty).
fn median(sorted: &[f64]) -> f64 {
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

/// One connection's closed loop: take the next planned session, run it
/// to its record, repeat until the plan runs dry.
fn client_loop(
    addr: &str,
    out: &Path,
    load: &Mutex<Load>,
    plan: &(dyn Fn(&mut Load) -> Option<Planned> + Sync),
) {
    let mut client = None;
    loop {
        let next = plan(&mut load.lock().expect("load state poisoned"));
        let Some(planned) = next else {
            return;
        };
        let mut requests = 0u64;
        let mut overloaded = 0u64;
        let outcome = run_session(
            addr,
            &mut client,
            &planned.spec,
            &mut requests,
            &mut overloaded,
        );
        let mut load = load.lock().expect("load state poisoned");
        load.attempted += requests;
        load.failed += overloaded;
        load.overloaded += overloaded;
        let saved = outcome.and_then(|(timing, record)| {
            std::fs::write(out.join(&planned.file), record + "\n")
                .map_err(|e| WireError::new("io-error", e.to_string()))?;
            Ok(timing)
        });
        match saved {
            Ok(timing) => load.done.push((planned, timing)),
            Err(e) => {
                load.failed += 1;
                load.listed.push(format!("{}: {}", planned.file, e.code));
                client = None;
            }
        }
    }
}

/// Submit → watch → result for one session on this thread's connection
/// (reconnecting after a failure). `overloaded` rejections are retried
/// after the daemon's hint; every request sent is counted.
fn run_session(
    addr: &str,
    client: &mut Option<Client>,
    spec: &SessionSpec,
    requests: &mut u64,
    overloaded: &mut u64,
) -> Result<(Timing, String), WireError> {
    if client.is_none() {
        let c =
            Client::connect(addr).map_err(|e| WireError::new("connect-error", e.to_string()))?;
        *client = Some(c);
    }
    let c = client.as_mut().expect("connected above");
    let start = Instant::now();
    let sid = loop {
        *requests += 1;
        match c.submit(spec.clone()) {
            Err(e) if e.code == "overloaded" => {
                *overloaded += 1;
                let wait = e.retry_after_ms.unwrap_or(10).max(1);
                std::thread::sleep(Duration::from_millis(wait));
            }
            other => break other?,
        }
    };
    let submitted = Instant::now();
    let mut first_event = None;
    *requests += 1;
    c.watch(sid, |_| {
        first_event.get_or_insert_with(Instant::now);
    })?;
    let watched = Instant::now();
    *requests += 1;
    let record = c.result(sid)?;
    let end = Instant::now();
    Ok((
        Timing {
            session_s: (end - start).as_secs_f64(),
            submit_s: (submitted - start).as_secs_f64(),
            queue_wait_s: first_event.map(|t| (t - submitted).as_secs_f64()),
            result_s: (end - watched).as_secs_f64(),
        },
        record,
    ))
}

/// Per-layer figures from the daemon's own `stats` (it runs with
/// `serve --spans`): frame handling, leases, and the per-session phase
/// spans summed over every session.
fn daemon_layers(metrics: JsonObject, stats: &JsonValue, wall: f64) -> JsonObject {
    let server = stats.get("server");
    let counter = |name: &str| {
        server
            .and_then(|s| s.get("counters")?.get(name)?.as_u64())
            .unwrap_or(0)
    };
    let frame = server.and_then(|s| s.get("wall")?.get("frame_wall"));
    let (frame_n, frame_s) = count_sum(frame);
    let leased = counter("trials_leased");
    // Sum one wall histogram over every session row.
    let phase = |name: &str| {
        let (n, secs) = stats
            .get("sessions")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|row| count_sum(row.get("metrics").and_then(|m| m.get("wall")?.get(name))))
            .fold((0, 0.0), |(n, s), (dn, ds)| (n + dn, s + ds));
        mean(secs, n)
    };
    metrics
        .u64("jvmsim.measure_calls", leased)
        .f64("server.lease_ms", mean(wall, leased) * 1e3)
        .f64("server.frame_us", mean(frame_s, frame_n) * 1e6)
        .f64("core.propose_ms", phase("phase_propose") * 1e3)
        .f64("harness.trial_us", phase("trial_wall") * 1e6)
        .f64("harness.batch_ms", phase("batch_wall") * 1e3)
        .f64("harness.checkpoint_ms", phase("phase_checkpoint") * 1e3)
}

/// `count` and `sum` of a wall histogram (zeros when absent).
fn count_sum(h: Option<&JsonValue>) -> (u64, f64) {
    h.map_or((0, 0.0), |h| {
        (
            h.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
            h.get("sum").and_then(JsonValue::as_f64).unwrap_or(0.0),
        )
    })
}
