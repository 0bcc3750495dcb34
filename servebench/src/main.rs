//! Served-conversation benchmark for the OBCS engine.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload followup-60 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Starts a real `obcs-serve` server in this process, drives the Table 5
//! intent mix at it over loopback, and checks every served reply against
//! an in-process replay of the same sessions. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the same served phase, then the
//! traced replays, and prints the per-layer metrics. The last line of
//! standard output is one JSON object; a human-readable summary goes to
//! standard error. The exit code is 1 when a check fails and 2 on bad
//! arguments. Workloads, metrics and their predicted links are described
//! in `servebench/README.md`.

mod conversation;
mod pin;
mod replay;
mod served;
mod stats;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use obcs_agent::ConversationAgent;
use obcs_faults::ResilienceConfig;
use obcs_mdx::ConversationalMdx;
use obcs_serve::protocol::{decode_request, decode_response, encode_line};
use obcs_serve::ServeConfig;
use obcs_telemetry::{stage, CollectingRecorder};

use crate::conversation::Transcript;
use crate::replay::Hits;
use crate::served::{world_config, ServedRun, WireStats};
use crate::stats::{median, proc_status_mb, quantile, ratio};
use crate::workload::{Shape, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A fresh world with the serving resilience policy `Server::start`
/// installs, so in-process replies match served ones.
fn fresh_base(w: &Workload) -> ConversationAgent {
    let mut agent = ConversationalMdx::with_config(world_config(w)).agent;
    if let Some(budget) = ServeConfig::default().turn_budget {
        agent.set_resilience(ResilienceConfig {
            turn_budget: Some(budget),
            ..ResilienceConfig::serving()
        });
    }
    agent
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Failed checks, each a one-line reason.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.0.push(why());
        }
    }

    /// A replay's transcripts, reply digests included, must equal the
    /// served ones of the connections it replayed.
    fn same_replies(&mut self, pass: &str, served: &ServedRun, replayed: &[Transcript]) {
        self.require(!replayed.is_empty(), || format!("{pass}: nothing replayed"));
        for (c, got) in replayed.iter().enumerate() {
            let want = served.transcripts.get(c);
            self.require(want == Some(got), || {
                format!("{pass}: connection {c} replayed {got:?}, served {want:?}")
            });
        }
    }
}

/// Totals over the timed phase of a served run.
struct Timed {
    turns: usize,
    questions: usize,
    latencies_ms: Vec<f64>,
    fulfilment: usize,
}

fn timed(served: &ServedRun) -> Timed {
    let latencies_ms: Vec<f64> = served
        .wires
        .iter()
        .flat_map(|wire| &wire.latencies_ns)
        .map(|&ns| if ns == u32::MAX { f64::INFINITY } else { ns as f64 / 1e6 })
        .collect();
    let ts = &served.transcripts;
    Timed {
        turns: latencies_ms.len(),
        questions: ts.iter().map(|t| t.timed_questions).sum(),
        latencies_ms,
        fulfilment: ts.iter().map(|t| t.fulfilment_timed).sum(),
    }
}

/// Every timed completion, µs after the common start, ascending.
fn completions(wires: &[WireStats]) -> Vec<u32> {
    let mut done: Vec<u32> = wires.iter().flat_map(|w| w.done_us.iter().copied()).collect();
    done.sort_unstable();
    done
}

/// Timed turns answered in each second, the last entry being the tail
/// past the deadline.
fn per_second(wires: &[WireStats], seconds: u64) -> Vec<usize> {
    let mut counts = vec![0; seconds as usize + 1];
    for us in completions(wires) {
        counts[((us / 1_000_000) as usize).min(seconds as usize)] += 1;
    }
    counts
}

/// Checks every run makes: no failed turn, the world's size, and the
/// workload's shape.
fn shape_checks(w: &Workload, served: &ServedRun, t: &Timed, checks: &mut Checks) {
    for (c, t) in served.transcripts.iter().enumerate() {
        checks.require(t.failed == 0 && t.error.is_none(), || {
            format!("connection {c}: {} failed turns ({:?})", t.failed, t.error)
        });
    }
    checks.require(served.kb_rows == w.kb_rows && served.drug_rows == w.drug_rows, || {
        format!(
            "world holds {} rows ({} drugs); {} drugs should give {} rows ({} drugs)",
            served.kb_rows, served.drug_rows, w.drugs, w.kb_rows, w.drug_rows
        )
    });
    checks.require(t.turns > 0, || "no timed turns".to_string());
    checks.0.extend(served.pin_errors.iter().map(|e| format!("pinning: {e}")));
    checks.require(served.evictions_timed == 0, || {
        format!("the server evicted {} sessions in the timed phase", served.evictions_timed)
    });
    let opens = served.opens_timed as usize;
    match w.shape {
        Shape::Followup => checks.require(opens == 0, || {
            format!("the server opened {opens} sessions in the timed phase of a follow-up workload")
        }),
        Shape::Open => {
            checks.require(opens == t.questions, || {
                format!("the server opened {opens} sessions for {} timed questions", t.questions)
            });
            checks.require(2 * opens > t.turns, || {
                format!("only {opens} of {} timed turns are first contacts", t.turns)
            });
        }
    }
    if w.name == "followup-15k" {
        checks.require(2 * t.fulfilment > t.turns, || {
            format!("only {} of {} timed turns are fulfilment", t.fulfilment, t.turns)
        });
    }
}

fn memo_hits(agent: &ConversationAgent) -> Hits {
    let memo = agent.cache_stats().1;
    let mut hits = Hits::default();
    hits.add(memo.classify);
    hits.add(memo.recognize);
    hits
}

fn cache_line(kb_result: Hits, kb_plan: Hits, memo: Hits) -> String {
    format!(
        "cache hits: kb result {}/{} ({:.3}), kb plan {}/{} ({:.3}), nlu memo {}/{} ({:.3})",
        kb_result.hits,
        kb_result.lookups,
        kb_result.ratio(),
        kb_plan.hits,
        kb_plan.lookups,
        kb_plan.ratio(),
        memo.hits,
        memo.lookups,
        memo.ratio()
    )
}

/// `--trace 0`: the end-to-end metrics, gated by a fork-path replay made
/// after the timed phase and the memory reading.
fn end_to_end(
    w: &Workload,
    args: &Args,
    served: &ServedRun,
    t: &Timed,
    peak_rss_mb: f64,
    checks: &mut Checks,
) -> Vec<Metric> {
    let base = fresh_base(w);
    let all = (w.connections, w.connections);
    let replayed = replay::forks(w, &base, served, args.seed, all, None);
    checks.same_replies("fork replay", served, &replayed.transcripts);
    eprintln!("{}", cache_line(replayed.kb_result, replayed.kb_plan, memo_hits(&base)));
    vec![
        metric("setup_s", median(&served.setup_s), "s"),
        metric("turns_per_s", ratio(t.turns as f64, served.timed_wall_s), "1/s"),
        metric("turn_p50_ms", quantile(&t.latencies_ms, 0.50), "ms"),
        metric("turn_p90_ms", quantile(&t.latencies_ms, 0.90), "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// `--trace 1`: the per-layer metrics from three in-process replays of
/// the served sessions, each on a fresh world so caches start as cold
/// as the served run's did.
fn per_layer(
    w: &Workload,
    seed: u64,
    served: &ServedRun,
    t: &Timed,
    checks: &mut Checks,
) -> Vec<Metric> {
    // Stage spans, counters and cache statistics: one thread, collecting.
    let mut base = fresh_base(w);
    let recorder = Arc::new(CollectingRecorder::wall());
    base.set_recorder(recorder.clone());
    let traced = replay::forks(w, &base, served, seed, (w.connections, 1), Some(&recorder));
    checks.same_replies("traced fork replay", served, &traced.transcripts);
    let memo = memo_hits(&base);
    let (scan_share, bound) = replay::scan_plan_share(&base, &served.pools, seed);
    eprintln!("{}", cache_line(traced.kb_result, traced.kb_plan, memo));
    eprintln!("kb.scan_plan_share over {bound} bound templates");
    drop(base);

    // The first connection's replay again, untraced, for the tracing
    // overhead.
    let base = fresh_base(w);
    let untraced = replay::forks(w, &base, served, seed, (1, 1), None);
    checks.same_replies("untraced fork replay", served, &untraced.transcripts);
    drop(base);

    // The session layer: `SessionTable::turn` on the workload's threads.
    let tabled = replay::table(w, fresh_base(w), served, seed, &traced.fork_ns);
    checks.same_replies("session-table replay", served, &tabled.transcripts);
    checks.require((tabled.opens_timed, tabled.evictions_timed) == (served.opens_timed, 0), || {
        format!(
            "session-table replay opened {} and evicted {} sessions in the timed phase; \
             the server opened {}",
            tabled.opens_timed, tabled.evictions_timed, served.opens_timed
        )
    });

    // The codec over the captured lines.
    let lines: Vec<&(String, String)> = served.wires.iter().flat_map(|w| &w.lines).collect();
    let mut codec_ns = 0u128;
    let mut bytes = 0usize;
    for (request, reply) in &lines {
        bytes += request.len() + reply.len();
        let response = decode_response(reply).expect("served reply decodes");
        let t0 = Instant::now();
        let decoded = decode_request(request);
        let encoded = encode_line(&response);
        codec_ns += t0.elapsed().as_nanos();
        checks.require(decoded.is_ok() && encoded == *reply, || {
            "a captured line does not round-trip through the codec".to_string()
        });
    }

    let s = &traced.stages;
    let us = |stage: &str| s.mean_ns(stage) / 1e3;
    let turns = s.count(stage::TURN) as f64;
    let fork_ms: Vec<f64> = traced.fork_ns.values().map(|&ns| ns as f64 / 1e6).collect();
    let served_p50 = quantile(&t.latencies_ms, 0.50);
    vec![
        metric("serve.wire_ms_p50", served_p50 - quantile(&tabled.turn_ms, 0.50), "ms"),
        metric("serve.codec_us_per_turn", ratio(codec_ns as f64 / 1e3, lines.len() as f64), "us"),
        metric("serve.bytes_per_turn", ratio(bytes as f64, lines.len() as f64), "bytes"),
        metric("session.open_ms_p50", median(&fork_ms), "ms"),
        metric("session.admit_ms_p50", median(&tabled.admit_ms), "ms"),
        metric("session.table_us_p50", median(&tabled.table_us), "us"),
        metric("session.resident_mb", tabled.resident_mb, "MB"),
        metric("session.opens_timed", served.opens_timed as f64, "count"),
        metric("engine.turn_us_mean", us(stage::TURN), "us"),
        metric("engine.self_us_mean", ratio(s.turn_self_ns as f64 / 1e3, turns), "us"),
        metric("nlu.annotate_us_mean", us(stage::ANNOTATE), "us"),
        metric("nlu.classify_us_mean", us(stage::CLASSIFY), "us"),
        metric("nlu.memo_hit_ratio", memo.ratio(), "ratio"),
        metric("dialogue.eval_us_mean", us(stage::DIALOGUE_EVAL), "us"),
        metric("nlq.interpret_us_mean", us(stage::NLQ_INTERPRET), "us"),
        metric("nlq.template_us_mean", us(stage::TEMPLATE_INSTANTIATE), "us"),
        metric("nlg.us_mean", us(stage::NLG), "us"),
        metric("kb.execute_ms_mean", s.mean_ns(stage::KB_EXECUTE) / 1e6, "ms"),
        metric(
            "kb.execute_share",
            ratio(s.total_ns(stage::KB_EXECUTE) as f64, s.total_ns(stage::TURN) as f64),
            "ratio",
        ),
        metric("kb.queries_per_turn", ratio(s.kb_queries as f64, turns), "count"),
        metric("kb.rows_per_query", ratio(s.kb_rows as f64, s.kb_queries as f64), "count"),
        metric("kb.scan_plan_share", scan_share, "ratio"),
        metric("kb.result_cache_hit_ratio", traced.kb_result.ratio(), "ratio"),
        metric("kb.plan_cache_hit_ratio", traced.kb_plan.ratio(), "ratio"),
        metric("setup.world_build_s", median(&served.build_s), "s"),
        metric("setup.server_start_s", median(&served.start_s), "s"),
        metric(
            "trace.overhead_share",
            ratio(traced.busy_ns[0] as f64, untraced.busy_ns[0] as f64) - 1.0,
            "ratio",
        ),
    ]
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let w = args.workload;
    let mut checks = Checks::default();
    // Set-ups and single-threaded replays run where connection 0 does.
    if let Err(e) = pin::pin_for(0, 0) {
        checks.0.push(format!("pinning the main thread: {e}"));
    }
    let (mut server, served) = served::run(&w, args.seed, args.seconds, args.trace);
    let peak_rss_mb = proc_status_mb("VmHWM");
    server.shutdown();
    drop(server);

    let t = timed(&served);
    shape_checks(&w, &served, &t, &mut checks);
    let metrics = if args.trace {
        per_layer(&w, args.seed, &served, &t, &mut checks)
    } else {
        end_to_end(&w, &args, &served, &t, peak_rss_mb, &mut checks)
    };
    checks.require(metrics.iter().all(|m| m.value.is_finite()), || {
        "a metric is not a finite number".to_string()
    });

    let attempted: usize = served.transcripts.iter().map(|t| t.turns).sum();
    let failed: usize = served.transcripts.iter().map(|t| t.failed).sum();
    eprintln!(
        "{} seed {} trace {}: {} turns ({} timed, {} sessions opened by the server, {} fulfilment) \
         in {:.1}s",
        w.name,
        args.seed,
        args.trace as u8,
        attempted,
        t.turns,
        served.opens_timed,
        t.fulfilment,
        started.elapsed().as_secs_f64()
    );
    let q = |p: f64| quantile(&t.latencies_ms, p);
    eprintln!(
        "  served turn ms over {} samples: p50 {:.3} p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3}",
        t.turns,
        q(0.50),
        q(0.75),
        q(0.90),
        q(0.95),
        q(0.99)
    );
    eprintln!("  timed turns per second: {:?}", per_second(&served.wires, args.seconds));
    for m in &metrics {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for why in &checks.0 {
        eprintln!("CHECK FAILED: {why}");
    }
    let correct = checks.0.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
