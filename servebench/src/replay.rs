//! In-process replays of the exact conversations a served run held.
//!
//! A replay drives each connection's conversation again, with the same
//! seed and as many timed questions, against a fresh world, rendering
//! every reply on the wire as the server renders it; its transcript,
//! reply digest included, must equal the served one. Two paths:
//!
//! * [`forks`]: `fork_session` + `respond`, as `repro serve` replays.
//!   With a collecting recorder installed on the base agent it yields
//!   the stage spans and counters; it always reads each session's
//!   `cache_stats()` before dropping it.
//! * [`table`]: `SessionTable::turn`, one thread per connection, each
//!   with its own wall-clock recorder, timing the table calls around the
//!   engine's `turn` span.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use obcs_agent::{AgentReply, ConversationAgent};
use obcs_serve::protocol::{encode_line, Response, TurnReply};
use obcs_serve::{kind_label, Admission, ServeConfig, SessionTable};
use obcs_sim::utterance::ValuePools;
use obcs_telemetry::{stage, CollectingRecorder, NoopRecorder, Recorder, TraceReport};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::conversation::{Conversation, Endpoint, Transcript};
use crate::pin;
use crate::served::ServedRun;
use crate::stats::{proc_status_mb, ratio};
use crate::workload::Workload;

/// A reply as the server puts it on the wire, and its line.
fn on_wire(
    session: &str,
    reply: &AgentReply,
    intent: Option<String>,
    shed: bool,
) -> (String, Option<TurnReply>) {
    let reply = TurnReply {
        session: session.to_string(),
        text: reply.text.clone(),
        kind: kind_label(reply.kind).to_string(),
        intent,
        confidence: reply.confidence,
        found_results: reply.found_results,
        shed,
    };
    (encode_line(&Response::Reply(reply.clone())), Some(reply))
}

/// Drive the conversations of the first `conns` connections against the
/// endpoint `make` builds for each, on `threads` threads (connections
/// dealt round-robin, thread `t` on connection `t`'s CPU), calling
/// `between` between each conversation's warm-up and timed phase.
/// Returns each connection's transcript and endpoint, in connection
/// order.
fn drive<E: Endpoint + Send>(
    w: &Workload,
    served: &ServedRun,
    seed: u64,
    (conns, threads): (usize, usize),
    make: impl Fn() -> E + Sync,
    between: impl Fn() + Sync,
) -> Vec<(Transcript, E)> {
    let conns = conns.min(served.transcripts.len());
    let threads = threads.clamp(1, conns.max(1));
    let (make, between) = (&make, &between);
    let mut parts: Vec<(usize, Transcript, E)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    pin::pin_for(0, t).expect("pin a replay thread");
                    (t..conns)
                        .step_by(threads)
                        .map(|conn| {
                            let talk = Conversation { w, conn, pools: &served.pools, seed };
                            let questions = served.transcripts[conn].timed_questions;
                            let mut ep = make();
                            let transcript = talk.run(&mut ep, between, |q| q >= questions);
                            (conn, transcript, ep)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("replay thread panicked")).collect()
    });
    parts.sort_by_key(|(conn, _, _)| *conn);
    parts.into_iter().map(|(_, t, e)| (t, e)).collect()
}

/// Hit and lookup counts of one cache layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hits {
    pub hits: u64,
    pub lookups: u64,
}

impl Hits {
    pub fn add(&mut self, s: obcs_cache::CacheStats) {
        self.hits += s.hits;
        self.lookups += s.hits + s.misses;
    }

    fn merge(&mut self, other: Hits) {
        self.hits += other.hits;
        self.lookups += other.lookups;
    }

    pub fn ratio(&self) -> f64 {
        ratio(self.hits as f64, self.lookups as f64)
    }
}

/// Per-stage span totals over the timed turns of a collecting replay.
#[derive(Debug, Default)]
pub struct Stages {
    /// `(span count, total ns)` per stage name.
    spans: HashMap<String, (u64, u64)>,
    /// Σ over `turn` spans of their duration minus their children's.
    pub turn_self_ns: u64,
    pub kb_queries: u64,
    pub kb_rows: u64,
}

impl Stages {
    fn absorb(&mut self, report: &TraceReport) {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in &report.spans {
            let entry = self.spans.entry(span.stage.clone()).or_default();
            entry.0 += 1;
            entry.1 += span.dur;
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.dur;
            }
        }
        for span in report.spans.iter().filter(|s| s.stage == stage::TURN) {
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            self.turn_self_ns += span.dur.saturating_sub(children);
        }
        let counter = |name: &str| {
            report.counters.get(&(name.to_string(), String::new())).copied().unwrap_or(0)
        };
        self.kb_queries += counter(obcs_telemetry::metric::KB_QUERIES);
        self.kb_rows += counter(obcs_telemetry::metric::KB_ROWS);
    }

    fn merge(&mut self, other: Stages) {
        for (name, (n, total)) in other.spans {
            let entry = self.spans.entry(name).or_default();
            entry.0 += n;
            entry.1 += total;
        }
        self.turn_self_ns += other.turn_self_ns;
        self.kb_queries += other.kb_queries;
        self.kb_rows += other.kb_rows;
    }

    /// Mean duration of one stage's spans, ns.
    pub fn mean_ns(&self, stage: &str) -> f64 {
        self.spans.get(stage).map_or(0.0, |&(n, total)| ratio(total as f64, n as f64))
    }

    pub fn total_ns(&self, stage: &str) -> u64 {
        self.spans.get(stage).map_or(0, |&(_, total)| total)
    }

    pub fn count(&self, stage: &str) -> u64 {
        self.spans.get(stage).map_or(0, |&(n, _)| n)
    }
}

/// What a fork-path replay produced.
#[derive(Default)]
pub struct ForkReplay {
    pub transcripts: Vec<Transcript>,
    /// `fork_session` time per session id, ns.
    pub fork_ns: HashMap<String, u64>,
    /// Σ of `fork_session` and `respond` time per connection, ns.
    pub busy_ns: Vec<u64>,
    pub stages: Stages,
    pub kb_plan: Hits,
    pub kb_result: Hits,
}

struct ForkEndpoint<'a> {
    base: &'a ConversationAgent,
    collect: Option<&'a CollectingRecorder>,
    live: HashMap<String, ConversationAgent>,
    fork_ns: HashMap<String, u64>,
    busy_ns: u64,
    stages: Stages,
    kb_plan: Hits,
    kb_result: Hits,
}

impl ForkEndpoint<'_> {
    fn close(&mut self, agent: ConversationAgent) {
        let kb = agent.cache_stats().0;
        self.kb_plan.add(kb.plan);
        self.kb_result.add(kb.result);
    }
}

impl Endpoint for ForkEndpoint<'_> {
    fn turn(
        &mut self,
        session: &str,
        utterance: &str,
        timed: bool,
    ) -> Result<(String, Option<TurnReply>), String> {
        if !self.live.contains_key(session) {
            let t0 = Instant::now();
            let fork = self.base.fork_session();
            let ns = t0.elapsed().as_nanos() as u64;
            self.fork_ns.insert(session.to_string(), ns);
            self.busy_ns += ns;
            self.live.insert(session.to_string(), fork);
        }
        let agent = self.live.get_mut(session).expect("opened above");
        let t0 = Instant::now();
        let reply = agent.respond(utterance);
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        let intent = reply.intent.and_then(|id| agent.space().intent(id)).map(|i| i.name.clone());
        if let Some(recorder) = self.collect {
            let report = recorder.take_report();
            if timed {
                self.stages.absorb(&report);
            }
        }
        Ok(on_wire(session, &reply, intent, false))
    }

    fn end(&mut self, session: &str) -> Result<(), String> {
        let agent = self.live.remove(session).ok_or_else(|| format!("{session} is not open"))?;
        self.close(agent);
        Ok(())
    }
}

/// Replay the first `conns` connections through `fork_session` +
/// `respond` on `threads` threads. With `collect`, which must be the
/// recorder installed on `base`, the replay runs on one thread and
/// drains the recorder after every turn.
pub fn forks(
    w: &Workload,
    base: &ConversationAgent,
    served: &ServedRun,
    seed: u64,
    (conns, threads): (usize, usize),
    collect: Option<&CollectingRecorder>,
) -> ForkReplay {
    assert!(collect.is_none() || threads == 1, "a collecting recorder nests spans per thread");
    let make = || {
        // One untimed fork on the replay thread first: the allocator gives
        // each thread its own arena, and a thread's first fork would
        // otherwise also pay for growing that arena from nothing.
        drop(base.fork_session());
        ForkEndpoint {
            base,
            collect,
            live: HashMap::new(),
            fork_ns: HashMap::new(),
            busy_ns: 0,
            stages: Stages::default(),
            kb_plan: Hits::default(),
            kb_result: Hits::default(),
        }
    };
    let mut out = ForkReplay::default();
    for (transcript, mut ep) in drive(w, served, seed, (conns, threads), make, || {}) {
        for (_, agent) in std::mem::take(&mut ep.live) {
            ep.close(agent);
        }
        out.transcripts.push(transcript);
        out.fork_ns.extend(ep.fork_ns);
        out.busy_ns.push(ep.busy_ns);
        out.stages.merge(ep.stages);
        out.kb_plan.merge(ep.kb_plan);
        out.kb_result.merge(ep.kb_result);
    }
    out
}

/// What a `SessionTable` replay produced.
#[derive(Default)]
pub struct TableReplay {
    pub transcripts: Vec<Transcript>,
    /// `SessionTable::turn` wall time of each timed turn, ms.
    pub turn_ms: Vec<f64>,
    /// First-contact turn minus fork time minus its `turn` span, ms.
    pub admit_ms: Vec<f64>,
    /// Timed follow-up turn minus its `turn` span, plus `intent_name`, µs.
    pub table_us: Vec<f64>,
    /// VmRSS growth per session opened on the fresh table, MiB.
    pub resident_mb: f64,
    /// Sessions the table opened, and evicted, during the timed phase.
    pub opens_timed: u64,
    pub evictions_timed: u64,
}

struct TableEndpoint<'a> {
    table: &'a SessionTable,
    collecting: Arc<CollectingRecorder>,
    recorder: Arc<dyn Recorder>,
    fork_ns: &'a HashMap<String, u64>,
    seen: HashSet<String>,
    out: TableReplay,
}

impl Endpoint for TableEndpoint<'_> {
    fn turn(
        &mut self,
        session: &str,
        utterance: &str,
        timed: bool,
    ) -> Result<(String, Option<TurnReply>), String> {
        let t0 = Instant::now();
        let admission = self.table.turn(session, utterance, &self.recorder);
        let call_ns = t0.elapsed().as_nanos() as f64;
        let turn_ns = self
            .collecting
            .take_report()
            .spans
            .iter()
            .find(|s| s.stage == stage::TURN && s.parent.is_none())
            .map_or(0.0, |s| s.dur as f64);
        let reply = match admission {
            Admission::Served(reply) => reply,
            Admission::Shed => {
                return Ok(on_wire(session, &obcs_serve::session::shed_reply(), None, true))
            }
        };
        let t1 = Instant::now();
        let intent = self.table.intent_name(reply.intent);
        let name_ns = t1.elapsed().as_nanos() as f64;
        if self.seen.insert(session.to_string()) {
            let fork_ns = self.fork_ns.get(session).copied().unwrap_or(0) as f64;
            self.out.admit_ms.push((call_ns - fork_ns - turn_ns) / 1e6);
        } else if timed {
            self.out.table_us.push((call_ns - turn_ns + name_ns) / 1e3);
        }
        if timed {
            self.out.turn_ms.push(call_ns / 1e6);
        }
        Ok(on_wire(session, &reply, intent, false))
    }

    fn end(&mut self, session: &str) -> Result<(), String> {
        self.seen.remove(session);
        if self.table.end(session) {
            Ok(())
        } else {
            Err(format!("{session} is not open"))
        }
    }
}

/// Replay through a `SessionTable` over `base`, one thread per
/// connection. `fork_ns` holds each session's fork time from a fork-path
/// replay, subtracted from its first contact. Before the replay,
/// `w.resident_sessions` sessions are opened to measure their memory.
pub fn table(
    w: &Workload,
    base: ConversationAgent,
    served: &ServedRun,
    seed: u64,
    fork_ns: &HashMap<String, u64>,
) -> TableReplay {
    let table = SessionTable::new(base, ServeConfig::default().session);
    let noop: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    let ids: Vec<String> = (0..w.resident_sessions).map(|i| format!("resident-{i}")).collect();
    let before = proc_status_mb("VmRSS");
    for id in &ids {
        assert!(matches!(table.turn(id, "hello", &noop), Admission::Served(_)), "table sheds");
    }
    let resident_mb = (proc_status_mb("VmRSS") - before) / ids.len().max(1) as f64;
    for id in &ids {
        table.end(id);
    }

    let warmed = AtomicUsize::new(0);
    let make = || {
        // One untimed session open per replay thread, as in `forks`.
        let id = format!("warm-{}", warmed.fetch_add(1, Ordering::Relaxed));
        assert!(matches!(table.turn(&id, "hello", &noop), Admission::Served(_)), "table sheds");
        table.end(&id);
        let collecting = Arc::new(CollectingRecorder::wall());
        TableEndpoint {
            table: &table,
            recorder: collecting.clone(),
            collecting,
            fork_ns,
            seen: HashSet::new(),
            out: TableReplay::default(),
        }
    };
    // One thread per connection, so each thread meets `barrier` once;
    // between its two waits every warm-up is done and no timed turn sent.
    let barrier = Barrier::new(w.connections);
    let at_start = Mutex::new((0, 0));
    let between = || {
        if barrier.wait().is_leader() {
            *at_start.lock().expect("counter lock") = (table.opened(), table.evicted());
        }
        barrier.wait();
    };
    let replayed = drive(w, served, seed, (w.connections, w.connections), make, between);
    let (opened, evicted) = *at_start.lock().expect("counter lock");
    let mut out = TableReplay {
        resident_mb,
        opens_timed: table.opened() - opened,
        evictions_timed: table.evicted() - evicted,
        ..TableReplay::default()
    };
    for (transcript, ep) in replayed {
        out.transcripts.push(transcript);
        out.turn_ms.extend(ep.out.turn_ms);
        out.admit_ms.extend(ep.out.admit_ms);
        out.table_us.extend(ep.out.table_us);
    }
    out
}

/// Share of the space's query templates, instantiated with pool values,
/// whose bound plan is a full scan; returns `(share, templates bound)`.
pub fn scan_plan_share(agent: &ConversationAgent, pools: &ValuePools, seed: u64) -> (f64, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (mut bound, mut scans) = (0usize, 0usize);
    for slot in &agent.space().templates {
        'template: for labeled in &slot.templates {
            let mut sql = labeled.template.sql().to_string();
            while let Some(start) = sql.find("<@") {
                let Some(len) = sql[start..].find('>') else { continue 'template };
                let marker = sql[start..=start + len].to_string();
                let pool = match &marker[2..marker.len() - 1] {
                    "Drug" => &pools.drugs,
                    "Condition" => &pools.conditions,
                    "AgeGroup" => &pools.ages,
                    _ => continue 'template,
                };
                if pool.is_empty() {
                    continue 'template;
                }
                let value = pool[rng.gen_range(0..pool.len())].replace('\'', "''");
                sql = sql.replace(&marker, &value);
            }
            if let Ok(plan) = agent.kb().prepare(&sql) {
                bound += 1;
                scans += (plan.access_label() == "scan") as usize;
            }
        }
    }
    (ratio(scans as f64, bound as f64), bound)
}
