//! The served phase: world build and server start (`setup_s`), then an
//! untimed warm-up and the timed closed loop over loopback.
//!
//! The client is written against `obcs_serve::protocol` directly rather
//! than `obcs_serve::Client`, so the conversation sees the raw reply
//! lines: their digest is the correctness gate, and in a traced run the
//! lines themselves feed the codec and byte-count figures.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use obcs_mdx::data::MdxDataConfig;
use obcs_mdx::ConversationalMdx;
use obcs_serve::protocol::{decode_response, encode_line, Request, Response};
use obcs_serve::{ServeConfig, Server, TurnReply};
use obcs_sim::utterance::ValuePools;

use crate::conversation::{Conversation, Endpoint, Transcript};
use crate::pin;
use crate::workload::Workload;

/// The served phase's outcome, per connection and overall.
pub struct ServedRun {
    pub transcripts: Vec<Transcript>,
    pub wires: Vec<WireStats>,
    /// Sessions the server opened, and evicted, during the timed phase,
    /// from its own counters.
    pub opens_timed: u64,
    pub evictions_timed: u64,
    /// From the common start of the timed phase to its last answer.
    pub timed_wall_s: f64,
    /// Threads that could not be pinned to their connection's CPU.
    pub pin_errors: Vec<String>,
    pub build_s: Vec<f64>,
    pub start_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub pools: ValuePools,
    pub kb_rows: usize,
    pub drug_rows: usize,
}

pub fn world_config(w: &Workload) -> MdxDataConfig {
    MdxDataConfig { drugs: w.drugs, ..MdxDataConfig::default() }
}

/// A line-oriented connection that keeps the raw reply text.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut wire = Wire { writer, reader: BufReader::new(stream) };
        let hello =
            wire.round_trip(&encode_line(&Request::Hello { client: "servebench".into() }))?;
        match decode_response(&hello) {
            Ok(Response::Welcome { .. }) => Ok(wire),
            other => Err(format!("handshake answered {other:?}")),
        }
    }

    fn round_trip(&mut self, request: &str) -> Result<String, String> {
        self.writer.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(reply),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// What one connection measured in the timed phase.
#[derive(Default)]
pub struct WireStats {
    /// Round trip of each timed turn, ns; `u32::MAX` for a failed one.
    pub latencies_ns: Vec<u32>,
    /// When each timed turn was answered, µs after the common start.
    pub done_us: Vec<u32>,
    /// `(request line, reply line)` of each timed turn, in a traced run.
    pub lines: Vec<(String, String)>,
}

struct WireEndpoint<'a> {
    wire: Wire,
    /// The common start of the timed phase, set once every connection
    /// has finished its warm-up.
    start: &'a OnceLock<Instant>,
    capture: bool,
    stats: WireStats,
}

impl Endpoint for WireEndpoint<'_> {
    fn turn(
        &mut self,
        session: &str,
        utterance: &str,
        timed: bool,
    ) -> Result<(String, Option<TurnReply>), String> {
        let request =
            encode_line(&Request::Turn { session: session.into(), utterance: utterance.into() });
        let t0 = Instant::now();
        let reply = self.wire.round_trip(&request)?;
        let ns = t0.elapsed().as_nanos();
        if timed {
            let start = self.start.get().expect("timed turns follow the common start");
            self.stats.latencies_ns.push(ns.min(u32::MAX as u128 - 1) as u32);
            self.stats.done_us.push(start.elapsed().as_micros().min(u32::MAX as u128) as u32);
            if self.capture {
                self.stats.lines.push((request, reply.clone()));
            }
        }
        let decoded = match decode_response(&reply) {
            Ok(Response::Reply(r)) => Some(r),
            _ => None,
        };
        Ok((reply, decoded))
    }

    fn reject(&mut self) {
        if let Some(last) = self.stats.latencies_ns.last_mut() {
            *last = u32::MAX;
        }
    }

    fn end(&mut self, session: &str) -> Result<(), String> {
        let reply =
            self.wire.round_trip(&encode_line(&Request::End { session: session.into() }))?;
        match decode_response(&reply) {
            Ok(Response::Ended { existed: true, .. }) => Ok(()),
            other => Err(format!("end answered {other:?}")),
        }
    }
}

struct SetUp {
    server: Server,
    pools: ValuePools,
    kb_rows: usize,
    drug_rows: usize,
    build_s: f64,
    start_s: f64,
}

/// Build the world and start a server on it, timing both; the start
/// interval ends when the first connection's handshake is answered.
fn set_up(w: &Workload) -> SetUp {
    let t0 = Instant::now();
    let agent = ConversationalMdx::with_config(world_config(w)).agent;
    let build_s = t0.elapsed().as_secs_f64();
    let kb = agent.kb();
    let kb_rows = kb.table_names().iter().filter_map(|t| kb.table(t).ok()).map(|t| t.len()).sum();
    let drug_rows = kb.table("drug").map_or(0, |t| t.len());
    let pools = ValuePools::from_kb(kb);
    let t1 = Instant::now();
    let server = Server::start(agent, ServeConfig::default()).expect("bind an ephemeral port");
    let first = Wire::connect(server.addr()).expect("handshake with the fresh server");
    let start_s = t1.elapsed().as_secs_f64();
    drop(first);
    SetUp { server, pools, kb_rows, drug_rows, build_s, start_s }
}

/// Connect connection `conn` and pin the server's handler thread for it
/// to the connection's CPU. The handler is found as the one thread that
/// appeared while the handshake was answered; the client thread pins
/// itself to the same CPU.
fn connect_pinned(addr: SocketAddr, conn: usize) -> Result<Wire, String> {
    let before = pin::threads();
    let wire = Wire::connect(addr)?;
    let new: Vec<i32> = pin::threads().into_iter().filter(|t| !before.contains(t)).collect();
    match new[..] {
        [handler] => pin::pin_for(handler, conn)?,
        _ => return Err(format!("expected one new server handler thread, found {new:?}")),
    }
    Ok(wire)
}

/// Set up `w.setups` times, keeping the last server, then run warm-up
/// and the timed phase on every connection. The server is still
/// running on return.
pub fn run(w: &Workload, seed: u64, seconds: u64, capture: bool) -> (Server, ServedRun) {
    let (mut build_s, mut start_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..w.setups {
        if let Some(mut old) = kept.take().map(|s: SetUp| s.server) {
            old.shutdown();
        }
        let s = set_up(w);
        build_s.push(s.build_s);
        start_s.push(s.start_s);
        setup_s.push(s.build_s + s.start_s);
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");

    let mut pin_errors = Vec::new();
    let wires: Vec<Option<Wire>> = (0..w.connections)
        .map(|c| match connect_pinned(s.server.addr(), c) {
            Ok(wire) => Some(wire),
            Err(e) => {
                pin_errors.push(format!("connection {c}: {e}"));
                None
            }
        })
        .collect();

    // Each connection waits at `barrier` twice between warm-up and the
    // timed phase; in between, with every warm-up answered and no timed
    // turn sent, the server's counters and the common start are read.
    let barrier = Barrier::new(w.connections + 1);
    let start = OnceLock::new();
    let timed = Duration::from_secs(seconds);
    let pools = &s.pools;
    let (before, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .into_iter()
            .enumerate()
            .map(|(conn, wire)| {
                let (barrier, start) = (&barrier, &start);
                scope.spawn(move || {
                    let pinned = pin::pin_for(0, conn);
                    let talk = Conversation { w, conn, pools, seed };
                    let between = || {
                        barrier.wait();
                        barrier.wait();
                    };
                    let Some(wire) = wire else {
                        between();
                        let error = Some("not connected".to_string());
                        let t = Transcript { failed: 1, error, ..Transcript::default() };
                        return (t, WireStats::default(), pinned);
                    };
                    let mut ep = WireEndpoint { wire, start, capture, stats: WireStats::default() };
                    let stop = |_| start.get().is_some_and(|s: &Instant| s.elapsed() >= timed);
                    let t = talk.run(&mut ep, between, stop);
                    (t, ep.stats, pinned)
                })
            })
            .collect();
        barrier.wait();
        let before = s.server.stats();
        start.set(Instant::now()).expect("the timed phase starts once");
        barrier.wait();
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (before, results)
    });
    let after = s.server.stats();
    let mut transcripts = Vec::new();
    let mut wires: Vec<WireStats> = Vec::new();
    for (conn, (t, wire, pinned)) in results.into_iter().enumerate() {
        if let Err(e) = pinned {
            pin_errors.push(format!("client thread of connection {conn}: {e}"));
        }
        transcripts.push(t);
        wires.push(wire);
    }
    let last_us = wires.iter().filter_map(|w| w.done_us.iter().max()).max().copied();
    let run = ServedRun {
        transcripts,
        wires,
        opens_timed: after.sessions_opened - before.sessions_opened,
        evictions_timed: after.sessions_evicted - before.sessions_evicted,
        timed_wall_s: last_us.unwrap_or(0) as f64 / 1e6,
        pin_errors,
        build_s,
        start_s,
        setup_s,
        pools: s.pools,
        kb_rows: s.kb_rows,
        drug_rows: s.drug_rows,
    };
    (s.server, run)
}
