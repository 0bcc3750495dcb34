//! One connection's conversation: an untimed warm-up, then the timed
//! phase. The served run drives it over a socket; every replay drives
//! the same code against an in-process endpoint. Elicitation answers
//! are drawn from the reply text, so a replay whose replies all match
//! the served ones asks exactly the same utterances, and a replay that
//! diverges shows up in the reply digest.

use obcs_serve::TurnReply;
use obcs_sim::utterance::ValuePools;

use crate::stats::Fnv;
use crate::workload::{Clinician, Shape, Stream, Workload, MAX_ANSWERS};

/// Where a conversation's requests go.
pub trait Endpoint {
    /// Serve one turn: the reply line exactly as the server writes it,
    /// and the reply it carries (`None` if the line is not a reply). An
    /// `Err` means the connection is lost.
    fn turn(
        &mut self,
        session: &str,
        utterance: &str,
        timed: bool,
    ) -> Result<(String, Option<TurnReply>), String>;

    /// Told when the reply to the last turn was a failure (shed,
    /// degraded or malformed), so it counts as missing every latency.
    fn reject(&mut self) {}

    /// Close a session.
    fn end(&mut self, session: &str) -> Result<(), String>;
}

/// What one connection's conversation did and saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transcript {
    /// Questions asked in the timed phase; a replay asks as many.
    pub timed_questions: usize,
    pub turns: usize,
    pub failed: usize,
    pub fulfilment_timed: usize,
    /// FNV-1a over every reply line, in order.
    pub digest: u64,
    /// The first failure, if any.
    pub error: Option<String>,
}

pub struct Conversation<'a> {
    pub w: &'a Workload,
    pub conn: usize,
    pub pools: &'a ValuePools,
    pub seed: u64,
}

impl Conversation<'_> {
    /// Warm up, call `between`, then run the timed phase until
    /// `stop(questions asked so far)` holds at a question boundary.
    pub fn run(
        &self,
        ep: &mut impl Endpoint,
        between: impl FnOnce(),
        stop: impl FnMut(usize) -> bool,
    ) -> Transcript {
        let mut t = Transcript::default();
        let mut digest = Fnv::new();
        let warmup = self.w.warmup_questions;
        let mut warm = Clinician::new(self.pools, self.seed, self.conn, Stream::Warmup);
        let alive = self.phase(ep, &mut warm, false, &mut t, &mut digest, |q| q >= warmup);
        between();
        if alive {
            let mut talk = Clinician::new(self.pools, self.seed, self.conn, Stream::Timed);
            self.phase(ep, &mut talk, true, &mut t, &mut digest, stop);
        }
        t.digest = digest.finish();
        t
    }

    /// Returns whether the endpoint is still usable.
    fn phase(
        &self,
        ep: &mut impl Endpoint,
        talk: &mut Clinician,
        timed: bool,
        t: &mut Transcript,
        digest: &mut Fnv,
        mut stop: impl FnMut(usize) -> bool,
    ) -> bool {
        let mut questions = 0;
        let fail = |t: &mut Transcript, why: String| {
            t.failed += 1;
            t.error.get_or_insert(why);
        };
        while !stop(questions) {
            let session = match self.w.shape {
                Shape::Followup => format!("c{}", self.conn),
                Shape::Open => {
                    format!("c{}-{}{questions}", self.conn, if timed { 't' } else { 'w' })
                }
            };
            questions += 1;
            if timed {
                t.timed_questions = questions;
            }
            let mut utterance = talk.question();
            for answers in 0..=MAX_ANSWERS {
                t.turns += 1;
                let (line, reply) = match ep.turn(&session, &utterance, timed) {
                    Ok(answer) => answer,
                    Err(e) => {
                        fail(t, format!("turn on {session}: {e}"));
                        return false;
                    }
                };
                digest.write(line.as_bytes());
                let reply = match reply {
                    Some(r) if !r.shed && r.kind != "degraded" => r,
                    _ => {
                        ep.reject();
                        fail(t, format!("turn on {session} answered {}", line.trim_end()));
                        break;
                    }
                };
                if timed && reply.kind == "fulfilment" {
                    t.fulfilment_timed += 1;
                }
                if reply.kind != "elicitation" || answers == MAX_ANSWERS {
                    break;
                }
                utterance = talk.answer(&reply.text);
            }
            if self.w.shape == Shape::Open {
                if let Err(e) = ep.end(&session) {
                    fail(t, format!("end of {session}: {e}"));
                    return false;
                }
            }
        }
        true
    }
}
