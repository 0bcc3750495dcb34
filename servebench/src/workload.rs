//! The three workloads and the simulated clinician that drives them.
//!
//! Every workload is closed loop: each connection is one clinician who
//! waits for a reply before typing the next utterance. Utterances come
//! from the `obcs-sim` generator over the Table 5 intent mix; an
//! elicitation prompt is answered from its text, up to twice per
//! question, as the `obcs-sim` socket load generator does.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use obcs_sim::traffic::INTENT_MIX;
use obcs_sim::utterance::{generate, ValuePools};

/// How a connection groups its turns into sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One session per connection, opened during warm-up and held open
    /// through the timed phase, so no session opens are timed.
    Followup,
    /// One session per drawn question: the question, any elicitation
    /// answers, then `End`. Every session pays a fork.
    Open,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Drugs in the MDX world (`MdxDataConfig::drugs`).
    pub drugs: usize,
    /// Client connections, each one clinician; never more than the 2
    /// cores the benchmark was tuned on, since every connection's client
    /// and handler threads share one CPU.
    pub connections: usize,
    pub shape: Shape,
    /// Untimed warm-up questions per connection, on their own seed
    /// stream: at 15k drugs the first seconds of a process ran up to a
    /// third slower than the rest.
    pub warmup_questions: usize,
    /// Set-ups (world build + server start) per run; `setup_s` is their
    /// median. A 60-drug set-up takes about 15 ms and read either 13 or
    /// 16 ms, so small worlds take many.
    pub setups: usize,
    /// Total KB rows and `drug` rows the world must hold: the data seed
    /// is fixed, so these pin the world's size.
    pub kb_rows: usize,
    pub drug_rows: usize,
    /// Sessions opened for `session.resident_mb` in the traced run.
    pub resident_sessions: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "followup-60",
        drugs: 60,
        connections: 1,
        shape: Shape::Followup,
        warmup_questions: 15_000,
        setups: 21,
        // The curated drugs alone exceed 60, so the world holds 64.
        kb_rows: 2_270,
        drug_rows: 64,
        resident_sessions: 16,
    },
    Workload {
        name: "followup-15k",
        drugs: 15_000,
        connections: 2,
        shape: Shape::Followup,
        warmup_questions: 150,
        setups: 3,
        kb_rows: 467_641,
        drug_rows: 15_000,
        resident_sessions: 2,
    },
    Workload {
        name: "open-1.5k",
        drugs: 1_500,
        connections: 2,
        shape: Shape::Open,
        warmup_questions: 30,
        setups: 9,
        kb_rows: 47_173,
        drug_rows: 1_500,
        resident_sessions: 8,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The splitmix64 finaliser: derives independent seed streams.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which part of a run a seed stream feeds.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Warmup = 0,
    Timed = 1,
}

/// The Table 5 mix laid out as one cycle in smooth weighted round-robin
/// order: any `n` consecutive entries hold each intent within one of
/// `n` times its share. Dealing questions from this cycle, rather than
/// drawing each intent independently, keeps every run's intent
/// composition the same, so run-to-run spread measures the system and
/// not which intents a seed happened to draw.
fn mix_cycle() -> Vec<&'static str> {
    let weights: Vec<i64> = INTENT_MIX.iter().map(|(_, w)| w.round() as i64).collect();
    let total: i64 = weights.iter().sum();
    let mut current = vec![0i64; weights.len()];
    (0..total)
        .map(|_| {
            for (c, w) in current.iter_mut().zip(&weights) {
                *c += w;
            }
            let pick = (0..current.len()).max_by_key(|&i| (current[i], -(i as i64))).expect("mix");
            current[pick] -= total;
            INTENT_MIX[pick].0
        })
        .collect()
}

/// One simulated clinician on one connection. The seed picks where in
/// the mix cycle the clinician starts, the phrasing of each question,
/// and its slot values.
pub struct Clinician<'a> {
    rng: ChaCha8Rng,
    pools: &'a ValuePools,
    cycle: Vec<&'static str>,
    next: usize,
}

impl<'a> Clinician<'a> {
    pub fn new(pools: &'a ValuePools, seed: u64, conn: usize, stream: Stream) -> Self {
        let key = splitmix64(seed ^ splitmix64((conn as u64) << 8 | stream as u64));
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        let cycle = mix_cycle();
        let next = rng.gen_range(0..cycle.len());
        Clinician { rng, pools, cycle, next }
    }

    /// The next question of the mix.
    pub fn question(&mut self) -> String {
        loop {
            let intent = self.cycle[self.next % self.cycle.len()];
            self.next += 1;
            if let Some(utterance) = generate(intent, self.pools, &mut self.rng) {
                return utterance;
            }
        }
    }

    /// Answer an elicitation prompt from its text alone.
    pub fn answer(&mut self, prompt: &str) -> String {
        let lower = prompt.to_lowercase();
        let pool = if lower.contains("age") {
            &self.pools.ages
        } else if lower.contains("condition") {
            &self.pools.conditions
        } else if lower.contains("drug") || lower.contains("medication") {
            &self.pools.drugs
        } else {
            return "adult".to_string();
        };
        if pool.is_empty() {
            return "adult".to_string();
        }
        pool[self.rng.gen_range(0..pool.len())].clone()
    }
}

/// Elicitation answers a clinician gives per question before moving on.
pub const MAX_ANSWERS: usize = 2;
