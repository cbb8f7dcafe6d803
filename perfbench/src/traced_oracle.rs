//! The [`DistanceOracle`] wrapper every served oracle sits behind.
//!
//! It forwards each call unchanged, so answers and costs are exactly the
//! inner oracle's. Around the calls it opens the `service.batch` and
//! `oracle.query` spans (when tracing is on) and, always, logs the bit
//! pattern of every answer it computed. The log is the in-process
//! reference each answer a client received is checked against: one
//! wrapper per served epoch, so a wrapper's log is that epoch's reference.
//! It also logs the CPU time of each pair's query, read from the clock of
//! the thread that ran it.

use crate::cpu;
use crate::trace;
use psh_core::oracle::QueryResult;
use psh_core::{DistanceOracle, OracleDescriptor};
use psh_exec::ExecutionPolicy;
use psh_graph::VertexId;
use psh_pram::Cost;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Pack a pair into one request key.
pub fn pair_key(s: VertexId, t: VertexId) -> u64 {
    ((s as u64) << 32) | t as u64
}

/// A forwarding oracle that records spans and an answer log.
pub struct TracedOracle {
    inner: Arc<dyn DistanceOracle>,
    log: Mutex<AnswerLog>,
    cpu_ms: Mutex<Vec<f64>>,
}

#[derive(Default)]
struct AnswerLog {
    bits: HashMap<(VertexId, VertexId), u64>,
    /// Pairs answered twice with different bits (a determinism failure).
    conflicts: u64,
}

impl TracedOracle {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn DistanceOracle>) -> TracedOracle {
        TracedOracle {
            inner,
            log: Mutex::new(AnswerLog::default()),
            cpu_ms: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &Arc<dyn DistanceOracle> {
        &self.inner
    }

    /// The logged answer bits for `(s, t)`, if this oracle computed it.
    pub fn logged(&self, s: VertexId, t: VertexId) -> Option<u64> {
        self.log().bits.get(&(s, t)).copied()
    }

    /// Pairs this oracle answered twice with different bits.
    pub fn conflicts(&self) -> u64 {
        self.log().conflicts
    }

    /// The CPU milliseconds of every query computed since the last call,
    /// one sample per pair; clears the log.
    pub fn take_cpu_ms(&self) -> Vec<f64> {
        std::mem::take(&mut *self.cpu_ms.lock().expect("CPU log poisoned by a panic"))
    }

    fn log(&self) -> std::sync::MutexGuard<'_, AnswerLog> {
        self.log.lock().expect("answer log poisoned by a panic")
    }

    fn record(&self, answers: impl IntoIterator<Item = ((VertexId, VertexId), QueryResult)>) {
        let mut log = self.log();
        for (pair, r) in answers {
            let bits = r.distance.to_bits();
            if let Some(old) = log.bits.insert(pair, bits) {
                if old != bits {
                    log.conflicts += 1;
                }
            }
        }
    }

    fn traced_query(&self, parent: u64, s: VertexId, t: VertexId) -> (QueryResult, Cost) {
        let _g = trace::span("oracle.query", parent, pair_key(s, t));
        let t0 = cpu::thread_s();
        let answer = self.inner.query(s, t);
        let ms = (cpu::thread_s() - t0) * 1e3;
        self.cpu_ms
            .lock()
            .expect("CPU log poisoned by a panic")
            .push(ms);
        answer
    }
}

impl DistanceOracle for TracedOracle {
    fn query(&self, s: VertexId, t: VertexId) -> (QueryResult, Cost) {
        let (r, c) = self.traced_query(0, s, t);
        self.record([((s, t), r)]);
        (r, c)
    }

    /// The same fan-out as the trait default (one pair per work unit,
    /// costs par-composed), which is also what every shipped oracle does,
    /// with each pair's span parented to the batch span.
    fn query_batch(
        &self,
        pairs: &[(VertexId, VertexId)],
        policy: ExecutionPolicy,
    ) -> (Vec<QueryResult>, Cost) {
        let batch = trace::span("service.batch", 0, pairs.len() as u64);
        let parent = batch.id();
        let answered = policy
            .executor()
            .par_map(pairs, 1, |&(s, t)| self.traced_query(parent, s, t));
        drop(batch);
        let cost = Cost::par_all(answered.iter().map(|(_, c)| *c));
        let answers: Vec<QueryResult> = answered.into_iter().map(|(r, _)| r).collect();
        self.record(pairs.iter().copied().zip(answers.iter().copied()));
        (answers, cost)
    }

    fn descriptor(&self) -> OracleDescriptor {
        self.inner.descriptor()
    }
}
