//! Deterministic test workloads shared by the determinism test-suite and
//! the `smoke chatter` digest, so both exercise the *same* protocol.

use crate::engine::{Input, Node, Outbox};
use crate::hash::splitmix64;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeIndex;

/// A chattering protocol: periodic timers fan messages out to
/// pseudo-random peers; receivers relay with bounded hops and log + trace
/// every input. All randomness is node-local (a splitmix64 decision
/// stream), so the behaviour is a pure function of the schedule — which
/// is exactly what determinism checks need.
#[derive(Debug)]
pub struct Chatter {
    /// This node's id.
    pub id: u32,
    /// World size (peers are drawn from `0..n`).
    pub n: u32,
    /// Private decision stream state.
    pub decisions: u64,
    /// Timer re-arms left.
    pub rounds: u32,
    /// Every input this node saw, in order (the per-node schedule).
    pub log: Vec<String>,
}

impl Chatter {
    /// Creates a chatter node with a seeded decision stream.
    pub fn new(id: u32, n: u32, decisions: u64, rounds: u32) -> Self {
        Chatter { id, n, decisions, rounds, log: Vec::new() }
    }
}

impl Node for Chatter {
    type Msg = u64;

    fn handle(&mut self, now: SimTime, input: Input<u64>, out: &mut Outbox<u64>) {
        match input {
            Input::Start => {
                out.trace("start", format!("n{}", self.id));
                out.timer(SimDuration::from_millis(2 + (self.id as u64 % 5)), 0);
            }
            Input::Timer { tag } => {
                out.trace("tick", format!("n{} t{tag}", self.id));
                let r = splitmix64(&mut self.decisions);
                for i in 0..1 + (r % 3) {
                    let peer = ((r >> (8 * i)) % self.n as u64) as u32;
                    out.send(NodeIndex(peer), (r % 1009) * 4);
                }
                if self.rounds > 0 {
                    self.rounds -= 1;
                    out.timer(SimDuration::from_millis(4 + r % 9), tag + 1);
                }
            }
            Input::Msg { from, msg } => {
                self.log.push(format!("{now} {msg} {from}"));
                out.trace("recv", format!("n{} {msg} from {from}", self.id));
                out.count("chatter.msgs", 1.0);
                let hops = msg % 4;
                if hops < 2 {
                    let r = splitmix64(&mut self.decisions);
                    out.send(NodeIndex((r % self.n as u64) as u32), (msg & !3) + hops + 1);
                }
            }
        }
    }
}
