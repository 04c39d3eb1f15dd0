//! The simulated network: one seeded event loop over sans-I/O nodes.
//!
//! Stands in for the paper's 1 Gbps cluster LAN (DESIGN.md §4). Every
//! node of a cluster is a state machine ([`Node`]) that the loop steps
//! with an [`Input`] — a batch from outside, a peer's message, or a
//! deadline it set — and that answers with [`Output`]s: broadcasts,
//! timers and deliveries. The loop keeps one queue of due events:
//! messages, delayed by [`NetConfig::latency`] and dropped by its seeded
//! RNG, and timers. It holds no clock and no thread: the caller says
//! what time it is. A production driver passes wall time and parks until
//! [`EventLoop::next_due`]; a test calls [`EventLoop::advance`], which
//! jumps to the next due event — so one seed reproduces a run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

/// Identifies a node on the simulated network.
pub type NodeId = usize;

/// Network behaviour knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way delivery latency (whole milliseconds on the loop's clock).
    pub latency: Duration,
    /// Probability a message is silently dropped (0.0 = reliable).
    pub drop_probability: f64,
    /// RNG seed for drops.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            drop_probability: 0.0,
            seed: 0,
        }
    }
}

/// What the event loop hands a node.
#[derive(Debug)]
pub enum Input<M, B> {
    /// A batch from outside the cluster, handed to every live node.
    Batch(B),
    /// A peer's message.
    Msg {
        /// Sending node.
        from: NodeId,
        /// Payload.
        msg: M,
    },
    /// A timer the node set has come due.
    Deadline,
}

/// What a node's step asks of the event loop.
#[derive(Debug)]
pub enum Output<M, D> {
    /// Send `M` to every other node.
    Broadcast(M),
    /// Step this node with [`Input::Deadline`] at this time (ms).
    Timer(u64),
    /// Hand `D` to the driver.
    Deliver(D),
}

/// A sans-I/O cluster member: all it knows of time is the `now_ms` it is
/// stepped at.
pub trait Node {
    /// Messages between nodes.
    type Msg: Clone;
    /// What the driver feeds the cluster.
    type Batch: Clone;
    /// What the cluster hands back.
    type Delivery;
    /// Consumes one input at `now_ms`.
    fn step(
        &mut self,
        now_ms: u64,
        input: Input<Self::Msg, Self::Batch>,
    ) -> Vec<Output<Self::Msg, Self::Delivery>>;
}

/// An input and the node it is for.
type Addressed<N> = (NodeId, Input<<N as Node>::Msg, <N as Node>::Batch>);

/// A cluster of nodes on one queue of due events.
pub struct EventLoop<N: Node> {
    /// Indexed by [`NodeId`]; `None` is a node that never started.
    nodes: Vec<Option<N>>,
    /// Keyed by (due time, arrival), so ties run in arrival order.
    due: BTreeMap<(u64, u64), Addressed<N>>,
    arrivals: u64,
    now_ms: u64,
    latency_ms: u64,
    drop_probability: f64,
    rng: StdRng,
    sent: u64,
    dropped: u64,
}

impl<N: Node> EventLoop<N> {
    /// A loop over `nodes` whose links behave per `config`, at time 0.
    pub fn new(nodes: Vec<Option<N>>, config: &NetConfig) -> Self {
        EventLoop {
            nodes,
            due: BTreeMap::new(),
            arrivals: 0,
            now_ms: 0,
            latency_ms: config.latency.as_millis() as u64,
            drop_probability: config.drop_probability,
            rng: StdRng::seed_from_u64(config.seed),
            sent: 0,
            dropped: 0,
        }
    }

    /// The loop's clock: the latest time it ran at.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// When the earliest pending event is due, if any is.
    pub fn next_due(&self) -> Option<u64> {
        self.due.first_key_value().map(|(&(at, _), _)| at)
    }

    /// `(sent, dropped)` message counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.sent, self.dropped)
    }

    /// Hands `batch` to every live node at `at_ms`.
    pub fn push_batch(&mut self, at_ms: u64, batch: N::Batch) {
        for to in 0..self.nodes.len() {
            if self.nodes[to].is_some() {
                self.push(at_ms, to, Input::Batch(batch.clone()));
            }
        }
    }

    /// Runs every event due at or before `now_ms`, in (due, arrival)
    /// order, each stepped at `now_ms`; returns what the nodes delivered.
    pub fn run_until(&mut self, now_ms: u64) -> Vec<(NodeId, N::Delivery)> {
        self.now_ms = self.now_ms.max(now_ms);
        let now = self.now_ms;
        let mut delivered = Vec::new();
        while let Some(event) = self.due.first_entry().filter(|e| e.key().0 <= now) {
            let (to, input) = event.remove();
            let Some(node) = self.nodes.get_mut(to).and_then(Option::as_mut) else {
                continue;
            };
            for out in node.step(now, input) {
                match out {
                    Output::Broadcast(msg) => self.broadcast(to, msg),
                    Output::Timer(at) => self.push(at, to, Input::Deadline),
                    Output::Deliver(d) => delivered.push((to, d)),
                }
            }
        }
        delivered
    }

    /// The virtual clock: jumps to the next due event and runs everything
    /// due then. `None` once nothing is pending.
    pub fn advance(&mut self) -> Option<Vec<(NodeId, N::Delivery)>> {
        let at = self.next_due()?;
        Some(self.run_until(at))
    }

    fn broadcast(&mut self, from: NodeId, msg: N::Msg) {
        for to in (0..self.nodes.len()).filter(|&to| to != from) {
            self.sent += 1;
            if self.drop_probability > 0.0 && self.rng.gen::<f64>() < self.drop_probability {
                self.dropped += 1;
                continue;
            }
            let input = Input::Msg {
                from,
                msg: msg.clone(),
            };
            self.push(self.now_ms + self.latency_ms, to, input);
        }
    }

    fn push(&mut self, at: u64, to: NodeId, input: Input<N::Msg, N::Batch>) {
        self.arrivals += 1;
        self.due.insert((at, self.arrivals), (to, input));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node `id` broadcasts each batch addressed to it and delivers every
    /// message it receives as `(time, from, msg)`.
    struct Echo(NodeId);

    impl Node for Echo {
        type Msg = u32;
        type Batch = (NodeId, u32);
        type Delivery = (u64, NodeId, u32);
        fn step(
            &mut self,
            now_ms: u64,
            input: Input<u32, (NodeId, u32)>,
        ) -> Vec<Output<u32, Self::Delivery>> {
            match input {
                Input::Batch((from, msg)) if from == self.0 => vec![Output::Broadcast(msg)],
                Input::Msg { from, msg } => vec![Output::Deliver((now_ms, from, msg))],
                _ => Vec::new(),
            }
        }
    }

    fn echoes(n: usize, config: NetConfig) -> EventLoop<Echo> {
        EventLoop::new((0..n).map(|id| Some(Echo(id))).collect(), &config)
    }

    #[test]
    fn zero_latency_is_synchronous() {
        let mut net = echoes(2, NetConfig::default());
        net.push_batch(5, (0, 42));
        assert_eq!(net.run_until(5), vec![(1, (5, 0, 42))]);
        assert_eq!(net.next_due(), None);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut net = echoes(4, NetConfig::default());
        net.push_batch(0, (0, 7));
        let got: Vec<NodeId> = net.run_until(0).into_iter().map(|(to, _)| to).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn latency_delays_delivery() {
        let mut net = echoes(
            2,
            NetConfig {
                latency: Duration::from_millis(20),
                ..NetConfig::default()
            },
        );
        net.push_batch(100, (0, 7));
        assert!(net.run_until(100).is_empty(), "must not arrive instantly");
        assert_eq!(net.next_due(), Some(120));
        assert_eq!(net.advance(), Some(vec![(1, (120, 0, 7))]));
        assert_eq!(net.advance(), None);
    }

    #[test]
    fn drops_are_counted_and_seeded() {
        let run = |seed| {
            let mut net = echoes(
                2,
                NetConfig {
                    drop_probability: 0.5,
                    seed,
                    ..NetConfig::default()
                },
            );
            for i in 0..1000 {
                net.push_batch(0, (0, i));
            }
            let got: Vec<u32> = net.run_until(0).into_iter().map(|(_, d)| d.2).collect();
            (net.stats(), got)
        };
        let ((sent, dropped), got) = run(7);
        assert_eq!(sent, 1000);
        assert!((300..700).contains(&dropped), "dropped {dropped}");
        assert_eq!(got.len() as u64, sent - dropped);
        assert_eq!(run(7).1, got, "one seed, one run");
        assert_ne!(run(8).1, got);
    }

    #[test]
    fn ordering_preserved_at_equal_latency() {
        let mut net = echoes(
            2,
            NetConfig {
                latency: Duration::from_millis(5),
                ..NetConfig::default()
            },
        );
        for i in 0..50 {
            net.push_batch(0, (0, i));
        }
        assert!(net.run_until(0).is_empty());
        let got: Vec<u32> = net.run_until(5).into_iter().map(|(_, d)| d.2).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }
}
