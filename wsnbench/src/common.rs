//! Types and helpers shared by the five workloads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use wsn_data::Rng;
use wsn_net::splitmix::{SplitMix64, GOLDEN_GAMMA};
use wsn_net::{Aggregate, MessageSizes, Network, RadioModel, RoutingTree, Topology};

use crate::stats::median;
use crate::trace::Tracer;

/// One workload at one size. `measure` times the library entry points
/// users call, with tracing off; `trace` drives the same units through
/// each layer's public functions, wrapping every call in a span.
pub trait Workload {
    /// What one timed unit is, for the printed report.
    fn unit(&self) -> &'static str;
    /// Units every run executes however short it is: the reference units.
    fn reference_units(&self) -> usize;
    /// Untraced run: set up, then time units while `budget` says so.
    fn measure(&self, budget: &mut Budget) -> Outcome;
    /// Traced run over the same units, recording spans into `tr`.
    fn trace(&self, budget: &mut Budget, tr: &mut Tracer) -> Outcome;
}

/// What one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds per world set-up (world build plus `Network::new`).
    pub setup_s: Vec<f64>,
    /// Seconds per timed unit.
    pub unit_s: Vec<f64>,
    /// Units (fuzz: scenarios) attempted.
    pub attempted: u64,
    /// Units that failed a check or panicked.
    pub failed: u64,
    /// Simulated outputs of the fixed reference units.
    pub reference: Reference,
    /// Traced runs only: network counts summed over every traced unit.
    pub traced_counts: NetCounts,
    /// Traced runs only: bare-wave timings on the workload's final tree.
    pub probe: Option<Probe>,
    /// Traced runs only: workload-specific per-layer metrics.
    pub extras: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a unit's check result.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Simulated outputs of a workload's first units, which every run
/// executes whatever `--seconds` is, so they are a pure function of the
/// seed: the digest must read the same on parent and change.
#[derive(Default)]
pub struct Reference {
    /// FNV-1a over the rendered simulated outputs.
    pub digest: Fnv,
    runs: u32,
    hotspot_j_per_round: f64,
    bits_per_round: f64,
    /// Traced runs only: network counts summed over the reference runs.
    pub counts: NetCounts,
    /// Simulated protocol-rounds behind `counts`.
    pub rounds: u64,
}

impl Reference {
    /// Adds one simulated run: its rendered outputs, the paper's hotspot
    /// (max per-sensor joules per round) and its bits on air per round.
    pub fn add(&mut self, rendered: &str, hotspot_j_per_round: f64, bits_per_round: f64) {
        self.digest.push(rendered.as_bytes());
        self.runs += 1;
        self.hotspot_j_per_round += hotspot_j_per_round;
        self.bits_per_round += bits_per_round;
    }

    /// Adds the network counts of a run of `rounds` protocol-rounds.
    pub fn add_counts(&mut self, counts: NetCounts, rounds: u64) {
        self.counts.add(&counts);
        self.rounds += rounds;
    }

    /// Mean hotspot over the reference runs, in mJ per round.
    pub fn hotspot_mj_per_round(&self) -> f64 {
        self.hotspot_j_per_round * 1e3 / self.runs.max(1) as f64
    }

    /// Mean bits on air per round over the reference runs.
    pub fn bits_per_round(&self) -> f64 {
        self.bits_per_round / self.runs.max(1) as f64
    }

    /// A network count per simulated protocol-round.
    pub fn per_round(&self, count: u64) -> f64 {
        count as f64 / self.rounds.max(1) as f64
    }
}

/// 64-bit FNV-1a, the hash `wsn_sim::parity` digests with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf29ce484222325)
    }
}

impl Fnv {
    /// Hashes `bytes` into the running digest.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Traffic and reliability counters of one network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    pub convergecasts: u64,
    pub broadcasts: u64,
    pub messages: u64,
    pub bits: u64,
    pub retransmissions: u64,
    pub acks: u64,
    pub rebuilds: u64,
}

impl NetCounts {
    /// The cumulative counters of `net`.
    pub fn of(net: &Network) -> NetCounts {
        let (s, r) = (net.stats(), net.reliability_stats());
        NetCounts {
            convergecasts: s.convergecasts,
            broadcasts: s.broadcasts,
            messages: s.messages,
            bits: s.bits,
            retransmissions: r.retransmissions,
            acks: r.acks,
            rebuilds: r.rebuilds,
        }
    }

    /// Component-wise sum.
    pub fn add(&mut self, o: &NetCounts) {
        self.convergecasts += o.convergecasts;
        self.broadcasts += o.broadcasts;
        self.messages += o.messages;
        self.bits += o.bits;
        self.retransmissions += o.retransmissions;
        self.acks += o.acks;
        self.rebuilds += o.rebuilds;
    }

    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &NetCounts) -> NetCounts {
        NetCounts {
            convergecasts: self.convergecasts - earlier.convergecasts,
            broadcasts: self.broadcasts - earlier.broadcasts,
            messages: self.messages - earlier.messages,
            bits: self.bits - earlier.bits,
            retransmissions: self.retransmissions - earlier.retransmissions,
            acks: self.acks - earlier.acks,
            rebuilds: self.rebuilds - earlier.rebuilds,
        }
    }
}

/// When a measured loop stops: after `seconds`, but never before the
/// reference units are done. Between units it samples the host's speed
/// with a fixed kernel (see [`Budget::normalize`]) and reads the peak
/// heap of the unit that just ended.
pub struct Budget {
    start: Instant,
    deadline: Instant,
    min_units: usize,
    probe: HostProbe,
    last_probe: Option<Instant>,
    /// Probe bursts: (ns since start, median probe ns of the burst).
    bursts: Vec<(u64, f64)>,
    /// Per unit: when it started and ended, in ns since `start`.
    unit_spans: Vec<(u64, u64)>,
    /// Per unit: the largest live heap while it ran, in bytes.
    pub unit_peak_heap: Vec<usize>,
}

/// Median host-probe time on the machine the README's numbers come from,
/// while no other tenant loaded it.
const PROBE_REFERENCE_NS: f64 = 100_000.0;

/// How far before a unit's start and after its end the probe bursts
/// describing its host speed reach.
const PROBE_REACH_NS: u64 = 1_000_000_000;

impl Budget {
    pub fn new(seconds: f64, min_units: usize) -> Budget {
        let start = Instant::now();
        Budget {
            start,
            deadline: start + std::time::Duration::from_secs_f64(seconds.max(0.0)),
            min_units,
            probe: HostProbe::new(),
            last_probe: None,
            bursts: Vec::new(),
            unit_spans: Vec::new(),
            unit_peak_heap: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// True while another unit should run, `done` units in.
    pub fn more(&mut self, done: usize) -> bool {
        let peak = crate::heap::take_peak();
        let ended = self.now_ns();
        if done > 0 {
            self.unit_peak_heap.push(peak);
            if let Some(span) = self.unit_spans.last_mut() {
                span.1 = ended;
            }
        }
        if self
            .last_probe
            .is_none_or(|t| t.elapsed().as_millis() >= 50)
        {
            let burst: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    self.probe.run();
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            self.bursts.push((self.now_ns(), median(&burst)));
            self.last_probe = Some(Instant::now());
        }
        // Restart the peak so that the probe's own allocations count
        // toward no unit.
        crate::heap::take_peak();
        let go = done < self.min_units || Instant::now() < self.deadline;
        if go {
            let started = self.now_ns();
            self.unit_spans.push((started, started));
        }
        go
    }

    /// Each unit's seconds divided by how much slower than the reference
    /// machine the host ran around it: the median of the probe bursts
    /// from a second before the unit to a second after it. A
    /// shared machine's speed drifts by up to 1.9× for minutes at a time,
    /// which a median over units cannot absorb.
    pub fn normalize(&self, unit_s: &[f64]) -> Vec<f64> {
        unit_s
            .iter()
            .zip(&self.unit_spans)
            .map(|(s, &(from, to))| {
                let window: Vec<f64> = self
                    .bursts
                    .iter()
                    .filter(|(t, _)| from.saturating_sub(PROBE_REACH_NS) <= *t)
                    .take_while(|(t, _)| *t <= to + PROBE_REACH_NS)
                    .map(|&(_, ns)| ns)
                    .collect();
                s * PROBE_REFERENCE_NS / median(&window)
            })
            .collect()
    }

    /// The host slowdown over the whole budget (median burst over the
    /// reference probe time).
    pub fn slowdown(&self) -> f64 {
        let bursts: Vec<f64> = self.bursts.iter().map(|b| b.1).collect();
        median(&bursts) / PROBE_REFERENCE_NS
    }

    /// The host slowdown right after the set-up, which runs just before
    /// the first unit: over the bursts of the loop's first second.
    pub fn setup_slowdown(&self) -> f64 {
        let first = self.bursts.first().map_or(0, |b| b.0);
        let bursts: Vec<f64> = self
            .bursts
            .iter()
            .take_while(|(t, _)| *t <= first + PROBE_REACH_NS)
            .map(|b| b.1)
            .collect();
        median(&bursts) / PROBE_REFERENCE_NS
    }

    /// Probe bursts taken.
    pub fn bursts(&self) -> usize {
        self.bursts.len()
    }
}

/// A fixed kernel that shares no code with the repository: four waves over
/// a random 1000-node tree shaped like the simulator's. Each wave sends a
/// heap-allocated 16-counter payload up from every node, merging it into
/// the parent's inbox and charging two nodes' `f64` ledgers, then floods a
/// flag back down. Allocation, scattered reads and ledger writes are what
/// the simulator's waves do, so a busy host slows the kernel about as much
/// as it slows the workloads. A read-modify-write loop over a flat table
/// slowed only 1.3× while an HBC round slowed 1.6×; this kernel slowed
/// as much as the round.
struct HostProbe {
    parent: Vec<u32>,
    energy: Vec<f64>,
    flag: Vec<u32>,
}

impl HostProbe {
    const NODES: usize = 1000;
    const WAVES: usize = 4;

    fn new() -> HostProbe {
        let mut rng = SplitMix64::new(0x9E37_79B9);
        // Node k's parent is an earlier node, so index order is top-down.
        let parent = (0..Self::NODES as u64)
            .map(|k| {
                if k == 0 {
                    0
                } else {
                    (rng.next_u64() % k) as u32
                }
            })
            .collect();
        HostProbe {
            parent,
            energy: vec![0.0; Self::NODES],
            flag: vec![0; Self::NODES],
        }
    }

    fn run(&mut self) {
        for _ in 0..Self::WAVES {
            let mut inbox: Vec<Option<Vec<u32>>> = vec![None; Self::NODES];
            for i in (1..Self::NODES).rev() {
                let mut payload = inbox[i].take().unwrap_or_else(|| vec![0; 16]);
                payload[(i * 7) & 15] += 1;
                let p = self.parent[i] as usize;
                self.energy[i] += 1.0;
                self.energy[p] += 0.5;
                match &mut inbox[p] {
                    Some(merged) => merged.iter_mut().zip(&payload).for_each(|(a, b)| *a += b),
                    slot => *slot = Some(payload),
                }
            }
            std::hint::black_box(&inbox[0]);
            for i in 1..Self::NODES {
                self.flag[i] = self.flag[self.parent[i] as usize] ^ 1;
                self.energy[i] += 0.2;
            }
        }
        std::hint::black_box(&self.flag);
    }
}

/// Derives the `stream`-th input seed from the benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(GOLDEN_GAMMA)).next_u64()
}

/// The per-run RNG `wsn_sim::runner::run_once` seeds for `run_index`.
pub fn run_rng(seed: u64, run_index: u32) -> Rng {
    Rng::seed_from_u64(
        seed ^ (run_index as u64)
            .wrapping_mul(GOLDEN_GAMMA)
            .wrapping_add(1),
    )
}

/// Runs `f`, turning a panic into `Err` with its message (also printed).
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = wsn_check::invariants::panic_text(&*e);
        eprintln!("wsnbench: unit panicked: {msg}");
        msg
    })
}

/// Runs `f` as one traced unit: a top-level `unit` span named `name`,
/// closed even when `f` panics. Returns the unit's seconds and result.
pub fn traced_unit<T>(
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> (f64, Result<T, String>) {
    let depth = tr.depth();
    let start = tr.elapsed_ns();
    tr.begin("unit", name);
    let out = catch(|| f(&mut *tr));
    tr.unwind_to(depth);
    ((tr.elapsed_ns() - start) as f64 * 1e-9, out)
}

/// Seconds `f` takes, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Absolute rank error of answer `v` against rank `k`: the benchmark's
/// copy of the runner's private oracle, `wsn_sim::runner::rank_error`.
pub fn rank_error(values: &[wsn_net::Value], v: wsn_net::Value, k: u64) -> u64 {
    let (mut l, mut e) = (0u64, 0u64);
    for &x in values {
        l += (x < v) as u64;
        e += (x == v) as u64;
    }
    if k > l && k <= l + e {
        0
    } else if k <= l {
        l + 1 - k
    } else {
        k - (l + e).max(1)
    }
}

/// Bare-wave timings: a counter convergecast and a broadcast on a fresh
/// network over a workload's final tree.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub sensors: usize,
    pub convergecast_ns_per_node: f64,
    pub broadcast_ns_per_node: f64,
}

struct Count(u64);

impl Aggregate for Count {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        sizes.counter_bits
    }
}

/// Median nanoseconds per call of `f`, over at least 31 calls and 20 ms.
fn median_call_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < 31 || start.elapsed().as_millis() < 20 {
        let t0 = Instant::now();
        f();
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

/// Times bare waves over `topo`/`tree` inside `net.probe_*` spans.
pub fn probe(topo: &Topology, tree: &RoutingTree, tr: &mut Tracer) -> Probe {
    let mut net = Network::new(
        topo.clone(),
        tree.clone(),
        RadioModel::default(),
        MessageSizes::default(),
    );
    let sensors = net.sensor_count();
    let per_node = sensors.max(1) as f64;
    let cc = tr.span("net", "probe_convergecast", || {
        median_call_ns(|| {
            std::hint::black_box(net.convergecast(|_| Some(Count(1))));
        })
    });
    let bc = tr.span("net", "probe_broadcast", || {
        median_call_ns(|| {
            std::hint::black_box(net.broadcast(64));
        })
    });
    Probe {
        sensors,
        convergecast_ns_per_node: cc / per_node,
        broadcast_ns_per_node: bc / per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// A unit is normalized by the bursts from a second before it to a
    /// second after it, and the set-up by the loop's first second.
    #[test]
    fn normalization_uses_the_bursts_around_each_unit() {
        let mut b = Budget::new(0.0, 0);
        let reference = PROBE_REFERENCE_NS;
        b.bursts = vec![
            (10 * MS, reference),
            (900 * MS, 2.0 * reference),
            (1600 * MS, 3.0 * reference),
            (3000 * MS, 4.0 * reference),
        ];
        b.unit_spans = vec![
            (20 * MS, 30 * MS),
            (1000 * MS, 1500 * MS),
            (2600 * MS, 2700 * MS),
        ];
        // Windows: bursts 1 and 2; bursts 1 to 3; bursts 3 and 4.
        assert_eq!(
            b.normalize(&[1.0, 1.0, 1.0]),
            vec![1.0 / 1.5, 0.5, 1.0 / 3.5]
        );
        assert_eq!(b.setup_slowdown(), 1.5);
        assert_eq!(b.slowdown(), 2.5);
    }
}
