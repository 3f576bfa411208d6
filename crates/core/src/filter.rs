//! The sensor side every filter protocol shares (POS §3.2, HBC §4.1, IQ
//! §4.2, LCLL \[16\]): each sensor's previous measurement and its copy of
//! the filter the root last announced.
//!
//! What a node holds as its filter depends on the protocol: a threshold
//! value in POS, IQ and LCLL-H/S, the `(lb, ub)` interval in HBC (the same
//! value twice outside the §4.1.2 variant), the focus bucket in LCLL-R.
//! Whatever it is, [`Sensors`] is the only code that installs it and the
//! only code that rolls `prev` forward.
//!
//! Two simplifications hold on purpose, each in one function here:
//! * every node starts with the init filter, whether or not the init
//!   broadcast reached it ([`Sensors::start`]);
//! * every sensor rolls `prev` forward each round, whether or not its
//!   report reached the root ([`Sensors::roll`]).

use wsn_net::{Network, NodeBits};

use crate::Value;

/// Per-node filter copies and previous measurements, plus the reception
/// mask of the latest broadcast. Node `i`'s filter sits at `i` (the root's
/// entry is never read); sensor `i`'s previous measurement at `i − 1`, as
/// in the round's `values`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sensors<F> {
    prev: Vec<Value>,
    filter: Vec<F>,
    received: NodeBits,
}

impl<F: Copy> Sensors<F> {
    /// Starts all `n` nodes (root included) at filter `f`, with `prev` as
    /// the sensors' previous measurements. Keeps the storage.
    pub(crate) fn start(&mut self, n: usize, prev: &[Value], f: F) {
        self.prev.clear();
        self.prev.extend_from_slice(prev);
        self.filter.clear();
        self.filter.resize(n, f);
    }

    /// The sensors' previous measurements.
    pub(crate) fn prev(&self) -> &[Value] {
        &self.prev
    }

    /// Sensor `idx`'s previous measurement and filter (`idx ≥ 1`).
    #[inline]
    pub(crate) fn node(&self, idx: usize) -> (Value, F) {
        (self.prev[idx - 1], self.filter[idx])
    }

    /// Node `idx`'s filter.
    pub(crate) fn filter(&self, idx: usize) -> F {
        self.filter[idx]
    }

    /// Rolls every sensor's previous measurement forward to `values`.
    pub(crate) fn roll(&mut self, values: &[Value]) {
        self.prev.copy_from_slice(values);
    }

    /// Broadcasts a `bits`-bit filter announcement and installs `f` at
    /// every node it reached.
    pub(crate) fn broadcast(&mut self, net: &mut Network, bits: u64, f: F) {
        net.broadcast_into(bits, &mut self.received);
        for i in self.received.iter_ones() {
            self.filter[i] = f;
        }
    }

    /// Broadcasts a `bits`-bit request and returns the nodes it reached,
    /// installing nothing (see [`Sensors::swap_received`]).
    pub(crate) fn request(&mut self, net: &mut Network, bits: u64) -> &NodeBits {
        net.broadcast_into(bits, &mut self.received);
        &self.received
    }

    /// Installs `f` at node `idx` if the latest broadcast reached it, and
    /// returns the filter it replaces (POS's probe threshold).
    pub(crate) fn swap_received(&mut self, idx: usize, f: F) -> Option<F> {
        self.received
            .get(idx)
            .then(|| std::mem::replace(&mut self.filter[idx], f))
    }

    /// Installs `f` at node `idx` from a refinement hook (HBC's §4.1.2
    /// request bounds, LCLL-R's refocus).
    pub(crate) fn set(&mut self, idx: usize, f: F) {
        self.filter[idx] = f;
    }

    /// Installs `f` at every node, reached or not: LCLL-R's init focus, and
    /// IQ's filter in a round without a filter broadcast, which its nodes
    /// read as "unchanged" (§4.2.2).
    pub(crate) fn install_everywhere(&mut self, f: F) {
        self.filter.fill(f);
    }
}
