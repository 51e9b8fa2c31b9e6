//! Output checks computed apart from the program under test.
//!
//! Every check regenerates what the program should have produced from the
//! seed (payload patterns, DHT values) or from the published model (LogGP
//! floors and ceilings), and compares. A failed check counts its operation
//! as failed; the tests at the bottom show that each check rejects a
//! corrupted input.

use crate::util::{pattern, Rng};
use photon_fabric::NetworkModel;
use std::collections::HashMap;

/// Does `got` equal the seeded pattern of operation `id`?
pub fn payload_ok(seed: u64, id: u64, got: &[u8]) -> bool {
    got == pattern(seed, id, got.len()).as_slice()
}

/// Exactly-once bookkeeping for completion ids on one side of the wire:
/// every posted rid must surface once, with success and the posted size.
#[derive(Debug, Default)]
pub struct RidLedger {
    /// rid → posted size, for rids not yet surfaced.
    pending: HashMap<u64, usize>,
    /// Surfaced rids (kept to tell a duplicate from a never-posted rid).
    seen: HashMap<u64, ()>,
}

impl RidLedger {
    pub fn post(&mut self, rid: u64, size: usize) {
        self.pending.insert(rid, size);
    }

    /// Record one surfaced completion. `size` is `None` where the
    /// completion carries no size (initiator-side events).
    pub fn observe(&mut self, rid: u64, ok: bool, size: Option<usize>) -> Result<(), String> {
        let Some(posted) = self.pending.remove(&rid) else {
            return Err(if self.seen.contains_key(&rid) {
                format!("rid {rid} surfaced twice")
            } else {
                format!("rid {rid} was never posted")
            });
        };
        self.seen.insert(rid, ());
        if !ok {
            return Err(format!("rid {rid} completed with an error status"));
        }
        match size {
            Some(s) if s != posted => Err(format!("rid {rid}: size {s}, posted {posted}")),
            _ => Ok(()),
        }
    }

    pub fn is_pending(&self, rid: u64) -> bool {
        self.pending.contains_key(&rid)
    }

    /// Posted rids that never surfaced.
    pub fn missing(&self) -> usize {
        self.pending.len()
    }
}

/// The `len`-byte value the client writes for `key` on its `counter`-th
/// write: seeded bytes that differ between any two writes of a key, so a
/// read returning any other version is stale.
pub fn dht_value(key: u64, counter: u64, len: usize) -> Vec<u8> {
    let mut r = Rng::new(key, counter);
    let mut v: Vec<u8> = std::iter::repeat_with(|| r.next_u64().to_le_bytes())
        .take(len.div_ceil(8))
        .flatten()
        .collect();
    v.truncate(len);
    v
}

/// The client-side shadow of the table: the write counter of every key.
#[derive(Debug)]
pub struct Shadow {
    len: usize,
    counters: HashMap<u64, u64>,
}

impl Shadow {
    /// A shadow of a table holding `len`-byte values.
    pub fn new(len: usize) -> Shadow {
        Shadow { len, counters: HashMap::new() }
    }

    /// Record `key` as holding its first value and return that value.
    pub fn insert(&mut self, key: u64) -> Vec<u8> {
        self.counters.insert(key, 0);
        dht_value(key, 0, self.len)
    }

    /// The value of the next write to `key`; call [`Shadow::commit`] once
    /// the write succeeded.
    pub fn next_value(&self, key: u64) -> Vec<u8> {
        dht_value(key, self.counters.get(&key).map_or(0, |c| c + 1), self.len)
    }

    pub fn commit(&mut self, key: u64) {
        *self.counters.entry(key).or_insert(0) += 1;
    }

    /// Does a read of `key` return the last value written?
    pub fn check_get(&self, key: u64, got: Option<&[u8]>) -> Result<(), String> {
        let Some(&c) = self.counters.get(&key) else {
            return match got {
                None => Ok(()),
                Some(_) => Err(format!("key {key:#x}: value for a key never written")),
            };
        };
        match got {
            None => Err(format!("key {key:#x}: missing, expected write {c}")),
            Some(v) if v == dht_value(key, c, self.len).as_slice() => Ok(()),
            Some(_) => Err(format!("key {key:#x}: stale or corrupt value, expected write {c}")),
        }
    }
}

/// LogGP floor: a modeled one-way time (`rtt_ns / 2`) for a message of
/// `bytes` can be no shorter than `o + s + L`.
pub fn oneway_floor(model: &NetworkModel, bytes: usize, rtt_ns: f64) -> Result<(), String> {
    let floor = model.oneway_ns(bytes) as f64;
    if rtt_ns / 2.0 >= floor {
        Ok(())
    } else {
        Err(format!("modeled one-way {:.1} ns under the LogGP floor {floor} ns", rtt_ns / 2.0))
    }
}

/// LogGP ceiling: modeled payload goodput cannot beat the link bandwidth.
pub fn goodput_ceiling(model: &NetworkModel, bytes_per_s: f64) -> Result<(), String> {
    let bw = model.bandwidth_bytes_per_sec() as f64;
    if bytes_per_s <= bw {
        Ok(())
    } else {
        Err(format!("modeled goodput {bytes_per_s:.0} B/s above the link's {bw:.0} B/s"))
    }
}

/// Modeled goodput in B/s of one transfer direction: its payload bytes
/// over its own virtual span, from the first post to the last completion.
/// `ops` holds each op's `(post, done, bytes)`, times in virtual ns.
pub fn span_goodput(ops: &[(u64, u64, u64)]) -> f64 {
    let (Some(first), Some(last)) =
        (ops.iter().map(|o| o.0).min(), ops.iter().map(|o| o.1).max())
    else {
        return 0.0;
    };
    let bytes: u64 = ops.iter().map(|o| o.2).sum();
    bytes as f64 / ((last - first).max(1) as f64 / 1e9)
}

/// LogGP ceiling: one port injects at most one message per `g`.
pub fn msg_rate_ceiling(model: &NetworkModel, msgs_per_s: f64) -> Result<(), String> {
    let cap = 1e9 / model.msg_gap_ns as f64;
    if msgs_per_s <= cap {
        Ok(())
    } else {
        Err(format!("modeled message rate {msgs_per_s:.0}/s above 1/g = {cap:.0}/s"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_payload_byte_is_rejected() {
        for len in [8usize, 100, 64 << 10] {
            let mut p = pattern(42, 9, len);
            assert!(payload_ok(42, 9, &p));
            p[len / 2] ^= 0x01;
            assert!(!payload_ok(42, 9, &p), "flip at {} of {len}", len / 2);
        }
        // The right bytes under another op's id are wrong too.
        assert!(!payload_ok(42, 10, &pattern(42, 9, 8)));
    }

    #[test]
    fn duplicated_rid_is_rejected() {
        let mut l = RidLedger::default();
        l.post(5, 8);
        assert!(l.observe(5, true, Some(8)).is_ok());
        assert!(l.observe(5, true, Some(8)).unwrap_err().contains("twice"));
        assert!(l.observe(6, true, None).unwrap_err().contains("never posted"));
        l.post(7, 8);
        assert!(l.observe(7, true, Some(16)).is_err(), "wrong size");
        l.post(8, 8);
        assert!(l.observe(8, false, None).is_err(), "error status");
        l.post(9, 8);
        assert_eq!(l.missing(), 1);
    }

    #[test]
    fn stale_dht_value_is_rejected() {
        let mut s = Shadow::new(64);
        let v0 = s.insert(3);
        assert!(s.check_get(3, Some(&v0)).is_ok());
        let v1 = s.next_value(3);
        s.commit(3);
        assert!(s.check_get(3, Some(&v1)).is_ok());
        assert!(s.check_get(3, Some(&v0)).unwrap_err().contains("stale"));
        assert!(s.check_get(3, None).is_err(), "lost key");
        assert!(s.check_get(4, Some(&v1)).is_err(), "phantom key");
        let mut torn = v1.clone();
        torn[40] ^= 0x80;
        assert!(s.check_get(3, Some(&torn)).is_err(), "corrupt filler");
    }

    #[test]
    fn modeled_latency_under_loggp_floor_is_rejected() {
        let m = NetworkModel::ib_fdr();
        let floor_rtt = 2.0 * m.oneway_ns(8) as f64;
        assert!(oneway_floor(&m, 8, floor_rtt).is_ok());
        assert!(oneway_floor(&m, 8, floor_rtt - 1.0).is_err());
        let bw = m.bandwidth_bytes_per_sec() as f64;
        assert!(goodput_ceiling(&m, bw).is_ok());
        assert!(goodput_ceiling(&m, bw * 1.01).is_err());
        // Four 1 MiB ops back to back at 1.5x the link bandwidth, within a
        // phase twice as long: the direction's own span exposes them.
        let mib = 1u64 << 20;
        let per_op = (mib as f64 / (1.5 * bw) * 1e9) as u64;
        let ops: Vec<_> = (0..4).map(|i| (i * per_op, (i + 1) * per_op, mib)).collect();
        assert!(goodput_ceiling(&m, span_goodput(&ops)).is_err());
        let slow: Vec<_> = ops.iter().map(|&(p, d, b)| (2 * p, 2 * d, b)).collect();
        assert!(goodput_ceiling(&m, span_goodput(&slow)).is_ok());
        assert!(msg_rate_ceiling(&m, 1e9 / m.msg_gap_ns as f64).is_ok());
        assert!(msg_rate_ceiling(&m, 1.01e9 / m.msg_gap_ns as f64).is_err());
    }
}
