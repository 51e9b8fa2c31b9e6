//! The `dht_fdr` workload: a 2-rank runtime on the simulated FDR fabric
//! (one worker per node), one client thread on rank 0 running a seeded
//! YCSB-A mix against a prefilled [`Dht`] whose keys all live on rank 1,
//! half the ops one-sided and half over RPC.

use crate::check::{dht_value, Shadow};
use crate::trace::{Tracer, NONE};
use crate::util::{median, Rng};
use crate::Round;
use photon_core::{BackendKind, PhotonConfig};
use photon_ds::{AccessPath, Dht, DhtConfig};
use photon_fabric::NetworkModel;
use photon_runtime::{ActionRegistry, RtConfig, RtNode, RuntimeCluster};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Input make-up of the DHT workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Bytes per value.
    pub value_len: usize,
    /// Keys in the table, all owned by rank 1.
    pub keys: usize,
    /// Buckets per rank (rank 1's load is `keys / buckets_per_rank`).
    pub buckets_per_rank: usize,
    /// Timed ops per round: 50/50 get/put, alternating paths.
    pub ops: u64,
    /// Untimed warm-up ops (both paths, both kinds).
    pub warm_ops: u64,
}

/// A failed op that took this long ends the round's op list.
const SLOW_FAILURE: std::time::Duration = std::time::Duration::from_secs(1);

pub const DHT_FDR: Spec =
    Spec { value_len: 64, keys: 1024, buckets_per_rank: 4096, ops: 2000, warm_ops: 64 };

/// A booted runtime with a prefilled table.
pub struct Env {
    pub cluster: RuntimeCluster,
    pub dht: Dht,
    pub keys: Vec<u64>,
    pub shadow: Shadow,
}

/// One worker per node, over `backend`.
pub fn rt_config(backend: BackendKind) -> RtConfig {
    let photon = PhotonConfig::builder().backend(backend).build().expect("valid photon config");
    RtConfig { workers: 1, photon, ..RtConfig::default() }
}

pub fn dht_config(spec: &Spec) -> DhtConfig {
    DhtConfig {
        buckets_per_rank: spec.buckets_per_rank,
        key_max: 8,
        val_max: spec.value_len,
        ..DhtConfig::default()
    }
}

impl Env {
    /// Boot the runtime, create the table and prefill `keys` seeded keys
    /// owned by rank 1 (from rank 1 itself: owner-local writes).
    pub fn new(cluster: RuntimeCluster, spec: &Spec, seed: u64) -> Result<Env, String> {
        let dht = Dht::new(&cluster, dht_config(spec)).map_err(|e| format!("dht boot: {e}"))?;
        let owner = Arc::clone(cluster.node(1));
        let mut r = Rng::new(seed, 0x4B_4559);
        let mut seen = HashSet::new();
        let mut keys = Vec::with_capacity(spec.keys);
        let mut shadow = Shadow::new(spec.value_len);
        let mut tries = 0usize;
        while keys.len() < spec.keys {
            tries += 1;
            if tries > spec.keys * 64 {
                return Err("could not place the seeded key set".into());
            }
            let k = r.next_u64();
            if dht.owner_of(&k.to_le_bytes()) != 1 || !seen.insert(k) {
                continue;
            }
            let v = dht_value(k, 0, spec.value_len);
            // A full probe window skips the key; the set stays a function
            // of the seed.
            if dht.put(&owner, &k.to_le_bytes(), &v, AccessPath::OneSided).is_ok() {
                shadow.insert(k);
                keys.push(k);
            }
        }
        Ok(Env { cluster, dht, keys, shadow })
    }

    pub fn client(&self) -> &Arc<RtNode> {
        self.cluster.node(0)
    }
}

/// One seeded op: key index, get (else put), path.
pub fn ops(seed: u64, n: u64, keys: usize) -> Vec<(usize, bool, AccessPath)> {
    let mut r = Rng::new(seed, 0x5943_5342);
    (0..n)
        .map(|i| {
            let path = if i % 2 == 0 { AccessPath::OneSided } else { AccessPath::Rpc };
            (r.below(keys as u64) as usize, r.below(2) == 0, path)
        })
        .collect()
}

pub fn span_name(get: bool, path: AccessPath) -> &'static str {
    match (get, path) {
        (true, AccessPath::OneSided) => "ds.get@1s",
        (false, AccessPath::OneSided) => "ds.put@1s",
        (true, AccessPath::Rpc) => "ds.get@rpc",
        (false, AccessPath::Rpc) => "ds.put@rpc",
    }
}

/// Timings of a run of DHT ops.
pub struct Ran {
    pub wall_ns: Vec<u64>,
    /// Wall ns from the first op's start to the last op's end.
    pub total_ns: u64,
    pub vns: Vec<u64>,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Run `list` as rank 0's client, checking every get against the shadow.
pub fn run_ops(
    env: &mut Env,
    list: &[(usize, bool, AccessPath)],
    tr: &mut Tracer,
    op0: u64,
) -> Ran {
    let node = Arc::clone(env.client());
    let clock = Arc::clone(node.photon());
    let phase = tr.begin("phase.dht", NONE, op0);
    let mut out = Ran {
        wall_ns: Vec::new(),
        total_ns: 0,
        vns: Vec::new(),
        failed: 0,
        errors: Vec::new(),
    };
    let start = Instant::now();
    for (i, &(ki, get, path)) in list.iter().enumerate() {
        let key = env.keys[ki];
        let kb = key.to_le_bytes();
        let (t, v) = (Instant::now(), clock.now().as_nanos());
        let s = tr.begin(span_name(get, path), phase, op0 + i as u64);
        let verdict = if get {
            match env.dht.get(&node, &kb, path) {
                Ok(got) => env.shadow.check_get(key, got.as_deref()),
                Err(e) => Err(format!("get {key:#x}: {e}")),
            }
        } else {
            let val = env.shadow.next_value(key);
            match env.dht.put(&node, &kb, &val, path) {
                Ok(()) => {
                    env.shadow.commit(key);
                    Ok(())
                }
                Err(e) => Err(format!("put {key:#x}: {e}")),
            }
        };
        tr.end(s, verdict.is_ok() as u64);
        out.wall_ns.push(t.elapsed().as_nanos() as u64);
        out.vns.push(clock.now().as_nanos() - v);
        if let Err(e) = verdict {
            out.failed += 1;
            if out.errors.len() < 8 {
                out.errors.push(e);
            }
            // A slow failure (an RPC timing out) would repeat for every
            // remaining op: count them failed instead of waiting each out.
            if t.elapsed() > SLOW_FAILURE {
                out.failed += (list.len() - i - 1) as u64;
                break;
            }
        }
    }
    out.total_ns = start.elapsed().as_nanos() as u64;
    tr.end(phase, list.len() as u64);
    out
}

/// Read every key back at its owner and compare with the shadow; returns
/// the mismatches.
pub fn read_back(env: &Env) -> Vec<String> {
    let owner = env.cluster.node(1);
    env.keys
        .iter()
        .filter_map(|&k| {
            let got = env.dht.get(owner, &k.to_le_bytes(), AccessPath::OneSided);
            match got {
                Ok(v) => env.shadow.check_get(k, v.as_deref()).err(),
                Err(e) => Some(format!("read-back {k:#x}: {e}")),
            }
        })
        .collect()
}

pub fn boot(spec: &Spec, seed: u64, backend: BackendKind) -> Result<Env, String> {
    let cluster =
        RuntimeCluster::new(2, NetworkModel::ib_fdr(), rt_config(backend), ActionRegistry::new());
    Env::new(cluster, spec, seed)
}

pub fn round(spec: &Spec, seed: u64, tr: &mut Tracer) -> Round {
    let warm = ops(seed ^ 0x5741_524D, spec.warm_ops, spec.keys);
    let list = ops(seed, spec.ops, spec.keys);
    let t = Instant::now();
    let mut env = match boot(spec, seed, BackendKind::Sim) {
        Ok(e) => e,
        Err(e) => return Round::broken(spec.ops, e),
    };
    let warmed = run_ops(&mut env, &warm, &mut Tracer::new(false), 0);
    let setup_s = t.elapsed().as_secs_f64();

    let node = Arc::clone(env.client());
    let (rt0, rpc0, ds0) = (node.stats(), node.rpc_stats(), env.dht.stats());
    let rt1 = env.cluster.node(1).stats();
    let ran = run_ops(&mut env, &list, tr, 1 << 32);
    let mismatches = read_back(&env);

    let mut round = Round::new(setup_s, spec.ops);
    let n = list.len() as f64;
    let vns: u64 = ran.vns.iter().sum();
    let mut lat: Vec<f64> = ran.wall_ns.iter().map(|&x| x as f64 / 1e3).collect();
    round.set("lat_p50_us", median(&mut lat));
    round.set("modeled_ops_per_s", n / (vns as f64 / 1e9));
    round.set("modeled_lat_us", vns as f64 / n / 1e3);
    round.set(
        "modeled_goodput_MiBps",
        n * spec.value_len as f64 / (1 << 20) as f64 / (vns as f64 / 1e9),
    );
    // Every op is at least one round trip of the modeled network.
    let floor = 2 * NetworkModel::ib_fdr().oneway_ns(8);
    let under = ran.vns.iter().filter(|&&v| v < floor).count() as u64;

    let (rt, rpc, ds) =
        (node.stats().delta(&rt0), node.rpc_stats().delta(&rpc0), env.dht.stats().delta(&ds0));
    let rt_peer = env.cluster.node(1).stats().delta(&rt1);
    round.count("parcels", (rt.parcels_sent + rt_peer.parcels_sent) as f64);
    round.count("rpc_calls", rpc.calls as f64);
    round.count("rpc_attempts", rpc.attempts as f64);
    round.count("ds_fallbacks", ds.dht_rpc_fallbacks as f64);
    let ops_per_s = n / (ran.total_ns as f64 / 1e9);
    round.set("ops_per_s", ops_per_s);
    round.set("goodput_MiBps", ops_per_s * spec.value_len as f64 / (1 << 20) as f64);
    round.lat_us = lat;
    round.op_ns = ran.wall_ns;
    round.failed = (warmed.failed + ran.failed + under + mismatches.len() as u64).min(spec.ops);
    round.errors = warmed.errors.into_iter().chain(ran.errors).chain(mismatches).take(8).collect();
    if under > 0 {
        round
            .errors
            .push(format!("{under} ops faster than the modeled round-trip floor {floor} ns"));
    }
    env.cluster.shutdown();
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Spec =
        Spec { value_len: 64, keys: 32, buckets_per_rank: 256, ops: 64, warm_ops: 8 };

    #[test]
    fn clean_round_passes_every_check() {
        let r = round(&TINY, 3, &mut Tracer::new(false));
        assert_eq!(r.failed, 0, "{:?}", r.errors);
    }

    #[test]
    fn stale_value_is_caught_by_gets_and_read_back() {
        let mut env = boot(&TINY, 3, BackendKind::Sim).unwrap();
        let key = env.keys[0];
        // A write the client's shadow does not know about: the table now
        // holds a value the shadow calls stale.
        let stale = dht_value(key, 7, TINY.value_len);
        env.dht.put(env.cluster.node(1), &key.to_le_bytes(), &stale, AccessPath::OneSided).unwrap();
        let ran = run_ops(&mut env, &[(0, true, AccessPath::Rpc)], &mut Tracer::new(false), 0);
        assert_eq!(ran.failed, 1, "{:?}", ran.errors);
        assert_eq!(read_back(&env).len(), 1);
        env.cluster.shutdown();
    }
}
