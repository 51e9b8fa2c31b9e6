//! The traced layer ladder: the same 8 B operation at each layer of the
//! stack, on the backend of the workload being traced.
//!
//! 1. `fabric`: a raw `FabricBackend` write + send-CQ poll on a fabric of
//!    its own;
//! 2. `core`: a one-way PWC (both completions surfaced), then a short
//!    windowed mix and a few bulk ops for the per-call spans;
//! 3. `rpc`: a `kv.get` against `serve_kv`;
//! 4. `ds`: DHT get and put, one-sided and over RPC.
//!
//! Every rung checks its outputs like the workloads do. On the simulated
//! fabric each rung also reports modeled (virtual) ns.

use crate::check::{self, payload_ok};
use crate::trace::{Tracer, NONE};
use crate::util::{median_u64, pattern};
use crate::{dht, pwc, Workload};
use photon_core::BackendKind;
use photon_ds::AccessPath;
use photon_fabric::api::{Access, FabricBackend, MrSlice, RemoteSlice, SendWr, VTime, WrOp};
use photon_fabric::sock::SockCluster;
use photon_fabric::{Cluster, NetworkModel};
use photon_runtime::rpc::kv::{serve_kv, KvGet};
use photon_runtime::RpcOptions;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw fabric writes, as many as the core rung's PWCs so both meet port
/// calendars of the same depth (the calendar grows by one booking per
/// message, and the booking cost with it).
const FABRIC_OPS: u64 = CORE_OPS;
const CORE_OPS: u64 = 2_000;
const CORE_MIX_OPS: u64 = 960;
const CORE_BULK_OPS: u64 = 8;
const RPC_OPS: u64 = 1_000;
/// DHT ops per (kind, path) cell.
const DS_OPS: u64 = 250;
/// An op this slow counts as stalled.
pub const STALL: Duration = Duration::from_millis(5);

/// What the ladder measured: per-layer values by metric name.
#[derive(Debug, Default)]
pub struct Ladder {
    pub values: BTreeMap<&'static str, f64>,
    /// Wall ns of every op the ladder made, for the stall count.
    pub op_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ladder {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Median of the last tenth over median of the first tenth.
pub fn growth(ns: &[u64]) -> f64 {
    let tenth = (ns.len() / 10).max(1);
    median_u64(&ns[ns.len() - tenth..]) / median_u64(&ns[..tenth]).max(1.0)
}

pub fn climb(w: Workload, seed: u64, tr: &mut Tracer) -> Ladder {
    let backend = match w {
        Workload::SockLoopback => BackendKind::Sock,
        Workload::PwcFdr | Workload::DhtFdr => BackendKind::Sim,
    };
    let mut l = Ladder::default();
    fabric_rung(&mut l, backend, seed, tr);
    core_rung(&mut l, backend, seed, tr);
    service_rungs(&mut l, backend, seed, tr);
    l
}

fn fabric_rung(l: &mut Ladder, backend: BackendKind, seed: u64, tr: &mut Tracer) {
    let rung = tr.begin("rung.fabric", NONE, 0);
    let (_owner, nics): (Box<dyn std::any::Any>, Vec<Arc<dyn FabricBackend>>) = match backend {
        BackendKind::Sim => {
            let c = Cluster::new(2, NetworkModel::ib_fdr());
            let nics = (0..2).map(|i| Arc::clone(c.nic(i)) as Arc<dyn FabricBackend>).collect();
            (Box::new(c), nics)
        }
        BackendKind::Sock => match SockCluster::new(2) {
            Ok(c) => {
                let nics = (0..2).map(|i| Arc::clone(c.nic(i)) as Arc<dyn FabricBackend>).collect();
                (Box::new(c), nics)
            }
            Err(e) => {
                l.attempted += FABRIC_OPS;
                l.failed += FABRIC_OPS;
                l.errors.push(format!("sockets fabric: {e}"));
                return;
            }
        },
    };
    let (a, b) = (nics[0].as_ref(), nics[1].as_ref());
    let regs = (a.register(64, Access::ALL), b.register(64, Access::ALL), a.create_qp(1));
    let (Ok(src), Ok(dst), Ok(qp)) = regs else {
        l.attempted += FABRIC_OPS;
        l.failed += FABRIC_OPS;
        l.errors.push("fabric rung: registration or QP setup failed".into());
        return;
    };
    let rk = dst.remote_key();
    let (mut ns, mut vns) = (Vec::new(), Vec::new());
    let mut now = VTime(0);
    let mut cqes = Vec::new();
    l.attempted += FABRIC_OPS;
    for id in 1..=FABRIC_OPS {
        src.write_at(0, &pattern(seed, id, pwc::SMALL));
        let t = Instant::now();
        let s = tr.begin("fabric.write", rung, id);
        let wr = SendWr::new(
            id,
            WrOp::Write {
                local: MrSlice::new(&src, 0, pwc::SMALL),
                remote: RemoteSlice::from_key(&rk, 0, pwc::SMALL),
                imm: None,
            },
        );
        if let Err(e) = a.post_send(qp, wr, now) {
            tr.end(s, 0);
            l.fail(format!("fabric write {id}: {e}"));
            continue;
        }
        cqes.clear();
        while cqes.is_empty() && t.elapsed() < Duration::from_secs(10) {
            a.poll_send_cq_into(1, &mut cqes);
        }
        tr.end(s, cqes.len() as u64);
        ns.push(t.elapsed().as_nanos() as u64);
        let Some(c) = cqes.first() else {
            l.fail(format!("fabric write {id}: no completion"));
            continue;
        };
        vns.push(c.ts.as_nanos().saturating_sub(now.as_nanos()));
        now = now.max(c.ts);
        if c.wr_id != id || !c.status.is_ok() {
            l.fail(format!("fabric write {id}: completion {} status {:?}", c.wr_id, c.status));
        } else if !payload_ok(seed, id, &dst.to_vec(0, pwc::SMALL)) {
            l.fail(format!("fabric write {id}: target bytes differ from the seeded pattern"));
        }
    }
    tr.end(rung, FABRIC_OPS);
    l.values.insert("fabric.write_ns", median_u64(&ns));
    l.values.insert("fabric.write_vns", median_u64(&vns));
    l.values.insert("fabric.cost_growth", growth(&ns));
    l.op_ns.extend(ns);
}

fn core_rung(l: &mut Ladder, backend: BackendKind, seed: u64, tr: &mut Tracer) {
    let rung = tr.begin("rung.core", NONE, 0);
    let spec = pwc::Spec {
        backend,
        pp_iters: 0,
        mix_ops: CORE_MIX_OPS,
        weights: [16, 1, 16],
        bulk_ops: CORE_BULK_OPS,
    };
    l.attempted += CORE_OPS + CORE_MIX_OPS + CORE_BULK_OPS;
    let env = match pwc::Env::new(&spec, seed) {
        Ok(e) => e,
        Err(e) => {
            l.failed += CORE_OPS + CORE_MIX_OPS + CORE_BULK_OPS;
            l.errors.push(e);
            return;
        }
    };
    let mut book = pwc::Book::new(seed);
    let one = pwc::one_way(&env, &mut book, 1 << 36, CORE_OPS, tr);
    pwc::mix(&env, &mut book, &pwc::mix_items(seed, CORE_MIX_OPS, spec.weights), tr);
    let bulk = pwc::bulk(&env, &mut book, &pwc::bulk_items(seed, CORE_BULK_OPS), tr);
    book.close();
    tr.end(rung, CORE_OPS);
    l.failed += book.failed();
    l.errors.append(&mut book.errors);
    let pwc_ns = median_u64(&one.wall_ns);
    l.values.insert("core.pwc_ns", pwc_ns);
    l.values.insert("core.pwc_vns", median_u64(&one.vrtt_ns));
    l.values.insert(
        "core.pwc_added_ns",
        pwc_ns - l.values.get("fabric.write_ns").copied().unwrap_or(0.0),
    );
    l.values.insert(
        "core.bulk_ns_per_MiB",
        (bulk.wall_ns - bulk.check_ns) as f64 / (bulk.bytes as f64 / (1 << 20) as f64),
    );
    let stats = [env.p[0].stats(), env.p[1].stats()];
    let frames: u64 = stats.iter().map(|s| s.puts_eager + s.puts_direct + s.gets).sum();
    let batch_posts: u64 = stats.iter().map(|s| s.batch_posts).sum();
    l.values.insert(
        "core.frames_per_post",
        frames as f64 / (frames - book.batched_items + batch_posts).max(1) as f64,
    );
    l.op_ns.extend(one.wall_ns);
    l.op_ns.append(&mut book.op_ns);
}

/// The rpc and ds rungs share one runtime job.
fn service_rungs(l: &mut Ladder, backend: BackendKind, seed: u64, tr: &mut Tracer) {
    let spec =
        dht::Spec { value_len: pwc::SMALL, keys: 256, buckets_per_rank: 1024, ops: 0, warm_ops: 0 };
    l.attempted += RPC_OPS + 4 * DS_OPS;
    let cluster = photon_runtime::RuntimeCluster::new(
        2,
        NetworkModel::ib_fdr(),
        dht::rt_config(backend),
        photon_runtime::ActionRegistry::new(),
    );
    let store = serve_kv(cluster.node(1));
    let mut env = match dht::Env::new(cluster, &spec, seed) {
        Ok(e) => e,
        Err(e) => {
            l.failed += RPC_OPS + 4 * DS_OPS;
            l.errors.push(e);
            return;
        }
    };
    let node = Arc::clone(env.client());
    let clock = Arc::clone(node.photon());

    // rpc: kv.get of an 8 B value.
    let rung = tr.begin("rung.rpc", NONE, 0);
    let key = b"ladder".to_vec();
    let want = pattern(seed, 0x4B56, pwc::SMALL);
    store.put(key.clone(), want.clone(), 0);
    let client = node.rpc_client(1);
    let (rpc0, rt0, rt1) = (node.rpc_stats(), node.stats(), env.cluster.node(1).stats());
    let (mut ns, mut vns) = (Vec::new(), Vec::new());
    for i in 0..RPC_OPS {
        let (t, v) = (Instant::now(), clock.now().as_nanos());
        let s = tr.begin("rpc.kv_get", rung, i);
        let got = client.call::<KvGet>(&key, RpcOptions::at_least_once());
        tr.end(s, got.is_ok() as u64);
        ns.push(t.elapsed().as_nanos() as u64);
        vns.push(clock.now().as_nanos() - v);
        match got {
            Ok(Some(v)) if v == want => {}
            Ok(other) => l.fail(format!("kv.get {i}: got {other:?}")),
            Err(e) => l.fail(format!("kv.get {i}: {e}")),
        }
    }
    tr.end(rung, RPC_OPS);
    let rpc = node.rpc_stats().delta(&rpc0);
    let parcels = node.stats().delta(&rt0).parcels_sent
        + env.cluster.node(1).stats().delta(&rt1).parcels_sent;
    let kv_ns = median_u64(&ns);
    l.values.insert("rpc.kv_get_ns", kv_ns);
    l.values.insert("rpc.kv_get_vns", median_u64(&vns));
    l.values.insert("rpc.attempts_per_call", rpc.attempts as f64 / rpc.calls.max(1) as f64);
    l.values.insert("runtime.parcels_per_op", parcels as f64 / RPC_OPS as f64);
    l.op_ns.extend(ns);

    // ds: one cell per (kind, path), each over seeded keys.
    let rung = tr.begin("rung.ds", NONE, 0);
    let ds0 = env.dht.stats();
    let cells = [
        (true, AccessPath::OneSided, "ds.get_1s"),
        (false, AccessPath::OneSided, "ds.put_1s"),
        (true, AccessPath::Rpc, "ds.get_rpc"),
        (false, AccessPath::Rpc, "ds.put_rpc"),
    ];
    for (k, &(get, path, name)) in cells.iter().enumerate() {
        let list: Vec<_> = dht::ops(seed ^ k as u64, DS_OPS, spec.keys)
            .into_iter()
            .map(|(key, _, _)| (key, get, path))
            .collect();
        let ran = dht::run_ops(&mut env, &list, tr, (k as u64) << 32);
        l.failed += ran.failed;
        l.errors.extend(ran.errors);
        let (ns_name, vns_name) = match name {
            "ds.get_1s" => ("ds.get_1s_ns", "ds.get_1s_vns"),
            "ds.put_1s" => ("ds.put_1s_ns", "ds.put_1s_vns"),
            "ds.get_rpc" => ("ds.get_rpc_ns", "ds.get_rpc_vns"),
            _ => ("ds.put_rpc_ns", "ds.put_rpc_vns"),
        };
        l.values.insert(ns_name, median_u64(&ran.wall_ns));
        l.values.insert(vns_name, median_u64(&ran.vns));
        l.op_ns.extend(ran.wall_ns);
    }
    for e in dht::read_back(&env) {
        l.fail(e);
    }
    tr.end(rung, 4 * DS_OPS);
    let ds = env.dht.stats().delta(&ds0);
    l.values.insert("ds.fallback_ratio", ds.dht_rpc_fallbacks as f64 / (2 * DS_OPS) as f64);
    l.values.insert("ds.rpc_added_ns", l.values["ds.get_rpc_ns"] - kv_ns);
    env.cluster.shutdown();
    // LogGP: an RPC is at least a round trip of the modeled network.
    if backend == BackendKind::Sim {
        if let Err(e) =
            check::oneway_floor(&NetworkModel::ib_fdr(), pwc::SMALL, l.values["rpc.kv_get_vns"])
        {
            l.fail(e);
        }
    }
}
