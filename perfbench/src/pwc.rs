//! The PWC workloads: `pwc_fdr` (two ranks on the simulated FDR fabric,
//! inline progress) and `sock_loopback` (two ranks over the UDP sockets
//! backend on loopback). One thread drives both ranks as a closed loop: it
//! posts, then probes until the completions it waits for surface.

use crate::check::{self, RidLedger};
use crate::trace::{SpanId, Tracer, NONE};
use crate::util::{fill_pattern, median, pattern, Rng};
use crate::Round;
use photon_core::buffers::BufferDescriptor;
use photon_core::{
    BackendKind, Completion, CompletionClass, Photon, PhotonBuffer, PhotonCluster, PhotonConfig,
    ProbeFlags, PutManyItem,
};
use photon_fabric::NetworkModel;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Payload of every small operation.
pub const SMALL: usize = 8;
/// Small-op slots per buffer area; far more than the window, so a slot is
/// always free again by the time its index comes round.
const SLOTS: usize = 256;
/// Outstanding operations in the small-op phase.
pub const WINDOW: usize = 16;
/// Outstanding operations in the bulk phase.
pub const BULK_WINDOW: usize = 4;
pub const BULK_MIN: usize = 64 << 10;
pub const BULK_MAX: usize = 1 << 20;
/// Ops per `try_put_many` batch.
pub const BATCH: usize = 16;
/// Seeded source region the small gets read from (rank 1).
const GSRC_BYTES: usize = 4096;

// Small-buffer layout, the same on both ranks: put slots, pong slots, get
// landing slots.
const PUT_OFF: usize = 0;
const PONG_OFF: usize = SLOTS * SMALL;
const LAND_OFF: usize = 2 * SLOTS * SMALL;
const SMALL_BYTES: usize = 3 * SLOTS * SMALL;

// Operation-id ranges: ids double as local and remote rids.
const WARM_BASE: u64 = 1 << 32;
const PP_BASE: u64 = 2 << 32;
const MIX_BASE: u64 = 3 << 32;
const BULK_BASE: u64 = 4 << 32;
const GSRC_ID: u64 = 1 << 40;
const BULK_GSRC_ID: u64 = (1 << 40) + 1;

/// A probe loop that sees nothing for this long declares its ops lost.
const STUCK: Duration = Duration::from_secs(20);

/// Warm-up ping-pongs before the first timed op (connections come up
/// lazily on first contact).
const WARM_ITERS: u64 = 16;

/// Input make-up of one PWC workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub backend: BackendKind,
    /// 8 B ping-pong round trips.
    pub pp_iters: u64,
    /// Small ops in the windowed phase.
    pub mix_ops: u64,
    /// Item weights in the windowed phase: single put, batch of 16, get.
    /// 16:1:16 gives each kind a third of the ops.
    pub weights: [u64; 3],
    /// Bulk puts and gets (0 = no bulk phase).
    pub bulk_ops: u64,
}

pub const PWC_FDR: Spec = Spec {
    backend: BackendKind::Sim,
    pp_iters: 1000,
    mix_ops: 3000,
    weights: [16, 1, 16],
    bulk_ops: 64,
};

pub const SOCK_LOOPBACK: Spec = Spec {
    backend: BackendKind::Sock,
    pp_iters: 300,
    mix_ops: 1500,
    weights: [1, 0, 0],
    bulk_ops: 0,
};

/// The buffers a completion's payload is checked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buf {
    Small,
    BulkSrc,
    BulkLand,
    BulkDst,
}

/// What the bytes at a completion's destination must equal.
#[derive(Debug, Clone, Copy)]
enum Want {
    /// The seeded pattern of this op id.
    Pattern(u64),
    /// Bytes `off..off+len` of a seeded source region.
    Gsrc(usize),
    BulkGsrc(usize),
}

#[derive(Debug, Clone, Copy)]
struct Expect {
    buf: Buf,
    off: usize,
    len: usize,
    want: Want,
}

/// One rank's registered memory.
struct Mem {
    small: PhotonBuffer,
    bulk_src: Option<PhotonBuffer>,
    bulk_land: Option<PhotonBuffer>,
    bulk_dst: Option<PhotonBuffer>,
}

impl Mem {
    fn buf(&self, b: Buf) -> &PhotonBuffer {
        match b {
            Buf::Small => &self.small,
            Buf::BulkSrc => self.bulk_src.as_ref().expect("bulk phase registers its buffers"),
            Buf::BulkLand => self.bulk_land.as_ref().expect("bulk phase registers its buffers"),
            Buf::BulkDst => self.bulk_dst.as_ref().expect("bulk phase registers its buffers"),
        }
    }
}

/// A booted two-rank job with its buffers registered and descriptors
/// exchanged.
pub struct Env {
    pub cluster: PhotonCluster,
    pub p: [Arc<Photon>; 2],
    mem: [Mem; 2],
    small_desc: [BufferDescriptor; 2],
    /// Kept registered for the gets that read it.
    _gsrc: PhotonBuffer,
    gsrc_desc: BufferDescriptor,
    bulk_dst_desc: Option<BufferDescriptor>,
    bulk_gsrc: Option<(PhotonBuffer, BufferDescriptor)>,
    /// What the get sources hold, regenerated from the seed by the
    /// benchmark (never read back from the program).
    gsrc_want: Vec<u8>,
    bulk_gsrc_want: Vec<u8>,
}

fn config(backend: BackendKind) -> PhotonConfig {
    PhotonConfig::builder()
        .progress_threads(0)
        .backend(backend)
        .build()
        .expect("valid photon config")
}

impl Env {
    pub fn new(spec: &Spec, seed: u64) -> Result<Env, String> {
        let cluster = PhotonCluster::new(2, NetworkModel::ib_fdr(), config(spec.backend));
        let p = [Arc::clone(cluster.rank(0)), Arc::clone(cluster.rank(1))];
        let reg = |r: usize, len: usize| {
            p[r].register_buffer(len).map_err(|e| format!("register {len} B on rank {r}: {e}"))
        };
        let bulk = spec.bulk_ops > 0;
        let slots = BULK_WINDOW * BULK_MAX;
        let mem = [
            Mem {
                small: reg(0, SMALL_BYTES)?,
                bulk_src: if bulk { Some(reg(0, slots)?) } else { None },
                bulk_land: if bulk { Some(reg(0, slots)?) } else { None },
                bulk_dst: None,
            },
            Mem {
                small: reg(1, SMALL_BYTES)?,
                bulk_src: None,
                bulk_land: None,
                bulk_dst: if bulk { Some(reg(1, slots)?) } else { None },
            },
        ];
        // Fresh regions are zero pages the kernel maps on first write: touch
        // every bulk page now, so the timed transfers do not pay for it.
        if bulk {
            let zeros = vec![0u8; slots];
            for b in mem.iter().flat_map(|m| [&m.bulk_src, &m.bulk_land, &m.bulk_dst]).flatten() {
                b.write_at(0, &zeros);
            }
        }
        let small_desc = [mem[0].small.descriptor(), mem[1].small.descriptor()];
        let gsrc = reg(1, GSRC_BYTES)?;
        let gsrc_want = pattern(seed, GSRC_ID, GSRC_BYTES);
        gsrc.write_at(0, &gsrc_want);
        let gsrc_desc = gsrc.descriptor();
        let bulk_dst_desc = mem[1].bulk_dst.as_ref().map(PhotonBuffer::descriptor);
        let (bulk_gsrc, bulk_gsrc_want) = if bulk {
            let b = reg(1, BULK_MAX)?;
            let want = pattern(seed, BULK_GSRC_ID, BULK_MAX);
            b.write_at(0, &want);
            let d = b.descriptor();
            (Some((b, d)), want)
        } else {
            (None, Vec::new())
        };
        Ok(Env {
            cluster,
            p,
            mem,
            small_desc,
            _gsrc: gsrc,
            gsrc_desc,
            bulk_dst_desc,
            bulk_gsrc,
            gsrc_want,
            bulk_gsrc_want,
        })
    }

    fn desc(&self, r: usize, b: Buf) -> &BufferDescriptor {
        match b {
            Buf::Small => &self.small_desc[r],
            Buf::BulkDst => self.bulk_dst_desc.as_ref().expect("bulk phase registers its buffers"),
            _ => unreachable!("only small and bulk-destination buffers are put targets"),
        }
    }

    /// Latest virtual time of either rank.
    pub fn vnow(&self) -> u64 {
        self.p[0].now().as_nanos().max(self.p[1].now().as_nanos())
    }

    /// Work requests each simulated NIC has posted (`None` on sockets).
    fn nic_posts(&self) -> Option<[u64; 2]> {
        match self.cluster.fabric_handle() {
            photon_core::photon::FabricHandle::Sim(c) => Some([0, 1].map(|r| {
                let k = c.nic(r).counters();
                k.sends + k.writes + k.reads + k.atomics
            })),
            photon_core::photon::FabricHandle::Sock(_) => None,
        }
    }
}

/// Completion bookkeeping and the independent checks, shared by every
/// phase of a round.
#[derive(Default)]
pub struct Book {
    seed: u64,
    local: [RidLedger; 2],
    remote: [RidLedger; 2],
    expect: [HashMap<(bool, u64), Expect>; 2],
    /// Op id → completions it still owes.
    open: HashMap<u64, u8>,
    /// Ops that finished since the phase last looked.
    done: Vec<u64>,
    failed: HashSet<u64>,
    /// Failures not tied to one op (a phase-level check).
    failed_extra: u64,
    pub errors: Vec<String>,
    /// Wall time the benchmark spent filling and checking payloads.
    check_ns: u64,
    scratch: Vec<Completion>,
    pub polls: u64,
    pub empty_polls: u64,
    pub post_tries: u64,
    pub post_stalls: u64,
    /// Items posted through `try_put_many`.
    pub batched_items: u64,
    /// Wall and virtual post time of every open op, and the latest virtual
    /// completion time seen for it so far.
    posted_at: HashMap<u64, (Instant, u64, u64)>,
    /// Wall and virtual time each finished op took from post to its last
    /// completion.
    pub op_ns: Vec<u64>,
    pub op_vns: Vec<u64>,
    /// Virtual time each finished op finished at (taken by the phase that
    /// cares).
    done_vts: Vec<u64>,
    last_progress: Option<Instant>,
}

impl Book {
    pub fn new(seed: u64) -> Book {
        Book { seed, ..Book::default() }
    }

    pub fn failed(&self) -> u64 {
        self.failed.len() as u64 + self.failed_extra
    }

    fn note(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn fail(&mut self, id: u64, msg: String) {
        self.failed.insert(id);
        self.note(msg);
    }

    /// A phase-level check failed: count `ops` more failed ops.
    pub fn fail_phase(&mut self, ops: u64, msg: String) {
        self.failed_extra += ops;
        self.note(msg);
    }

    fn open_op(&mut self, id: u64, owed: u8, (t, v): (Instant, u64)) {
        self.open.insert(id, owed);
        self.posted_at.insert(id, (t, v, v));
    }

    fn settle(&mut self, id: u64, ts: u64) {
        if let Some(p) = self.posted_at.get_mut(&id) {
            p.2 = p.2.max(ts);
        }
        if let Some(n) = self.open.get_mut(&id) {
            *n -= 1;
            if *n == 0 {
                self.open.remove(&id);
                self.done.push(id);
                if let Some((t, v, done)) = self.posted_at.remove(&id) {
                    self.op_ns.push(t.elapsed().as_nanos() as u64);
                    self.op_vns.push(done - v);
                    self.done_vts.push(done);
                }
            }
        }
    }

    /// Fill `len` bytes of rank `r`'s `buf` at `off` with op `id`'s pattern.
    fn fill(&mut self, env: &Env, r: usize, buf: Buf, off: usize, len: usize, id: u64) {
        let t = Instant::now();
        let mut bytes = vec![0u8; len];
        fill_pattern(self.seed, id, &mut bytes);
        env.mem[r].buf(buf).write_at(off, &bytes);
        self.check_ns += t.elapsed().as_nanos() as u64;
    }

    /// Probe rank `r` once and check everything it surfaces.
    pub fn pump(&mut self, env: &Env, r: usize, tr: &mut Tracer, parent: SpanId) -> usize {
        let mut got = std::mem::take(&mut self.scratch);
        got.clear();
        let s = tr.begin("core.poll", parent, 0);
        let res = env.p[r].poll_completions(ProbeFlags::Any, &mut got, 64);
        tr.end(s, got.len() as u64);
        self.polls += 1;
        if let Err(e) = res {
            self.note(format!("poll on rank {r}: {e}"));
        }
        if got.is_empty() {
            self.empty_polls += 1;
        } else {
            self.last_progress = Some(Instant::now());
        }
        for c in &got {
            self.observe(env, r, c);
        }
        let n = got.len();
        self.scratch = got;
        n
    }

    /// Probe rank 1, then rank 0; when neither had anything, hand the core
    /// to the threads that must produce it (sockets reactors), the way the
    /// program's own blocking waits do.
    pub fn pump_both(&mut self, env: &Env, tr: &mut Tracer, parent: SpanId) {
        if self.pump(env, 1, tr, parent) + self.pump(env, 0, tr, parent) == 0 {
            std::thread::yield_now();
        }
    }

    fn observe(&mut self, env: &Env, r: usize, c: &Completion) {
        let t = Instant::now();
        let remote = c.class == CompletionClass::Remote;
        let seen = if remote {
            self.remote[r].observe(c.rid, c.is_ok(), Some(c.size))
        } else {
            self.local[r].observe(c.rid, c.is_ok(), None)
        };
        let verdict = seen.and_then(|()| match self.expect[r].remove(&(remote, c.rid)) {
            Some(e) => self.verify(env, r, c.rid, e),
            None => Ok(()),
        });
        self.check_ns += t.elapsed().as_nanos() as u64;
        if let Err(e) = verdict {
            self.fail(c.rid, e);
        }
        self.settle(c.rid, c.ts.as_nanos());
    }

    fn verify(&self, env: &Env, r: usize, id: u64, e: Expect) -> Result<(), String> {
        let got = env.mem[r].buf(e.buf).to_vec(e.off, e.len);
        let ok = match e.want {
            Want::Pattern(pid) => check::payload_ok(self.seed, pid, &got),
            Want::Gsrc(off) => got == env.gsrc_want[off..off + e.len],
            Want::BulkGsrc(off) => got == env.bulk_gsrc_want[off..off + e.len],
        };
        if ok {
            Ok(())
        } else {
            Err(format!("op {id:#x}: payload at rank {r} differs from the seeded pattern"))
        }
    }

    /// Try to post an 8 B-or-bulk PWC from rank `r` to the other rank.
    #[allow(clippy::too_many_arguments)]
    fn try_put(
        &mut self,
        env: &Env,
        r: usize,
        id: u64,
        (src, soff): (Buf, usize),
        (dst, doff): (Buf, usize),
        len: usize,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> bool {
        let peer = 1 - r;
        self.post_tries += 1;
        let at = (Instant::now(), env.p[r].now().as_nanos());
        let s = tr.begin("core.put", parent, id);
        let res = env.p[r].try_put_with_completion(
            peer,
            env.mem[r].buf(src),
            soff,
            len,
            env.desc(peer, dst),
            doff,
            id,
            id,
        );
        tr.end(s, matches!(res, Ok(true)) as u64);
        match res {
            Ok(true) => {
                self.local[r].post(id, len);
                self.remote[peer].post(id, len);
                let e = Expect { buf: dst, off: doff, len, want: Want::Pattern(id) };
                self.expect[peer].insert((true, id), e);
                self.open_op(id, 2, at);
                true
            }
            Ok(false) => {
                self.post_stalls += 1;
                false
            }
            Err(e) => {
                // Count the op and move on so the phase still ends.
                self.fail(id, format!("put {id:#x}: {e}"));
                true
            }
        }
    }

    /// Post a get into rank 0's `land` buffer from one of rank 1's seeded
    /// sources.
    #[allow(clippy::too_many_arguments)]
    fn get(
        &mut self,
        env: &Env,
        id: u64,
        (land, loff): (Buf, usize),
        bulk: bool,
        soff: usize,
        len: usize,
        tr: &mut Tracer,
        parent: SpanId,
    ) {
        let (src, want) = if bulk {
            (
                &env.bulk_gsrc.as_ref().expect("bulk phase registers its buffers").1,
                Want::BulkGsrc(soff),
            )
        } else {
            (&env.gsrc_desc, Want::Gsrc(soff))
        };
        let at = (Instant::now(), env.p[0].now().as_nanos());
        let s = tr.begin("core.get", parent, id);
        let res = env.p[0].get_with_completion(1, env.mem[0].buf(land), loff, len, src, soff, id);
        tr.end(s, res.is_ok() as u64);
        match res {
            Ok(()) => {
                self.local[0].post(id, len);
                self.expect[0].insert((false, id), Expect { buf: land, off: loff, len, want });
                self.open_op(id, 1, at);
            }
            Err(e) => self.fail(id, format!("get {id:#x}: {e}")),
        }
    }

    /// Post up to one batch of consecutive small puts (ids `id0..id0+n`)
    /// with `try_put_many`; returns how many were posted.
    fn put_many(
        &mut self,
        env: &Env,
        id0: u64,
        n: usize,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> usize {
        let items: Vec<PutManyItem> = (0..n as u64)
            .map(|k| {
                let id = id0 + k;
                let off = PUT_OFF + (id as usize % SLOTS) * SMALL;
                PutManyItem { loff: off, len: SMALL, doff: off, local_rid: id, remote_rid: id }
            })
            .collect();
        self.post_tries += 1;
        let at = (Instant::now(), env.p[0].now().as_nanos());
        let s = tr.begin("core.put_many", parent, id0);
        let res = env.p[0].try_put_many(1, &env.mem[0].small, &env.small_desc[1], &items);
        let posted = *res.as_ref().unwrap_or(&0);
        tr.end(s, posted as u64);
        match res {
            Ok(0) => self.post_stalls += 1,
            Ok(k) => {
                self.batched_items += k as u64;
                for it in &items[..k] {
                    let id = it.local_rid;
                    self.local[0].post(id, SMALL);
                    self.remote[1].post(id, SMALL);
                    let e = Expect {
                        buf: Buf::Small,
                        off: it.doff,
                        len: SMALL,
                        want: Want::Pattern(id),
                    };
                    self.expect[1].insert((true, id), e);
                    self.open_op(id, 2, at);
                }
            }
            Err(e) => {
                for it in &items {
                    self.fail(it.local_rid, format!("put_many {:#x}: {e}", it.local_rid));
                }
                return n;
            }
        }
        posted
    }

    /// Probe both ranks until `done` holds; false (and every open op
    /// failed) when nothing surfaces for [`STUCK`].
    fn wait(
        &mut self,
        env: &Env,
        tr: &mut Tracer,
        parent: SpanId,
        done: impl Fn(&Book) -> bool,
    ) -> bool {
        self.last_progress = Some(Instant::now());
        while !done(self) {
            self.pump_both(env, tr, parent);
            if self.stuck() {
                return false;
            }
        }
        true
    }

    fn stuck(&mut self) -> bool {
        if self.last_progress.is_some_and(|t| t.elapsed() > STUCK) {
            let open: Vec<u64> = self.open.drain().map(|(id, _)| id).collect();
            for id in open {
                self.fail(id, format!("op {id:#x}: completion never surfaced"));
            }
            return true;
        }
        false
    }

    /// Every posted rid must have surfaced by the end of the round.
    pub fn close(&mut self) {
        let missing: usize =
            (0..2).map(|r| self.local[r].missing() + self.remote[r].missing()).sum();
        if missing > 0 {
            self.fail_phase(0, format!("{missing} posted rids never surfaced"));
        }
    }
}

/// Timings of one 8 B ping-pong phase.
pub struct PingPong {
    pub wall_ns: Vec<u64>,
    pub vrtt_ns: Vec<u64>,
}

/// `iters` 8 B ping-pongs from rank 0; ids from `base`.
pub fn ping_pong(env: &Env, book: &mut Book, base: u64, iters: u64, tr: &mut Tracer) -> PingPong {
    let phase = tr.begin("phase.ping_pong", NONE, base);
    let mut out = PingPong { wall_ns: Vec::new(), vrtt_ns: Vec::new() };
    for i in 0..iters {
        let (ping, pong) = (base + 2 * i, base + 2 * i + 1);
        let slot = (i as usize % SLOTS) * SMALL;
        book.fill(env, 0, Buf::Small, PUT_OFF + slot, SMALL, ping);
        book.fill(env, 1, Buf::Small, PONG_OFF + slot, SMALL, pong);
        let op = tr.begin("pwc.round_trip", phase, ping);
        let (t, v) = (Instant::now(), env.p[0].now().as_nanos());
        let to = (Buf::Small, PUT_OFF + slot);
        while !book.try_put(env, 0, ping, to, to, SMALL, tr, op) {
            book.pump_both(env, tr, op);
        }
        if !book.wait(env, tr, op, |b| !b.remote[1].is_pending(ping)) {
            tr.end(op, 0);
            break;
        }
        let back = (Buf::Small, PONG_OFF + slot);
        while !book.try_put(env, 1, pong, back, back, SMALL, tr, op) {
            book.pump_both(env, tr, op);
        }
        if !book.wait(env, tr, op, |b| !b.remote[0].is_pending(pong)) {
            tr.end(op, 0);
            break;
        }
        out.wall_ns.push(t.elapsed().as_nanos() as u64);
        out.vrtt_ns.push(env.p[0].now().as_nanos() - v);
        tr.end(op, 0);
        if !book
            .wait(env, tr, phase, |b| !b.open.contains_key(&ping) && !b.open.contains_key(&pong))
        {
            break;
        }
    }
    tr.end(phase, iters);
    out
}

/// `n` one-way 8 B PWCs from rank 0, one at a time: each op ends when both
/// its completions surfaced. Returns each op's wall time and virtual time
/// from post to its last completion.
pub fn one_way(env: &Env, book: &mut Book, base: u64, n: u64, tr: &mut Tracer) -> PingPong {
    let phase = tr.begin("phase.one_way", NONE, base);
    let mut out = PingPong { wall_ns: Vec::new(), vrtt_ns: Vec::new() };
    book.op_vns.clear();
    for id in base..base + n {
        let slot = PUT_OFF + (id as usize % SLOTS) * SMALL;
        book.fill(env, 0, Buf::Small, slot, SMALL, id);
        let op = tr.begin("core.pwc", phase, id);
        let t = Instant::now();
        let to = (Buf::Small, slot);
        while !book.try_put(env, 0, id, to, to, SMALL, tr, op) {
            book.pump_both(env, tr, op);
        }
        let ok = book.wait(env, tr, op, |b| !b.open.contains_key(&id));
        tr.end(op, 0);
        if !ok {
            break;
        }
        out.wall_ns.push(t.elapsed().as_nanos() as u64);
    }
    tr.end(phase, n);
    out.vrtt_ns = std::mem::take(&mut book.op_vns);
    out
}

/// One item of the windowed small-op phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    Put(u64),
    /// `n` consecutive puts from id `.0`.
    Batch(u64, usize),
    /// A get of `SMALL` bytes at this source offset.
    Get(u64, usize),
}

impl Item {
    fn ops(self) -> usize {
        match self {
            Item::Batch(_, n) => n,
            _ => 1,
        }
    }
}

/// The seeded item stream of the windowed phase: exactly `ops` ops, split
/// between the kinds in proportion to `weights` (single puts and gets count
/// one op, a batch [`BATCH`]), in seeded order.
pub fn mix_items(seed: u64, ops: u64, weights: [u64; 3]) -> Vec<Item> {
    let mut r = Rng::new(seed, 0x004D_4958);
    let per = [1, BATCH as u64, 1];
    let unit: u64 = weights.iter().zip(per).map(|(w, p)| w * p).sum();
    let mut count: Vec<u64> = (0..3).map(|k| ops * weights[k] / unit).collect();
    // Whatever the integer split leaves over goes to single puts.
    count[0] += ops - count.iter().zip(per).map(|(c, p)| c * p).sum::<u64>();
    let mut kinds: Vec<usize> =
        (0..3).flat_map(|k| std::iter::repeat_n(k, count[k] as usize)).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, r.below(i as u64 + 1) as usize);
    }
    let mut id = MIX_BASE;
    kinds
        .into_iter()
        .map(|k| {
            let item = match k {
                0 => Item::Put(id),
                1 => Item::Batch(id, BATCH),
                _ => Item::Get(id, r.below((GSRC_BYTES / SMALL) as u64) as usize * SMALL),
            };
            id += item.ops() as u64;
            item
        })
        .collect()
}

/// Wall and modeled time of one windowed phase.
pub struct Phase {
    pub ops: u64,
    pub bytes: u64,
    /// Modeled goodput in B/s of the puts (rank 0 → rank 1) and of the gets
    /// (rank 1 → rank 0), each over its own virtual span (bulk phase only).
    pub dir_goodput: [f64; 2],
    pub wall_ns: u64,
    /// Wall time the benchmark spent filling and checking payloads.
    pub check_ns: u64,
    pub vns: u64,
    /// Work requests the busier NIC posted (sim only).
    pub nic_posts: Option<u64>,
    /// Virtual time of every op from post to its last completion.
    pub op_vns: Vec<u64>,
}

/// The windowed small-op phase: at most [`WINDOW`] ops outstanding.
pub fn mix(env: &Env, book: &mut Book, items: &[Item], tr: &mut Tracer) -> Phase {
    let phase = tr.begin("phase.mix", NONE, MIX_BASE);
    book.op_vns.clear();
    let ops: u64 = items.iter().map(|i| i.ops() as u64).sum();
    let (t, v, posts0, c0) = (Instant::now(), env.vnow(), env.nic_posts(), book.check_ns);
    let mut next = 0usize;
    // Ops of a partly posted batch already on the wire.
    let mut batch_done = 0usize;
    book.last_progress = Some(Instant::now());
    loop {
        if let Some(&item) = items.get(next) {
            let want = item.ops() - batch_done;
            if book.open.len() + want <= WINDOW {
                let posted = match item {
                    Item::Put(id) => {
                        let off = PUT_OFF + (id as usize % SLOTS) * SMALL;
                        book.fill(env, 0, Buf::Small, off, SMALL, id);
                        book.try_put(
                            env,
                            0,
                            id,
                            (Buf::Small, off),
                            (Buf::Small, off),
                            SMALL,
                            tr,
                            phase,
                        )
                    }
                    Item::Get(id, soff) => {
                        let land = (Buf::Small, LAND_OFF + (id as usize % SLOTS) * SMALL);
                        book.get(env, id, land, false, soff, SMALL, tr, phase);
                        true
                    }
                    Item::Batch(id0, n) => {
                        if batch_done == 0 {
                            for id in id0..id0 + n as u64 {
                                let off = PUT_OFF + (id as usize % SLOTS) * SMALL;
                                book.fill(env, 0, Buf::Small, off, SMALL, id);
                            }
                        }
                        let first = id0 + batch_done as u64;
                        batch_done += book.put_many(env, first, n - batch_done, tr, phase);
                        batch_done == n
                    }
                };
                if posted {
                    next += 1;
                    batch_done = 0;
                    continue;
                }
            }
        } else if book.open.is_empty() {
            break;
        }
        book.pump_both(env, tr, phase);
        if book.stuck() {
            book.fail_phase(0, "windowed phase stalled".into());
            break;
        }
    }
    let wall_ns = t.elapsed().as_nanos() as u64;
    tr.end(phase, ops);
    Phase {
        ops,
        bytes: ops * SMALL as u64,
        dir_goodput: [0.0; 2],
        wall_ns,
        check_ns: book.check_ns - c0,
        vns: env.vnow() - v,
        nic_posts: posts_delta(posts0, env.nic_posts()),
        op_vns: std::mem::take(&mut book.op_vns),
    }
}

fn posts_delta(before: Option<[u64; 2]>, after: Option<[u64; 2]>) -> Option<u64> {
    let (b, a) = (before?, after?);
    Some((a[0] - b[0]).max(a[1] - b[1]))
}

/// The seeded bulk items `(is_put, bytes)`: the first half puts, the
/// second half gets (so the two directions of the full-duplex link are
/// not loaded at once), each of a seeded size in `BULK_MIN..=BULK_MAX`.
pub fn bulk_items(seed: u64, ops: u64) -> Vec<(bool, usize)> {
    let mut r = Rng::new(seed, 0x4255_4C4B);
    (0..ops)
        .map(|i| {
            (i < ops / 2, (BULK_MIN + r.below((BULK_MAX - BULK_MIN) as u64 + 1) as usize) & !7)
        })
        .collect()
}

/// Bulk PWC puts and gets at window [`BULK_WINDOW`], one slot per
/// outstanding op.
pub fn bulk(env: &Env, book: &mut Book, items: &[(bool, usize)], tr: &mut Tracer) -> Phase {
    let phase = tr.begin("phase.bulk", NONE, BULK_BASE);
    let (t, v, posts0, c0) = (Instant::now(), env.vnow(), env.nic_posts(), book.check_ns);
    let mut free: Vec<usize> = (0..BULK_WINDOW).rev().collect();
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    let mut next = 0usize;
    let mut bytes = 0u64;
    // Finished ops in order; `book.op_vns` and `book.done_vts` run in step.
    let mut order: Vec<u64> = Vec::with_capacity(items.len());
    book.done.clear();
    book.op_vns.clear();
    book.done_vts.clear();
    book.last_progress = Some(Instant::now());
    loop {
        for id in book.done.drain(..) {
            order.push(id);
            if let Some(s) = slot_of.remove(&id) {
                free.push(s);
            }
        }
        if next < items.len() && !free.is_empty() {
            let id = BULK_BASE + next as u64;
            let (is_put, len) = items[next];
            let slot = *free.last().expect("checked non-empty");
            let off = slot * BULK_MAX;
            let posted = if is_put {
                book.fill(env, 0, Buf::BulkSrc, off, len, id);
                book.try_put(env, 0, id, (Buf::BulkSrc, off), (Buf::BulkDst, off), len, tr, phase)
            } else {
                book.get(env, id, (Buf::BulkLand, off), true, 0, len, tr, phase);
                true
            };
            if posted {
                free.pop();
                slot_of.insert(id, slot);
                bytes += len as u64;
                next += 1;
                continue;
            }
        } else if next == items.len() && book.open.is_empty() {
            break;
        }
        book.pump_both(env, tr, phase);
        if book.stuck() {
            book.fail_phase(0, "bulk phase stalled".into());
            break;
        }
    }
    let wall_ns = t.elapsed().as_nanos() as u64;
    tr.end(phase, items.len() as u64);
    order.extend(book.done.drain(..));
    // (post, done, bytes) in virtual time of the puts and of the gets.
    let mut dirs: [Vec<(u64, u64, u64)>; 2] = [Vec::new(), Vec::new()];
    for (k, id) in order.iter().enumerate() {
        let (is_put, len) = items[(id - BULK_BASE) as usize];
        let done = book.done_vts[k];
        dirs[usize::from(!is_put)].push((done - book.op_vns[k], done, len as u64));
    }
    book.op_vns.clear();
    book.done_vts.clear();
    Phase {
        ops: items.len() as u64,
        bytes,
        dir_goodput: dirs.map(|d| check::span_goodput(&d)),
        wall_ns,
        check_ns: book.check_ns - c0,
        vns: env.vnow() - v,
        nic_posts: posts_delta(posts0, env.nic_posts()),
        op_vns: Vec::new(),
    }
}

fn mib_per_s(bytes: u64, ns: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / (ns as f64 / 1e9)
}

/// One whole round: boot, warm up, then the timed phases on fresh state.
pub fn round(spec: &Spec, seed: u64, tr: &mut Tracer) -> Round {
    let mix_items = mix_items(seed, spec.mix_ops, spec.weights);
    let bulk_items = bulk_items(seed, spec.bulk_ops);
    let attempted = spec.pp_iters * 2 + spec.mix_ops + spec.bulk_ops;
    let t = Instant::now();
    let env = match Env::new(spec, seed) {
        Ok(e) => e,
        Err(e) => return Round::broken(attempted, e),
    };
    let mut book = Book::new(seed);
    let mut quiet = Tracer::new(false);
    ping_pong(&env, &mut book, WARM_BASE, WARM_ITERS, &mut quiet);
    let setup_s = t.elapsed().as_secs_f64();

    let model = NetworkModel::ib_fdr();
    let sim = spec.backend == BackendKind::Sim;
    let mut round = Round::new(setup_s, attempted);
    // Bulk first: its few large messages then meet an empty port calendar,
    // so goodput reflects bandwidth, not the per-message booking cost.
    let bulk = (spec.bulk_ops > 0).then(|| bulk(&env, &mut book, &bulk_items, tr));
    let pp = ping_pong(&env, &mut book, PP_BASE, spec.pp_iters, tr);
    let mixed = mix(&env, &mut book, &mix_items, tr);
    book.close();

    let mut lat: Vec<f64> = pp.wall_ns.iter().map(|&n| n as f64 / 1e3).collect();
    round.set("lat_p50_us", median(&mut lat));

    // Throughputs are the windowed phase's ops over its whole wall (less
    // the benchmark's own pattern fills and compares) and virtual time, so
    // every stall of the program counts. The isolated ping-pong's modeled
    // round trip is an analytic constant (checked against the LogGP floor
    // below); the windowed ops' modeled latency depends on the seeded mix
    // and on every per-message cost the model charges.
    let ops_per_s = mixed.ops as f64 / ((mixed.wall_ns - mixed.check_ns) as f64 / 1e9);
    let modeled_ops_per_s = mixed.ops as f64 / (mixed.vns as f64 / 1e9);
    let vlat_ns = mixed.op_vns.iter().sum::<u64>() as f64 / mixed.op_vns.len().max(1) as f64;
    round.set("ops_per_s", ops_per_s);
    round.set("modeled_ops_per_s", modeled_ops_per_s);
    round.set("modeled_lat_us", vlat_ns / 1e3);
    if let Some(b) = &bulk {
        // The benchmark's own pattern fills and compares are not the
        // program's time.
        round.set("goodput_MiBps", mib_per_s(b.bytes, b.wall_ns - b.check_ns));
        round.set("modeled_goodput_MiBps", mib_per_s(b.bytes, b.vns));
        round.set(
            "bulk_ns_per_MiB",
            (b.wall_ns - b.check_ns) as f64 / (b.bytes as f64 / (1 << 20) as f64),
        );
    } else {
        round.set("goodput_MiBps", ops_per_s * SMALL as f64 / (1 << 20) as f64);
        round.set("modeled_goodput_MiBps", modeled_ops_per_s * SMALL as f64 / (1 << 20) as f64);
    }
    if sim {
        if let Some(&min_rtt) = pp.vrtt_ns.iter().min() {
            if let Err(e) = check::oneway_floor(&model, SMALL, min_rtt as f64) {
                book.fail_phase(spec.pp_iters * 2, e);
            }
        }
        // Every windowed op ends with at least one message crossing.
        let under = mixed
            .op_vns
            .iter()
            .filter(|&&v| check::oneway_floor(&model, SMALL, 2.0 * v as f64).is_err())
            .count();
        if under > 0 {
            book.fail_phase(
                under as u64,
                format!("{under} windowed ops under the LogGP one-way floor"),
            );
        }
        for ph in [Some(&mixed), bulk.as_ref()].into_iter().flatten() {
            if let Some(posts) = ph.nic_posts {
                let rate = posts as f64 / (ph.vns as f64 / 1e9);
                if let Err(e) = check::msg_rate_ceiling(&model, rate) {
                    book.fail_phase(ph.ops, e);
                }
            }
        }
        if let Some(b) = &bulk {
            // Links are full duplex: puts and gets each get the bandwidth.
            for rate in b.dir_goodput {
                if let Err(e) = check::goodput_ceiling(&model, rate) {
                    book.fail_phase(b.ops, e);
                }
            }
        }
    }
    // Counters for the traced run: probe and post outcomes seen at the
    // benchmark's calls, and frames per wire post from the core registry.
    let stats = [env.p[0].stats(), env.p[1].stats()];
    let frames: u64 = stats.iter().map(|s| s.puts_eager + s.puts_direct + s.gets).sum();
    let batch_posts: u64 = stats.iter().map(|s| s.batch_posts).sum();
    let posts = frames - book.batched_items + batch_posts;
    round.count("polls", book.polls as f64);
    round.count("empty_polls", book.empty_polls as f64);
    round.count("post_tries", book.post_tries as f64);
    round.count("post_stalls", book.post_stalls as f64);
    round.count("frames_per_post", frames as f64 / posts.max(1) as f64);
    round.lat_us = lat;
    round.op_ns = std::mem::take(&mut book.op_ns);
    round.failed = book.failed().min(attempted);
    round.errors = std::mem::take(&mut book.errors);
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Spec = Spec {
        backend: BackendKind::Sim,
        pp_iters: 4,
        mix_ops: 640,
        weights: [16, 1, 16],
        bulk_ops: 0,
    };

    fn put_one(env: &Env, book: &mut Book, id: u64, corrupt: bool) {
        let slot = (Buf::Small, PUT_OFF);
        book.fill(env, 0, Buf::Small, PUT_OFF, SMALL, id);
        if corrupt {
            let mut b = env.mem[0].small.to_vec(PUT_OFF, SMALL);
            b[3] ^= 0x10;
            env.mem[0].small.write_at(PUT_OFF, &b);
        }
        let mut tr = Tracer::new(false);
        assert!(book.try_put(env, 0, id, slot, slot, SMALL, &mut tr, NONE));
        assert!(book.wait(env, &mut tr, NONE, |b| b.open.is_empty()));
    }

    #[test]
    fn clean_round_passes_every_check() {
        let r = round(&TINY, 7, &mut Tracer::new(false));
        assert_eq!(r.failed, 0, "{:?}", r.errors);
        for (name, _) in crate::E2E.iter().filter(|(n, _)| *n != "peak_rss_MiB") {
            assert!(r.metrics[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn flipped_payload_byte_fails_its_op() {
        let env = Env::new(&TINY, 7).unwrap();
        let mut book = Book::new(7);
        put_one(&env, &mut book, 1, false);
        assert_eq!(book.failed(), 0);
        put_one(&env, &mut book, 2, true);
        assert_eq!(book.failed(), 1, "{:?}", book.errors);
    }

    #[test]
    fn duplicated_completion_fails_its_op() {
        let env = Env::new(&TINY, 7).unwrap();
        let mut book = Book::new(7);
        put_one(&env, &mut book, 1, false);
        let dup = Completion {
            rid: 1,
            peer: 0,
            ts: env.p[1].now(),
            status: photon_core::WcStatus::Success,
            class: CompletionClass::Remote,
            size: SMALL,
            payload: None,
        };
        book.observe(&env, 1, &dup);
        assert_eq!(book.failed(), 1);
        assert!(book.errors[0].contains("twice"), "{:?}", book.errors);
    }
}
