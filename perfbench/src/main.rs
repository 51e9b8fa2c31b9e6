//! photon-rs benchmark: one process per workload, one load-generating
//! thread, closed loops with fixed op counts per round.
//!
//! ```text
//! perfbench --workload pwc_fdr|dht_fdr|sock_loopback --seed N --seconds S
//!           --trace 0|1 [--scale K]
//! ```
//!
//! A run repeats whole rounds (boot, warm-up, timed phases, teardown) with
//! the same seeded inputs until `--seconds` have passed, and reports each
//! metric's median over rounds. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set from
//! a traced round plus the layer ladder (spans go to [`OUT_DIR`]`/trace_<w>.json`).

mod check;
mod dht;
mod ladder;
mod pwc;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{median, percentile, Json};

/// Where traced runs write their spans, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

/// Span rows a trace file holds at most (the summary covers every span).
const SPAN_ROWS: usize = 100_000;

/// Rounds every run makes at least, however short `--seconds` is, unless
/// they take longer than [`HARD_STOP`] together.
const MIN_ROUNDS: usize = 3;
const HARD_STOP: Duration = Duration::from_secs(120);

/// Rounds whose per-op samples are kept for the wall-clock tails (a fixed
/// count, so the samples' memory does not depend on the run's speed).
const SAMPLED_ROUNDS: usize = 10;

/// A round's end-to-end metrics (unit per name).
pub const E2E: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("goodput_MiBps", "MiB/s"),
    ("modeled_ops_per_s", "1/s"),
    ("modeled_lat_us", "us"),
    ("modeled_goodput_MiBps", "MiB/s"),
    ("setup_s", "s"),
    ("peak_rss_MiB", "MiB"),
];

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Counters for the traced run (not end-to-end metrics).
    pub counters: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind `lat_p50_us`, in µs.
    pub lat_us: Vec<f64>,
    /// Wall time of every op from post to its last completion.
    pub op_ns: Vec<u64>,
    pub errors: Vec<String>,
}

impl Round {
    pub fn new(setup_s: f64, attempted: u64) -> Round {
        let mut r = Round { attempted, ..Round::default() };
        r.set("setup_s", setup_s);
        r
    }

    /// A round that could not boot: every op counts as failed.
    pub fn broken(attempted: u64, why: String) -> Round {
        Round { attempted, failed: attempted, errors: vec![why], ..Round::default() }
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        self.counters.insert(name, v);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PwcFdr,
    DhtFdr,
    SockLoopback,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "pwc_fdr" => Some(Workload::PwcFdr),
            "dht_fdr" => Some(Workload::DhtFdr),
            "sock_loopback" => Some(Workload::SockLoopback),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PwcFdr => "pwc_fdr",
            Workload::DhtFdr => "dht_fdr",
            Workload::SockLoopback => "sock_loopback",
        }
    }

    /// One round with every timed op count multiplied by `scale`.
    pub fn round(self, seed: u64, scale: u64, tr: &mut Tracer) -> Round {
        let pwc = |s: pwc::Spec| pwc::Spec {
            pp_iters: s.pp_iters * scale,
            mix_ops: s.mix_ops * scale,
            bulk_ops: s.bulk_ops * scale,
            ..s
        };
        match self {
            Workload::PwcFdr => pwc::round(&pwc(pwc::PWC_FDR), seed, tr),
            Workload::DhtFdr => {
                dht::round(&dht::Spec { ops: dht::DHT_FDR.ops * scale, ..dht::DHT_FDR }, seed, tr)
            }
            Workload::SockLoopback => pwc::round(&pwc(pwc::SOCK_LOOPBACK), seed, tr),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Multiplies every timed op count (default 1): shows how per-op cost
    /// grows with run length.
    scale: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace takes 0 or 1, not {t}")),
        },
        scale: match kv.get("--scale") {
            Some(_) => num("--scale")?.max(1),
            None => 1,
        },
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace", "--scale"].contains(k))
    {
        return Err(format!("unknown flag {k}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload pwc_fdr|dht_fdr|sock_loopback --seed N \
                 --seconds S --trace 0|1 [--scale K]"
            );
            std::process::exit(2);
        }
    };
    let result = if args.trace { traced(&args) } else { untraced(&args) };
    println!("{}", result.render());
}

/// Rounds a run keeps the figures of; later rounds still run and count.
const MAX_ROUNDS: usize = 8192;

/// What an untraced run keeps of its rounds: each round's end-to-end
/// figures in a buffer allocated and written before the first round, so the
/// benchmark's own memory does not grow with the number of rounds a faster
/// program fits into `--seconds` (`peak_rss_MiB` stays the program's).
struct Kept {
    vals: Vec<[f64; E2E.len()]>,
    n: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Per-op samples of the first [`SAMPLED_ROUNDS`] rounds.
    lat_us: Vec<f64>,
    op_us: Vec<f64>,
}

impl Kept {
    fn add(&mut self, r: Round, keep_samples: bool) {
        if self.n < MAX_ROUNDS {
            for (k, (name, _)) in E2E.iter().enumerate() {
                self.vals[self.n][k] = r.metrics.get(name).copied().unwrap_or(f64::NAN);
            }
            self.n += 1;
        }
        self.attempted += r.attempted;
        self.failed += r.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(r.errors.into_iter().take(room));
        if keep_samples {
            self.lat_us.extend(r.lat_us);
            self.op_us.extend(r.op_ns.iter().map(|&n| n as f64 / 1e3));
        }
    }

    /// Median over the kept rounds of metric `k` (rounds that could not
    /// measure it are skipped).
    fn median(&self, k: usize) -> f64 {
        let mut v: Vec<f64> =
            self.vals[..self.n].iter().map(|r| r[k]).filter(|x| !x.is_nan()).collect();
        median(&mut v)
    }
}

/// Rounds until `budget` has passed (at least [`MIN_ROUNDS`]).
fn rounds(w: Workload, seed: u64, scale: u64, budget: Duration) -> Kept {
    let mut kept = Kept {
        vals: vec![[f64::NAN; E2E.len()]; MAX_ROUNDS],
        n: 0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        lat_us: Vec::new(),
        op_us: Vec::new(),
    };
    let t = Instant::now();
    let mut count = 0;
    while t.elapsed() < budget || (count < MIN_ROUNDS && t.elapsed() < HARD_STOP) {
        kept.add(w.round(seed, scale, &mut Tracer::new(false)), count < SAMPLED_ROUNDS);
        count += 1;
    }
    kept
}

fn median_of(rounds: &[Round], name: &str) -> f64 {
    let mut v: Vec<f64> = rounds.iter().filter_map(|r| r.metrics.get(name).copied()).collect();
    median(&mut v)
}

fn tally(rounds: &[Round]) -> (u64, u64) {
    (rounds.iter().map(|r| r.attempted).sum(), rounds.iter().map(|r| r.failed).sum())
}

fn report_errors(rounds: &[Round]) {
    for e in rounds.iter().flat_map(|r| &r.errors).take(8) {
        eprintln!("perfbench: check failed: {e}");
    }
}

/// A wall-clock tail with its sample count, for the human-readable line:
/// the median and the highest of p99/p90/p75 with at least ten samples
/// beyond it (the median alone under forty samples).
fn tail(name: &str, mut samples: Vec<f64>) -> String {
    let n = samples.len();
    let mut out = format!("{name}: p50 {:.2}", median(&mut samples));
    if let Some(p) = [99.0, 90.0, 75.0].into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0) {
        out += &format!(" p{p:.0} {:.2}", percentile(&mut samples, p));
    }
    out + &format!(" (n={n})")
}

fn untraced(args: &Args) -> Json {
    let kept = rounds(args.workload, args.seed, args.scale, Duration::from_secs(args.seconds));
    let (attempted, failed) = (kept.attempted, kept.failed);
    for e in &kept.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let mut metrics = Vec::new();
    let mut ok = failed == 0;
    for (k, (name, unit)) in E2E.into_iter().enumerate() {
        let v = if name == "peak_rss_MiB" {
            util::peak_rss_mib().unwrap_or(f64::NAN)
        } else {
            kept.median(k)
        };
        ok &= v.is_finite() && v > 0.0;
        metrics.push((
            name,
            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]),
        ));
    }
    println!(
        "{} seed={} rounds={} | {} | {}",
        args.workload.name(),
        args.seed,
        kept.n,
        tail("lat_us", kept.lat_us),
        tail("op_us", kept.op_us)
    );
    Json::obj(vec![
        ("correct", Json::Bool(ok)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics.into_iter().map(|(k, v)| (k.to_string(), v)).collect())),
    ])
}

/// The per-layer metrics of the traced run (unit per name).
pub const PER_LAYER: [(&str, &str); 31] = [
    ("fabric.write_ns", "ns"),
    ("fabric.write_vns", "ns"),
    ("fabric.cost_growth", "ratio"),
    ("fabric.stalled_ops", "count"),
    ("core.put_call_ns", "ns"),
    ("core.put_many_item_ns", "ns"),
    ("core.get_call_ns", "ns"),
    ("core.poll_call_ns", "ns"),
    ("core.empty_poll_ratio", "ratio"),
    ("core.credit_stall_ratio", "ratio"),
    ("core.frames_per_post", "ratio"),
    ("core.pwc_ns", "ns"),
    ("core.pwc_vns", "ns"),
    ("core.pwc_added_ns", "ns"),
    ("core.bulk_ns_per_MiB", "ns/MiB"),
    ("rpc.kv_get_ns", "ns"),
    ("rpc.kv_get_vns", "ns"),
    ("rpc.attempts_per_call", "ratio"),
    ("runtime.parcels_per_op", "ratio"),
    ("ds.get_1s_ns", "ns"),
    ("ds.put_1s_ns", "ns"),
    ("ds.get_rpc_ns", "ns"),
    ("ds.put_rpc_ns", "ns"),
    ("ds.get_1s_vns", "ns"),
    ("ds.put_1s_vns", "ns"),
    ("ds.get_rpc_vns", "ns"),
    ("ds.put_rpc_vns", "ns"),
    ("ds.fallback_ratio", "ratio"),
    ("ds.rpc_added_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Traced run: untraced and traced rounds alternate over half of
/// `--seconds` (their `ops_per_s` medians give the tracing overhead), then
/// the layer ladder climbs on the workload's backend into the last traced
/// round's tracer. Per-layer values come from the ladder's rungs and from
/// the spans and counters of the traced round.
fn traced(args: &Args) -> Json {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds / 2);
    let t = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut tr = Tracer::new(true);
    while traced.is_empty() || t.elapsed() < budget {
        plain.push(w.round(args.seed, args.scale, &mut Tracer::new(false)));
        tr = Tracer::new(true);
        traced.push(w.round(args.seed, args.scale, &mut tr));
    }
    let lad = ladder::climb(w, args.seed, &mut tr);
    let traced_ops = median_of(&traced, "ops_per_s");
    let last = traced.pop().expect("at least one traced round");
    let mut v = lad.values.clone();

    // Per-call spans of the traced round and the ladder's core rung.
    v.insert("core.put_call_ns", tr.median_ns("core.put"));
    v.insert("core.get_call_ns", tr.median_ns("core.get"));
    v.insert("core.poll_call_ns", tr.median_ns("core.poll"));
    let (many_ns, many_items) =
        tr.named("core.put_many").fold((0, 0), |(n, k), s| (n + s.dur_ns(), k + s.arg));
    v.insert("core.put_many_item_ns", many_ns as f64 / many_items.max(1) as f64);
    let polls: Vec<_> = tr.named("core.poll").collect();
    let empty = polls.iter().filter(|s| s.arg == 0).count();
    v.insert("core.empty_poll_ratio", empty as f64 / polls.len().max(1) as f64);
    let posts: Vec<_> = tr.named("core.put").chain(tr.named("core.put_many")).collect();
    let stalls = posts.iter().filter(|s| s.arg == 0).count();
    v.insert("core.credit_stall_ratio", stalls as f64 / posts.len().max(1) as f64);
    // The workload's own layer counters where it has them.
    if let Some(&f) = last.counters.get("frames_per_post") {
        v.insert("core.frames_per_post", f);
    }
    if let Some(&b) = last.metrics.get("bulk_ns_per_MiB") {
        v.insert("core.bulk_ns_per_MiB", b);
    }
    let c = |k: &str| last.counters.get(k).copied();
    if let (Some(p), Some(calls), Some(att), Some(fb)) =
        (c("parcels"), c("rpc_calls"), c("rpc_attempts"), c("ds_fallbacks"))
    {
        v.insert("runtime.parcels_per_op", p / last.attempted as f64);
        v.insert("rpc.attempts_per_call", att / calls.max(1.0));
        v.insert("ds.fallback_ratio", fb / (last.attempted as f64 / 2.0));
    }
    let stall_ns = ladder::STALL.as_nanos() as u64;
    let stalled = last.op_ns.iter().chain(&lad.op_ns).filter(|&&n| n >= stall_ns).count();
    v.insert("fabric.stalled_ops", stalled as f64);
    let plain_ops = median_of(&plain, "ops_per_s");
    v.insert("trace.overhead_pct", (plain_ops - traced_ops) / plain_ops * 100.0);
    v.insert("trace.spans", tr.spans().len() as f64);

    let counters: Vec<(String, Json)> =
        last.counters.iter().map(|(k, &x)| (k.to_string(), Json::Num(x))).collect();
    let mut all = plain;
    all.extend(traced);
    all.push(last);
    all.push(Round {
        attempted: lad.attempted,
        failed: lad.failed,
        errors: lad.errors,
        ..Round::default()
    });
    let (attempted, failed) = tally(&all);
    report_errors(&all);
    let mut ok = failed == 0;
    let metrics: Vec<(String, Json)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let x = v.get(name).copied().unwrap_or(f64::NAN);
            ok &= x.is_finite();
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(x)), ("unit", Json::Str(unit.into()))]),
            )
        })
        .collect();
    let file = Json::obj(vec![
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Int(args.seed)),
        ("metrics", Json::Obj(metrics.clone())),
        ("counters", Json::Obj(counters)),
        ("span_summary", tr.summary()),
        ("spans", tr.rows(SPAN_ROWS)),
    ]);
    let path = format!("{OUT_DIR}/trace_{}.json", w.name());
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, file.render()))
    {
        eprintln!("perfbench: writing {path}: {e}");
        ok = false;
    }
    println!("{} seed={} traced rounds={} spans -> {path}", w.name(), args.seed, all.len() - 1);
    Json::obj(vec![
        ("correct", Json::Bool(ok)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}
