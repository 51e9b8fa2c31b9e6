//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records name, wall start and end, the span that caused it, one
//! id per operation, and a small outcome (`arg`: items posted, completions
//! harvested). Spans stay in memory until the run writes them out; with
//! tracing off, `begin`/`end` record nothing.

use crate::util::{median_u64, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle to an open span (`NONE` when tracing is off or for a root).
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u64,
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op, arg: 0 });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId, arg: u64) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.arg = arg;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration of the spans named `name` (0 when there are none).
    pub fn median_ns(&self, name: &str) -> f64 {
        let d: Vec<u64> = self.named(name).map(Span::dur_ns).collect();
        median_u64(&d)
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span never overlap: the benchmark is one
    /// thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Per-name totals: count, total and self wall ns, median ns, sum of
    /// `arg`.
    pub fn summary(&self) -> Json {
        let selfs = self.self_ns();
        let mut by: BTreeMap<&str, (Vec<u64>, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = by.entry(s.name).or_default();
            e.0.push(s.dur_ns());
            e.1 += own;
            e.2 += s.arg;
        }
        Json::Obj(
            by.into_iter()
                .map(|(name, (durs, own, arg))| {
                    let total: u64 = durs.iter().sum();
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("count", Json::Int(durs.len() as u64)),
                            ("total_ns", Json::Int(total)),
                            ("self_ns", Json::Int(own)),
                            ("median_ns", Json::Num(median_u64(&durs))),
                            ("arg_sum", Json::Int(arg)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Spans as `[name, start_ns, end_ns, parent, op, arg]` rows (`parent`
    /// is -1 for a root), at most `max`, leaving out probes that found
    /// nothing (the summary counts them; on the sockets backend they are
    /// most spans).
    pub fn rows(&self, max: usize) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .filter(|s| !(s.name == "core.poll" && s.arg == 0))
                .take(max)
                .map(|s| {
                    Json::Arr(vec![
                        Json::Str(s.name.to_string()),
                        Json::Int(s.start_ns),
                        Json::Int(s.end_ns),
                        if s.parent == NONE { Json::Num(-1.0) } else { Json::Int(s.parent as u64) },
                        Json::Int(s.op),
                        Json::Int(s.arg),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("phase", NONE, 0);
        let a = t.begin("call", root, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a, 3);
        t.end(root, 0);
        let selfs = t.self_ns();
        assert_eq!(selfs[0], t.spans()[0].dur_ns() - t.spans()[1].dur_ns());
        assert_eq!(selfs[1], t.spans()[1].dur_ns());
        assert!(t.median_ns("call") >= 2e6);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", NONE, 0);
        t.end(s, 1);
        assert!(t.spans().is_empty());
    }
}
