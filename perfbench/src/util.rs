//! Seeded inputs, order statistics and a minimal JSON writer.

use std::fmt::Write as _;

/// SplitMix64: a small, fast, seedable generator. The benchmark derives
/// every input (op mixes, sizes, keys, payload bytes) from it, so the same
/// `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`: independent streams per
    /// purpose keep one input's draws from shifting another's.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Fill `buf` with the seeded byte pattern of operation `id`. The pattern
/// depends on nothing but `(seed, id)` and the byte position, so a checker
/// can regenerate it at the destination without trusting the program.
pub fn fill_pattern(seed: u64, id: u64, buf: &mut [u8]) {
    let mut r = Rng::new(seed, id ^ 0x5041_5454_4552_4E00);
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&r.next_u64().to_le_bytes());
    }
    let rest = chunks.into_remainder();
    let last = r.next_u64().to_le_bytes();
    rest.copy_from_slice(&last[..rest.len()]);
}

/// The seeded pattern of operation `id` as a fresh vector.
pub fn pattern(seed: u64, id: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_pattern(seed, id, &mut v);
    v
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty slice.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of integer samples, as `f64`.
pub fn median_u64(v: &[u64]) -> f64 {
    let mut f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median(&mut f)
}

/// One JSON value, written without external crates.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Non-finite values have no JSON spelling; they never reach a
            // metric (every metric is checked finite before printing).
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    it.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

/// Process high-water resident set size in MiB (`VmHWM`), or `None` where
/// the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_a_function_of_seed_and_id() {
        assert_eq!(pattern(7, 3, 13), pattern(7, 3, 13));
        assert_ne!(pattern(7, 3, 16), pattern(8, 3, 16));
        assert_ne!(pattern(7, 3, 16), pattern(7, 4, 16));
        // A prefix of a longer pattern is the shorter pattern.
        assert_eq!(pattern(7, 3, 64)[..13], pattern(7, 3, 13)[..]);
    }

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        assert_eq!(percentile(&mut v, 1.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn json_renders() {
        let j = Json::obj(vec![
            ("a", Json::Bool(true)),
            ("b", Json::Arr(vec![Json::Int(1), Json::Num(0.5)])),
            ("c", Json::Str("q\"".into())),
        ]);
        assert_eq!(j.render(), r#"{"a":true,"b":[1,0.5],"c":"q\""}"#);
    }
}
