//! Sample summaries, the seeded generator, and the metric records the
//! benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: a small, seedable generator, so every op sequence is a pure
/// function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Draws choices in exact proportions: each cycle deals every choice
/// `counts[i]` times in a seeded order, so an op mix does not drift with
/// sampling noise from one seed to the next.
#[derive(Debug, Clone)]
pub struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// A deck dealing choice `i` `counts[i]` times per cycle.
    pub fn new(counts: &[usize]) -> Deck {
        let cards: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, n)| std::iter::repeat_n(i, *n))
            .collect();
        let next = cards.len();
        Deck { cards, next }
    }

    /// Whether the last draw completed a cycle (or none was drawn yet).
    pub fn cycle_done(&self) -> bool {
        self.next == self.cards.len()
    }

    /// Cards dealt per cycle.
    pub fn cycle_len(&self) -> usize {
        self.cards.len()
    }

    /// The next choice.
    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// FNV-1a, folded over everything that must repeat for a fixed seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Geometric mean of positive values (NaN when there are none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Value at nearest-rank percentile `pct` of ascending `sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of ascending `sorted`: the highest percentile with at least
/// ten samples beyond it, as `(percentile, value)` (the median when there
/// are too few samples for any tail).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= 20 {
        return (50.0, percentile(sorted, 50.0));
    }
    let rank = n - 10;
    (100.0 * rank as f64 / n as f64, sorted[rank - 1])
}

/// Latency samples of one op class.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Ascending copy of the samples.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        percentile(&self.sorted(), 50.0)
    }
}

/// One reported metric: value, unit, how many samples it summarizes, and
/// for a tail the percentile it was read at.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn new(value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            value,
            unit,
            samples,
            percentile: None,
        }
    }

    /// The median of `s`, scaled by `scale` (e.g. µs → ms).
    pub fn p50(s: &Samples, unit: &'static str, scale: f64) -> Metric {
        Metric::new(s.p50() * scale, unit, s.len() as u64)
    }

    /// The [`tail`] of `s`, scaled by `scale`.
    pub fn tail(s: &Samples, unit: &'static str, scale: f64) -> Metric {
        let (pct, v) = tail(&s.sorted());
        Metric {
            percentile: Some(pct),
            ..Metric::new(v * scale, unit, s.len() as u64)
        }
    }

    /// The percentile `pct` of `s`, scaled by `scale`.
    pub fn at(s: &Samples, pct: f64, unit: &'static str, scale: f64) -> Metric {
        Metric {
            percentile: Some(pct),
            ..Metric::new(percentile(&s.sorted(), pct) * scale, unit, s.len() as u64)
        }
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become null.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": …, "unit": …[, "samples": …, "percentile": …]}}`;
/// `detail` adds the sample count and tail percentile.
pub fn metrics_json(metrics: &BTreeMap<String, Metric>, detail: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let mut s = format!(
                "{}: {{\"value\": {}, \"unit\": {}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            );
            if detail {
                let _ = write!(s, ", \"samples\": {}", m.samples);
                if let Some(p) = m.percentile {
                    let _ = write!(s, ", \"percentile\": {p}");
                }
            }
            s.push('}');
            s
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=80).map(f64::from).collect();
        assert_eq!(tail(&v), (87.5, 70.0));
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 3.0));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a[0], r.next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
