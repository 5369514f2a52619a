//! The traced run's latency ledger: self time per span name, and the part
//! of each request's client-observed TTFT that no layer span covers.

use std::collections::{BTreeMap, HashMap};

use cb_obs::trace::SpanRecord;

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per span name: (spans, summed duration, summed self time) in ns. A
/// span's self time is its duration minus the part of it its children
/// cover.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry((s.trace, s.parent))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let kids = children
            .get(&(s.trace, s.span))
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - kids;
    }
    out
}

/// Nanoseconds of `[lo, hi)` that no span of `trace` other than `root`
/// covers.
pub fn unattributed(spans: &[&SpanRecord], root: u64, lo: u64, hi: u64) -> u64 {
    let layers: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.span != root)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    hi.saturating_sub(lo) - covered(&layers, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, span: u64, parent: u64, name: &str, a: u64, b: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            name: name.into(),
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(covered(&[], 0, 10), 0);
        assert_eq!(covered(&[(10, 20)], 0, 5), 0);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span(1, 1, 0, "request", 0, 100),
            span(1, 2, 1, "queue", 0, 30),
            span(1, 3, 1, "serve", 30, 90),
            span(1, 4, 3, "prefill.fetch", 30, 40),
            span(1, 5, 3, "prefill.blend", 40, 80),
            // Overlaps its sibling: covered time counts once.
            span(1, 6, 3, "decode.step", 70, 85),
            // Same ids in another trace do not leak into trace 1.
            span(2, 3, 0, "serve", 0, 1000),
            span(2, 7, 3, "prefill.blend", 0, 500),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (1, 100, 10));
        assert_eq!(t["queue"], (1, 30, 30));
        assert_eq!(t["serve"], (2, 1060, 5 + 500));
        assert_eq!(t["prefill.blend"], (2, 540, 540));
    }

    #[test]
    fn unattributed_time_ignores_the_root() {
        let spans = [
            span(1, 1, 0, "client", 0, 100),
            span(1, 2, 1, "queue", 10, 30),
            span(1, 3, 1, "serve", 25, 60),
        ];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        assert_eq!(unattributed(&refs, 1, 0, 100), 50);
        assert_eq!(unattributed(&refs, 1, 0, 50), 10);
    }
}
