//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic the per-layer metrics rest on.
//!
//! A span has a name, a start, an end, the request (`trace`) it belongs
//! to and the span that caused it. A span's *self time* is its duration
//! minus the part of its interval that its children cover; overlapping
//! children are counted once, and children reaching outside the parent
//! are clipped to it.

use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The request this span belongs to.
    pub trace: u32,
    /// Index of the parent span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `server.request_encode`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin (`>= start`).
    pub end: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span log for one thread of requests.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (share one origin across
    /// threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its index (the handle children name
    /// as their parent).
    pub fn record(
        &mut self,
        trace: u32,
        parent: Option<usize>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            trace,
            parent,
            name,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Moves a span's end (for a root span opened before its children).
    pub fn close(&mut self, span: usize, end: u64) {
        let s = &mut self.spans[span];
        s.end = end.max(s.start);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in order: each span's duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut covered)| s.duration().saturating_sub(union_len(&mut covered)))
        .collect()
}

/// Total length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            trace: 0,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span(None, 10, 35)];
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 20),
            span(Some(0), 50, 80),
        ];
        assert_eq!(self_times(&spans)[0], 60);
        assert_eq!(self_times(&spans)[1], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(None, 10, 50),
            span(Some(0), 0, 20),
            span(Some(0), 45, 90),
        ];
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        // root [0,100] ⊃ mid [10,60] ⊃ leaf [20,30]
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 50);
        assert_eq!(self_times(&spans)[1], 40);
        assert_eq!(self_times(&spans)[2], 10);
        // Self times partition the root: they sum to its duration.
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn a_fully_covered_parent_has_no_self_time() {
        let spans = vec![span(None, 0, 10), span(Some(0), 0, 10), span(Some(0), 2, 4)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_records_and_closes() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record(7, None, "client.call", 5, 5);
        t.record(7, Some(root), "server.request_encode", 6, 9);
        t.close(root, 20);
        assert_eq!(t.spans()[root].duration(), 15);
        assert_eq!(self_times(t.spans()), vec![12, 3]);
    }
}
