//! Spans recorded from the benchmark's own files around calls into the
//! product, and the self-time arithmetic over them.
//!
//! A traced request is an onion: the same probe is issued at every
//! nesting level in turn — over the wire, through the scheduler, through
//! the server, through a standalone index — because the product has no
//! spans inside it yet. A call that really runs inside another is a
//! [`Tracer::open`]/[`Tracer::close`] span with real timestamps. A call
//! issued on its own to stand for the inner part of its parent is a
//! [`Tracer::replay`]: it is timed where it runs and then recorded
//! *inside* its parent's interval, so that one rule gives every self
//! time: a span's duration minus what its children cover.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Timed on its own and placed inside its parent (see module docs).
    pub replayed: bool,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Per span: where its next replayed child is placed.
    cursor: Vec<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            cursor: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> usize {
        self.cursor.push(span.start_ns);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Starts a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            replayed: false,
        })
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// A span around one call that really runs inside `parent`.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Times `f` on its own and records it as the next child inside
    /// `parent`: replayed children of one parent are laid end to end
    /// from the parent's start and cut off at its end.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let started = Instant::now();
        let out = f();
        let took = started.elapsed().as_nanos() as u64;
        let limit = self.spans[parent].end_ns;
        let start_ns = self.cursor[parent].min(limit);
        let end_ns = (start_ns + took).min(limit);
        self.cursor[parent] = end_ns;
        let id = self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
            replayed: true,
        });
        (id, out)
    }

    pub fn duration(&self, id: usize) -> Duration {
        Duration::from_nanos(self.spans[id].end_ns - self.spans[id].start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| self_time((span.start_ns, span.end_ns), kids))
            .collect()
    }

    /// Per span name: how many, the median duration and the median self
    /// time, both in µs.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(&self_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push((span.end_ns - span.start_ns) as f64 / 1e3);
            entry.1.push(*own as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, (total, own))| {
                let layer = Layer {
                    count: total.len(),
                    p50_us: stats::median(total),
                    self_p50_us: stats::median(own),
                };
                (name, layer)
            })
            .collect()
    }

    /// Writes the spans and their per-name medians as one JSON document.
    pub fn write_json(&self, out: &mut impl Write, header: &str) -> std::io::Result<()> {
        writeln!(out, "{{{header},")?;
        writeln!(out, "\"layers\": {{")?;
        let layers = self.layers();
        for (i, (name, layer)) in layers.iter().enumerate() {
            let comma = if i + 1 < layers.len() { "," } else { "" };
            writeln!(
                out,
                "  \"{name}\": {{\"count\": {}, \"p50_us\": {}, \"self_p50_us\": {}}}{comma}",
                layer.count, layer.p50_us, layer.self_p50_us
            )?;
        }
        writeln!(out, "}},")?;
        writeln!(out, "\"spans\": [")?;
        for (i, span) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"request\": {}, \"replayed\": {}}}{comma}",
                span.name, span.start_ns, span.end_ns, span.request, span.replayed
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub count: usize,
    pub p50_us: f64,
    pub self_p50_us: f64,
}

/// A span's duration minus the part of its interval that its children
/// cover. Children may overlap each other and stick out of the parent:
/// only the union of their parts inside the parent counts.
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = parent;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(from, to) in children.iter() {
        let from = from.max(reach);
        let to = to.min(end);
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all of it.
        assert_eq!(self_time((10, 110), &mut []), 100);
        // Disjoint children.
        assert_eq!(self_time((10, 110), &mut [(20, 30), (50, 70)]), 70);
        // Overlapping children are counted once: [20,60) ∪ [40,80) = 60.
        assert_eq!(self_time((10, 110), &mut [(40, 80), (20, 60)]), 40);
        // A child nested in another adds nothing.
        assert_eq!(self_time((10, 110), &mut [(20, 80), (30, 40)]), 40);
        // Parts outside the parent do not count.
        assert_eq!(self_time((10, 110), &mut [(0, 20), (100, 200)]), 80);
        // Children covering everything leave zero, never a negative.
        assert_eq!(self_time((10, 110), &mut [(0, 60), (50, 500)]), 0);
    }

    #[test]
    fn replays_are_placed_end_to_end_inside_the_parent() {
        let mut tr = Tracer::new();
        let root = tr.open("root", None, 7);
        std::thread::sleep(std::time::Duration::from_millis(5));
        tr.close(root);
        let (a, ()) = tr.replay("a", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let (b, ()) = tr.replay("b", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let spans = tr.spans();
        assert_eq!(spans[a].start_ns, spans[root].start_ns);
        assert_eq!(spans[b].start_ns, spans[a].end_ns);
        assert!(spans[b].end_ns <= spans[root].end_ns);
        assert!(spans[a].replayed && !spans[root].replayed);
        let own = tr.self_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[root], dur(root) - dur(a) - dur(b));
        assert_eq!(own[a], dur(a));
        // A replay that took longer than its parent is cut off there.
        let (c, ()) = tr.replay("c", a, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(3));
        });
        assert_eq!(tr.spans()[c].end_ns, tr.spans()[a].end_ns);
        assert_eq!(tr.self_ns()[a], 0);
        let layers = tr.layers();
        assert_eq!(layers["root"].count, 1);
        assert!(layers["root"].self_p50_us < layers["root"].p50_us);
    }
}
