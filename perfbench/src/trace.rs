//! Spans recorded from outside the library, around each call into a
//! layer's public functions. They are kept in memory and written out
//! when the run ends. With tracing off, `begin`/`end` record nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The job (one set-up plus its ops) the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the time its direct
    /// children cover (children never overlap, being sequential calls).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per parent span, the summed duration (ms) of its direct children
    /// accepted by `pick`; one value per parent that has any.
    pub fn child_sums_ms(&self, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let (Some(p), true) = (s.parent, pick(&s.name)) {
                *sums.entry(p).or_default() += s.dur_ns();
            }
        }
        sums.values().map(|&ns| ns as f64 * 1e-6).collect()
    }

    /// Per span name: count, total and self time (ms).
    pub fn summary(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 * 1e-6;
            e.2 += own as f64 * 1e-6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_ns();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("op");
        let inner = t.begin("exec.m0");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        let selfs = t.self_ns();
        assert_eq!(selfs[0], s[0].dur_ns() - s[1].dur_ns());
        assert_eq!(t.child_sums_ms(|n| n.starts_with("exec")).len(), 1);

        let mut off = Tracer::new(false);
        let o = off.begin("op");
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
