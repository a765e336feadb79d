//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and end on the host clock, the span that
//! was open when it began (its parent), and the id of the cell it
//! belongs to. Calls too frequent to record one by one — the scheduler
//! hooks — are timed by their caller and folded into the enclosing span
//! as covered time, so they still count against its self time.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell this span worked for.
    pub cell: u32,
    /// Time covered by folded (unrecorded) child calls.
    pub folded_ns: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Records spans when enabled; every method is a no-op (no clock read)
/// when disabled, so one code path serves traced and untraced runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
}

impl Default for Tracer {
    /// A disabled tracer.
    fn default() -> Tracer {
        Tracer::new(false)
    }
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the cell id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: self.cell,
            folded_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Records `f` as a span with no children of its own.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attributes `child_ns` of time spent in unrecorded child calls to
    /// span `id`.
    pub fn fold(&mut self, id: SpanId, child_ns: u64) {
        if let Some(id) = id {
            self.spans[id].folded_ns += child_ns;
        }
    }

    /// Takes every recorded span, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans still open: {:?}", self.open);
        std::mem::take(&mut self.spans)
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed wall duration.
    pub total_ns: u64,
    /// Summed self time: duration minus what child spans and folded
    /// calls cover.
    pub self_ns: u64,
}

/// Totals per span name. Children of one span never overlap (each
/// worker records on its own tracer), so the covered part of a span is
/// the sum of its children's durations plus its folded time.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, child_ns) in spans.iter().zip(covered) {
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(child_ns + span.folded_ns);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: 0,
            folded_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // cell [0,100) ⊃ build [10,30), run [30,90) ⊃ render [40,50).
        let mut spans = vec![
            span("cell", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("render", 40, 50, Some(2)),
        ];
        spans[2].folded_ns = 15;
        let totals = layer_totals(&spans);
        assert_eq!(totals["cell"].self_ns, 100 - 20 - 60);
        assert_eq!(totals["build"].self_ns, 20);
        assert_eq!(totals["run"].self_ns, 60 - 10 - 15);
        assert_eq!(totals["render"].self_ns, 10);
        assert_eq!(totals["run"].total_ns, 60);
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = vec![
            span("cell", 0, 10, None),
            span("run", 1, 4, Some(0)),
            span("run", 5, 9, Some(0)),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(
            totals["run"],
            LayerTotals {
                count: 2,
                total_ns: 7,
                self_ns: 7
            }
        );
        assert_eq!(totals["cell"].self_ns, 3);
    }

    #[test]
    fn tracer_records_nesting_and_cells() {
        let mut tracer = Tracer::new(true);
        tracer.set_cell(7);
        let outer = tracer.enter("cell");
        let value = tracer.leaf("intern", || 41 + 1);
        tracer.fold(outer, 0);
        tracer.exit(outer);
        let spans = tracer.take();
        assert_eq!(value, 42);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.cell == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.enter("cell");
        tracer.fold(id, 5);
        tracer.exit(id);
        assert!(id.is_none());
        assert!(tracer.take().is_empty());
    }
}
