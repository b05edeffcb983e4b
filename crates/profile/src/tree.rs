//! Span-tree reconstruction from a flat obsv event stream — the one place
//! the workspace folds spans.
//!
//! Spans are emitted on drop, so a trace is ordered by *end* time and a
//! parent's record arrives after all of its children. Each record carries
//! its start timestamp (µs since the process epoch) and the ordinal of the
//! emitting thread, which is enough to rebuild the call forest: within one
//! thread, span intervals either nest or are disjoint, so sorting by
//! `(start asc, end desc, arrival desc)` visits every parent immediately
//! before its children and a single stack sweep recovers the tree. Spans
//! from different threads never link.
//!
//! Traced spans also carry a [`TraceCtx`]; [`SpanForest::traces`] groups
//! them by trace id across any number of processes' streams, which is how
//! `svbr-xtask trace-report` stitches a chunk's client, server and worker
//! spans into one tree without aligning clocks.

use std::collections::BTreeMap;
use svbr_obsv::{Event, TraceCtx};

/// One reconstructed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Emitting thread's ordinal.
    pub tid: u64,
    /// Start, µs since process epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Causal trace context ([`TraceCtx::NONE`] for an untraced span).
    pub ctx: TraceCtx,
    /// The span's numeric fields, in record order.
    pub fields: Vec<(String, f64)>,
    /// Indices of direct children in [`SpanForest::nodes`], in start order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// End timestamp, µs since process epoch (saturating).
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// Aggregated statistics for one root-to-node path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStats {
    /// Span names from root to node.
    pub path: Vec<String>,
    /// Occurrences of this exact path.
    pub count: u64,
    /// Total time (sum of durations), µs.
    pub total_us: u64,
    /// Self time (durations minus child durations), µs.
    pub self_us: u64,
}

/// The reconstructed call forest of one trace.
#[derive(Clone, Debug, Default)]
pub struct SpanForest {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
    /// Position of each node's record in the event stream.
    arrival: Vec<usize>,
}

impl SpanForest {
    /// Rebuild the forest from parsed events (arrival order preserved);
    /// non-span events are ignored.
    pub fn from_events(events: &[Event]) -> Self {
        let mut recs: Vec<(usize, SpanNode)> = events
            .iter()
            .enumerate()
            .filter_map(|(arrival, e)| match e {
                Event::Span {
                    name,
                    start_us,
                    dur_us,
                    tid,
                    ctx,
                    fields,
                } => Some((
                    arrival,
                    SpanNode {
                        name: name.clone(),
                        tid: *tid,
                        start_us: *start_us,
                        dur_us: *dur_us,
                        ctx: *ctx,
                        fields: fields.clone(),
                        children: Vec::new(),
                    },
                )),
                Event::Point { .. } | Event::Window { .. } | Event::Alert { .. } => None,
            })
            .collect();
        // Within a thread: parents sort before children (earlier start, or
        // same start with later end, or — for identical intervals — later
        // arrival, since a parent drops after its children).
        recs.sort_by(|(arrival_a, a), (arrival_b, b)| {
            a.tid
                .cmp(&b.tid)
                .then(a.start_us.cmp(&b.start_us))
                .then(b.end_us().cmp(&a.end_us()))
                .then(arrival_b.cmp(arrival_a))
        });
        let (arrival, mut nodes): (Vec<usize>, Vec<SpanNode>) = recs.into_iter().unzip();

        let mut roots = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut current_tid: Option<u64> = None;
        for idx in 0..nodes.len() {
            let (tid, start, end) = (nodes[idx].tid, nodes[idx].start_us, nodes[idx].end_us());
            if current_tid != Some(tid) {
                stack.clear();
                current_tid = Some(tid);
            }
            while let Some(&top) = stack.last() {
                if start >= nodes[top].start_us && end <= nodes[top].end_us() {
                    break;
                }
                stack.pop();
            }
            match stack.last() {
                Some(&parent) => nodes[parent].children.push(idx),
                None => roots.push(idx),
            }
            stack.push(idx);
        }
        SpanForest {
            nodes,
            roots,
            arrival,
        }
    }

    /// All nodes, indexable by the ids in `children` / `roots`.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Indices of root spans (no enclosing span on their thread).
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// The traced nodes grouped by trace id, each group in span-id order.
    /// A span id recorded more than once — a killed-and-resumed server
    /// re-serving a chunk regenerates the same ids — keeps its first record
    /// in event order, so a resumed run groups exactly like an
    /// uninterrupted one. Untraced spans are left out.
    pub fn traces(&self) -> BTreeMap<u64, Vec<&SpanNode>> {
        let mut first: BTreeMap<u64, usize> = BTreeMap::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.ctx.is_none() {
                continue;
            }
            let kept = first.entry(node.ctx.span_id).or_insert(idx);
            if self.arrival[idx] < self.arrival[*kept] {
                *kept = idx;
            }
        }
        let mut by_trace: BTreeMap<u64, Vec<&SpanNode>> = BTreeMap::new();
        for idx in first.into_values() {
            let node = &self.nodes[idx];
            by_trace.entry(node.ctx.trace_id).or_default().push(node);
        }
        by_trace
    }

    /// Self time of a node: its duration minus the time covered by its
    /// direct children, clamped at 0 (clock granularity can make child
    /// durations sum past the parent by a few µs).
    pub fn self_us(&self, idx: usize) -> u64 {
        let Some(node) = self.nodes.get(idx) else {
            return 0;
        };
        let child_total: u64 = node
            .children
            .iter()
            .filter_map(|&c| self.nodes.get(c))
            .map(|c| c.dur_us)
            .sum();
        node.dur_us.saturating_sub(child_total)
    }

    /// Total duration of all roots, µs — the profiled share of wall time.
    pub fn root_total_us(&self) -> u64 {
        self.roots
            .iter()
            .filter_map(|&r| self.nodes.get(r))
            .map(|r| r.dur_us)
            .sum()
    }

    /// The critical path: starting from the longest root, repeatedly
    /// descend into the longest child. Returns node indices, root first.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cursor = self
            .roots
            .iter()
            .copied()
            .max_by_key(|&r| self.nodes.get(r).map_or(0, |n| n.dur_us));
        while let Some(idx) = cursor {
            path.push(idx);
            cursor = self.nodes.get(idx).and_then(|n| {
                n.children
                    .iter()
                    .copied()
                    .max_by_key(|&c| self.nodes.get(c).map_or(0, |n| n.dur_us))
            });
        }
        path
    }

    /// Aggregate by root-to-node name path (threads with identical call
    /// paths merge). Sorted by descending self time, then path.
    pub fn aggregate(&self) -> Vec<PathStats> {
        let mut agg: BTreeMap<Vec<String>, (u64, u64, u64)> = BTreeMap::new();
        // Iterative DFS carrying the name path.
        let mut work: Vec<(usize, Vec<String>)> =
            self.roots.iter().map(|&r| (r, Vec::new())).collect();
        while let Some((idx, mut path)) = work.pop() {
            let Some(node) = self.nodes.get(idx) else {
                continue;
            };
            path.push(node.name.clone());
            let entry = agg.entry(path.clone()).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += node.dur_us;
            entry.2 += self.self_us(idx);
            for &c in &node.children {
                work.push((c, path.clone()));
            }
        }
        let mut out: Vec<PathStats> = agg
            .into_iter()
            .map(|(path, (count, total_us, self_us))| PathStats {
                path,
                count,
                total_us,
                self_us,
            })
            .collect();
        out.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.path.cmp(&b.path)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_us: u64, dur_us: u64) -> Event {
        Event::Span {
            name: name.to_string(),
            start_us,
            dur_us,
            tid,
            ctx: svbr_obsv::TraceCtx::NONE,
            fields: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_rebuild_a_tree() {
        // Emission order is end order: leaf, inner, root.
        let events = vec![
            span("leaf", 0, 20, 10),
            span("inner", 0, 10, 40),
            span("tail", 0, 60, 20),
            span("root", 0, 0, 100),
        ];
        let f = SpanForest::from_events(&events);
        assert_eq!(f.roots().len(), 1);
        let root = &f.nodes()[f.roots()[0]];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        let inner = &f.nodes()[root.children[0]];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.children.len(), 1);
        assert_eq!(f.nodes()[inner.children[0]].name, "leaf");
        assert_eq!(f.nodes()[root.children[1]].name, "tail");
        // Self times: root 100-(40+20)=40, inner 40-10=30.
        assert_eq!(f.self_us(f.roots()[0]), 40);
        assert_eq!(f.self_us(root.children[0]), 30);
        assert_eq!(f.root_total_us(), 100);
    }

    #[test]
    fn threads_never_cross_link() {
        // Thread 1's span falls inside thread 0's span timewise but must
        // stay a separate root.
        let events = vec![span("worker", 1, 10, 20), span("main", 0, 0, 100)];
        let f = SpanForest::from_events(&events);
        assert_eq!(f.roots().len(), 2);
        let names: Vec<&str> = f
            .roots()
            .iter()
            .map(|&r| f.nodes()[r].name.as_str())
            .collect();
        assert!(names.contains(&"main") && names.contains(&"worker"));
        assert_eq!(f.root_total_us(), 120);
    }

    #[test]
    fn critical_path_follows_longest_children() {
        let events = vec![
            span("short", 0, 10, 5),
            span("long", 0, 20, 60),
            span("long.leaf", 0, 30, 40),
            span("root", 0, 0, 100),
            span("other_root", 0, 200, 10),
        ];
        let f = SpanForest::from_events(&events);
        let path: Vec<&str> = f
            .critical_path()
            .iter()
            .map(|&i| f.nodes()[i].name.as_str())
            .collect();
        assert_eq!(path, vec!["root", "long", "long.leaf"]);
    }

    #[test]
    fn traces_group_by_trace_id_and_keep_the_first_record() {
        let traced = |name: &str, tid: u64, dur_us: u64, trace_id: u64, span_id: u64| Event::Span {
            name: name.to_string(),
            start_us: 0,
            dur_us,
            tid,
            ctx: svbr_obsv::TraceCtx {
                trace_id,
                span_id,
                parent: 0,
            },
            fields: Vec::new(),
        };
        let events = vec![
            traced("b", 0, 10, 7, 2),
            traced("a", 1, 20, 7, 1),
            span("untraced", 0, 0, 50),
            traced("c", 0, 30, 9, 3),
            // A second incarnation's record of span 2: the first one wins.
            traced("b", 0, 999, 7, 2),
        ];
        let f = SpanForest::from_events(&events);
        assert_eq!(f.nodes().len(), 5, "the forest itself keeps every record");
        let traces = f.traces();
        let summary: Vec<(u64, Vec<(&str, u64)>)> = traces
            .iter()
            .map(|(&t, nodes)| {
                (
                    t,
                    nodes.iter().map(|n| (n.name.as_str(), n.dur_us)).collect(),
                )
            })
            .collect();
        assert_eq!(
            summary,
            vec![(7, vec![("a", 20), ("b", 10)]), (9, vec![("c", 30)])]
        );
    }

    #[test]
    fn aggregate_merges_repeated_paths() {
        let events = vec![
            span("work", 0, 10, 20),
            span("work", 0, 40, 30),
            span("root", 0, 0, 100),
        ];
        let f = SpanForest::from_events(&events);
        let agg = f.aggregate();
        let work = agg
            .iter()
            .find(|p| p.path == vec!["root".to_string(), "work".to_string()])
            .expect("aggregated path");
        assert_eq!((work.count, work.total_us, work.self_us), (2, 50, 50));
        let root = agg
            .iter()
            .find(|p| p.path == vec!["root".to_string()])
            .expect("root path");
        assert_eq!((root.count, root.total_us, root.self_us), (1, 100, 50));
    }
}
